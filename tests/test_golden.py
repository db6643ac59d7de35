"""Stored golden state digests for paper-scale runs.

Every other determinism test compares two runs of the *same* code.
These compare a run against digests committed to the repository
(``tests/golden/digests.json``), so they also hold across rewrites of
the engine: a refactor or a new kernel must reproduce the stored
``fabric``, ``injection`` and ``transport`` digests of
:meth:`Engine.state_fingerprint` bit for bit.

The ``rng`` subsystem is left out on purpose: it hashes the Mersenne
Twister state with ``hash()`` of a tuple, which is stable on one
interpreter build but not across Python versions.

Regenerate the file (only on a commit whose behaviour is meant to
define the reference, never to make a failing test pass) with::

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

GOLDEN = pathlib.Path(__file__).parent / "golden" / "digests.json"

#: fingerprint cycles: one mid-run sample and the end of the run
CYCLES = (250, 500)

#: subsystems compared; ``rng`` is interpreter-specific (see module doc)
SUBSYSTEMS = ("fabric", "injection", "transport")

SEED = 7

#: run name -> (config kwargs, layer); 256-node paper networks
RUNS = {
    "cube-dor": (dict(network="cube", algorithm="dor", load=0.6), None),
    "cube-duato": (dict(network="cube", algorithm="duato", load=0.6), None),
    "tree-1vc": (dict(network="tree", vcs=1, load=0.6), None),
    "tree-2vc": (dict(network="tree", vcs=2, load=0.6), None),
    "tree-4vc": (dict(network="tree", vcs=4, load=0.6), None),
    "cube-duato-age": (dict(network="cube", algorithm="duato", load=1.0, arbiter="age"), None),
    "cube-duato-chaos": (dict(network="cube", algorithm="duato", load=0.6), "chaos"),
    # a permutation: under uniform traffic the per-destination windows
    # never bind (no marks within the run)
    "cube-duato-aimd": (
        dict(network="cube", algorithm="duato", load=1.2, pattern="transpose"),
        "aimd",
    ),
}


def _config(network: str, pattern: str = "uniform", **kwargs):
    from repro.sim.run import cube_config, tree_config

    make = cube_config if network == "cube" else tree_config
    return make(
        pattern=pattern,
        seed=SEED,
        warmup_cycles=100,
        total_cycles=CYCLES[-1],
        **kwargs,
    )


def _build(name: str):
    from repro.experiments.chaos import StormSpec, _draw_storm_schedule
    from repro.experiments.congestion import DEFAULT_CONTROL
    from repro.sim.run import build_engine
    from repro.traffic.congestion import install_congestion
    from repro.traffic.transport import ReliableTransport, TransportConfig

    kwargs, layer = RUNS[name]
    engine = build_engine(_config(**kwargs))
    transport = TransportConfig(base_timeout=128)
    if layer == "chaos":
        ReliableTransport(transport).install(engine)
        _draw_storm_schedule(engine, StormSpec(fault_rate=0.05, transport=transport)).install(
            engine
        )
    elif layer == "aimd":
        install_congestion(engine, transport, DEFAULT_CONTROL)
    return engine


def fingerprints(name: str) -> dict:
    """``{cycle: {subsystem: digest}}`` of one run, at every cycle in CYCLES."""
    engine = _build(name)
    out = {}

    def sample(eng):
        fp = eng.state_fingerprint()
        out[str(eng.cycle)] = {key: fp[key] for key in SUBSYSTEMS}

    for cycle in CYCLES[:-1]:
        engine.add_cycle_hook(cycle, sample)
    engine.run()
    engine.audit()
    sample(engine)
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_run(golden):
    assert sorted(golden["runs"]) == sorted(RUNS)
    assert golden["cycles"] == list(CYCLES)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_stored_digests(golden, name):
    got = fingerprints(name)
    want = golden["runs"][name]
    for cycle in map(str, CYCLES):
        for key in SUBSYSTEMS:
            assert got[cycle][key] == want[cycle][key], (
                f"{name}: {key} digest diverges from the stored reference at cycle {cycle}"
            )


def _write() -> None:
    doc = {
        "seed": SEED,
        "cycles": list(CYCLES),
        "subsystems": list(SUBSYSTEMS),
        "runs": {name: fingerprints(name) for name in sorted(RUNS)},
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    _write()
