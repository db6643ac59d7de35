"""Flight recorder: the bounded cross-layer timeline (PR 7).

Unit coverage for :mod:`repro.obs.flight` — document shape, the
O(max_intervals) cardinality bound under decimation, live sampling
hooks, the JSONL event stream, annotations — plus the slow-marked
acceptance regression: on the reference overload campaign the recorder
stamps collapse onset for the open loop but *not* the closed loop, the
closed loop's first window decrease lands within one interval of the
first ECN mark, and the serialized timeline is byte-identical across
reruns.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import AnalysisError, ConfigurationError
from repro.experiments.congestion import (
    DEFAULT_CONTROL,
    OverloadSpec,
    run_overload_point,
)
from repro.obs.flight import Flight, FlightConfig, FlightRecorder, describe_flight
from repro.obs.heatmap import flight_timeline_svg
from repro.sim.run import RunPlan, run_plan, simulate, tree_config
from repro.traffic.transport import Transport, TransportConfig

from .conftest import small_tree_config


def _flown(config, flight=None, **live):
    """One run planned with a flight recorder layer."""
    return run_plan(RunPlan(config, (Flight(flight, **live),)))

# engine-layer columns every document carries
ENGINE_KEYS = (
    "cycle", "span", "generated", "injected", "delivered", "dropped",
    "offered", "backlog", "in_flight", "occupancy", "blocked",
)


class TestFlightConfig:
    def test_defaults_valid(self):
        cfg = FlightConfig()
        assert cfg.interval_cycles == 128
        assert cfg.max_intervals == 512

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(interval_cycles=0),
            dict(max_intervals=6),     # even but below the floor
            dict(max_intervals=9),     # odd: coalescing halves pairs
            dict(top_links=-1),
            dict(collapse_ratio=0.0),
            dict(collapse_ratio=1.0),
            dict(collapse_intervals=0),
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ConfigurationError):
            FlightConfig(**kwargs)


class TestDocumentShape:
    def test_engine_only_document(self):
        config = small_tree_config()
        result = _flown(config, FlightConfig(interval_cycles=64))
        doc = result.telemetry.flight
        assert doc["format"] == 1
        assert doc["interval"] == 64
        assert doc["decimations"] == 0
        assert doc["stride"] == 64
        assert doc["layers"] == {"transport": False, "control": False}
        assert set(doc["series"]) == set(ENGINE_KEYS)
        rows = doc["rows"]
        assert rows == len(doc["hot"])
        for key in ENGINE_KEYS:
            assert len(doc["series"][key]) == rows
        # the timeline tiles the whole run: spans sum to total_cycles and
        # the sampled cycles are strictly increasing
        assert sum(doc["series"]["span"]) == config.total_cycles
        cycles = doc["series"]["cycle"]
        assert cycles == sorted(cycles)
        assert cycles[-1] == config.total_cycles - 1

    def test_transport_layer_discovered(self):
        result = run_plan(
            RunPlan(
                small_tree_config(),
                (
                    Flight(FlightConfig(interval_cycles=128)),
                    Transport(TransportConfig(base_timeout=200, max_retries=2)),
                ),
            )
        )
        doc = result.telemetry.flight
        assert doc["layers"] == {"transport": True, "control": False}
        for key in ("outstanding", "retx", "gave_up", "rtt"):
            assert len(doc["series"][key]) == doc["rows"]
        assert "cwnd_mean" not in doc["series"]

    def test_control_layer_via_overload_point(self):
        spec = OverloadSpec(
            closed_loop=True,
            saturation=0.5,
            control=DEFAULT_CONTROL,
            flight=FlightConfig(interval_cycles=128),
        )
        result = run_overload_point(small_tree_config(load=0.6), spec)
        doc = result.telemetry.flight
        assert doc["layers"] == {"transport": True, "control": True}
        for key in ("held", "marks", "cwnd_mean", "cwnd_p50", "cwnd_min"):
            assert len(doc["series"][key]) == doc["rows"]
        # windows exist from the first sample on: means are positive
        assert all(v > 0 for v in doc["series"]["cwnd_mean"])

    def test_describe_flight_digest(self):
        result = _flown(
            small_tree_config(), FlightConfig(interval_cycles=128)
        )
        text = describe_flight(result.telemetry.flight)
        assert "flight timeline:" in text
        assert "delivered" in text and "offered" in text


class TestCardinalityBound:
    def test_rows_stay_bounded_and_spans_conserved(self):
        # 600 cycles at a 4-cycle interval is 150 raw samples; an
        # 8-row buffer must absorb them via pair-coalescing decimation
        cfg = FlightConfig(interval_cycles=4, max_intervals=8)
        config = small_tree_config()
        result = _flown(config, cfg)
        doc = result.telemetry.flight
        assert doc["rows"] <= cfg.max_intervals
        assert doc["decimations"] > 0
        assert doc["stride"] == cfg.interval_cycles * 2 ** doc["decimations"]
        # decimation sums rates and keeps gauges: nothing is lost
        assert sum(doc["series"]["span"]) == config.total_cycles
        assert len(doc["hot"]) == doc["rows"]

    def test_decimated_totals_match_undecimated(self):
        config = small_tree_config()
        fine = _flown(
            config, FlightConfig(interval_cycles=4, max_intervals=8)
        ).telemetry.flight
        coarse = _flown(
            config, FlightConfig(interval_cycles=300)
        ).telemetry.flight
        for key in ("injected", "delivered", "dropped", "generated"):
            assert sum(fine["series"][key]) == sum(coarse["series"][key])


class TestLiveHooks:
    def test_on_sample_sees_raw_rows(self):
        seen = []
        config = small_tree_config()
        recorder = FlightRecorder(
            FlightConfig(interval_cycles=4, max_intervals=8),
            on_sample=seen.append,
        )
        simulate(config, probe=recorder)
        # the callback fires per raw interval, decimation notwithstanding
        assert len(seen) == config.total_cycles // 4
        assert all(row["span"] == 4 for row in seen)

    def test_events_jsonl_stream(self, tmp_path):
        path = tmp_path / "events.jsonl"
        result = _flown(
            small_tree_config(),
            FlightConfig(interval_cycles=128),
            events=path,
        )
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert records[0]["type"] == "start"
        assert records[-1]["type"] == "end"
        samples = [r for r in records if r["type"] == "sample"]
        doc = result.telemetry.flight
        assert len(samples) == doc["rows"]  # no decimation at this interval
        assert records[-1]["rows"] == doc["rows"]
        assert records[-1]["collapse_onset"] == doc["collapse_onset"]

    def test_broken_event_sink_does_not_kill_the_run(self):
        class Broken:
            def write(self, _):
                raise OSError("disk gone")

        result = _flown(
            small_tree_config(), FlightConfig(interval_cycles=128),
            events=Broken(),
        )
        assert result.telemetry.flight["rows"] > 0


class TestAnnotations:
    def _run_with(self, recorder):
        simulate(small_tree_config(), probe=recorder)
        return recorder

    def test_pre_run_annotations_survive_run_start(self):
        # a fault schedule is annotated right after build_engine, before
        # the engine runs; run start must replay, not reset, those stamps
        recorder = FlightRecorder(FlightConfig(interval_cycles=128))
        recorder.annotate(250, "fault_strike", "s0p1")
        recorder.annotate(400, "fault_repair", "s0p1")
        self._run_with(recorder)
        doc = recorder.document()
        assert [(a["cycle"], a["kind"]) for a in doc["annotations"]] == [
            (250, "fault_strike"), (400, "fault_repair"),
        ]

    def test_cap_drops_overflow(self):
        recorder = FlightRecorder(FlightConfig(interval_cycles=128))
        for i in range(70):
            recorder.annotate(i, "fault_strike", f"link {i}")
        self._run_with(recorder)
        doc = recorder.document()
        assert len(doc["annotations"]) == 64
        assert doc["annotations_dropped"] == 6

    def test_annotations_sorted_by_cycle_then_kind(self):
        recorder = FlightRecorder(FlightConfig(interval_cycles=128))
        recorder.annotate(500, "fault_strike")
        recorder.annotate(100, "stall")
        recorder.annotate(100, "collapse_onset")
        self._run_with(recorder)
        doc = recorder.document()
        assert [(a["cycle"], a["kind"]) for a in doc["annotations"]] == [
            (100, "collapse_onset"), (100, "stall"), (500, "fault_strike"),
        ]

    def test_chaos_point_stamps_strikes_on_the_timeline(self):
        from repro.experiments.chaos import StormSpec, chaos_layers

        storm = StormSpec(fault_rate=0.5, storm_seed=9)
        result = run_plan(
            RunPlan(
                small_tree_config(load=0.5),
                chaos_layers(storm, FlightConfig(interval_cycles=64)),
            )
        )
        doc = result.telemetry.flight
        struck = result.telemetry.reliability["storm"]["faults"]
        assert struck > 0
        strikes = [a for a in doc["annotations"] if a["kind"] == "fault_strike"]
        assert len(strikes) == struck


class TestTimelineSvg:
    def test_renders_engine_only_panels(self):
        result = _flown(
            small_tree_config(), FlightConfig(interval_cycles=64)
        )
        svg = flight_timeline_svg(result.telemetry.flight, title="smoke")
        assert svg.startswith("<svg") or "<svg" in svg
        assert "offered" in svg and "delivered" in svg

    def test_empty_document_rejected(self):
        doc = FlightRecorder().document()
        with pytest.raises(AnalysisError):
            flight_timeline_svg(doc)


# -- acceptance regression: the PR 6 overload campaign under the recorder --

ACCEPTANCE_SATURATION = 0.78
ACCEPTANCE_TRANSPORT = TransportConfig(
    base_timeout=220, backoff=1.0, jitter=4, max_retries=8
)
ACCEPTANCE_FLIGHT = FlightConfig(interval_cycles=128)


def _acceptance_point(closed_loop: bool):
    """One 1.5x-saturation point of the reference campaign (4-ary
    4-tree, transpose), flight-instrumented — the PR 6 acceptance shape."""
    config = tree_config(
        k=4, n=4, vcs=4, pattern="transpose",
        load=round(ACCEPTANCE_SATURATION * 1.5, 9), seed=29,
        warmup_cycles=250, total_cycles=1450,
    )
    spec = OverloadSpec(
        closed_loop=closed_loop,
        saturation=ACCEPTANCE_SATURATION,
        transport=ACCEPTANCE_TRANSPORT,
        control=DEFAULT_CONTROL,
        flight=ACCEPTANCE_FLIGHT,
    )
    return run_overload_point(config, spec)


@pytest.mark.slow
class TestOverloadAcceptance:
    """The committed form of the PR 7 acceptance criteria."""

    def test_collapse_onset_separates_the_loops(self):
        open_doc = _acceptance_point(closed_loop=False).telemetry.flight
        closed_doc = _acceptance_point(closed_loop=True).telemetry.flight

        # open loop: retransmissions pile into the source queues, offered
        # load diverges from goodput, and the recorder stamps the onset
        assert open_doc["collapse_onset"] is not None
        kinds = {a["kind"] for a in open_doc["annotations"]}
        assert "collapse_onset" in kinds

        # closed loop: held messages are not offered; no onset stamped
        assert closed_doc["collapse_onset"] is None

        # the control plane reacts within one interval of the first mark
        notes = {a["kind"]: a["cycle"] for a in closed_doc["annotations"]}
        assert "first_mark" in notes and "first_decrease" in notes
        assert abs(notes["first_mark"] - notes["first_decrease"]) <= (
            closed_doc["interval"]
        )

    def test_timeline_serialization_is_byte_identical(self):
        first = _acceptance_point(closed_loop=True).telemetry.flight
        second = _acceptance_point(closed_loop=True).telemetry.flight
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )
