"""Fair link arbitration (paper §4: "an arbiter picks one of them
according to a fair policy").

:func:`grant` is the engine's link-phase arbiter: it serves every link
direction of the network at once, as array operations over the lane
eligibility matrix, under either policy of ``config.arbiter``.
"""

from __future__ import annotations

import functools

import numpy as np

#: arbitration policies selectable via ``SimulationConfig.arbiter``
ARBITER_POLICIES = ("round_robin", "age")

#: key of an ineligible lane under the age policy
_NO_AGE = np.iinfo(np.int64).max


@functools.lru_cache(maxsize=None)
def _round_robin_table(vcs: int) -> np.ndarray:
    """The round-robin grant for every (pointer, eligibility mask) pair.

    Entry ``(rr << vcs) | mask`` is the first lane at or after ``rr``,
    wrapping around, whose bit is set in ``mask``; -1 for an empty mask.
    """
    masks = np.arange(1 << vcs)
    table = np.full((vcs, 1 << vcs), -1, dtype=np.int8)
    for rr in range(vcs):
        # nearest lanes last, so they overwrite the farther ones
        for off in reversed(range(vcs)):
            lane = (rr + off) % vcs
            table[rr, (masks >> lane) & 1 == 1] = lane
    return table.ravel()


def grant(
    eligible: np.ndarray, rr: np.ndarray, age: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Grant at most one lane per link direction.

    Args:
        eligible: ``(V, D)`` bool, lane ``v`` of direction ``d`` holds a
            flit and a credit.
        rr: ``(D,)`` round-robin pointers.  Lane ``rr[d]`` has priority,
            then ``rr[d] + 1`` and so on, wrapping around; the caller
            moves the pointer past each granted lane, so a lane that
            stays eligible is served within ``V`` grants of its direction.
        age: ``(V, D)`` packet creation cycles, selecting the oldest-first
            policy: the eligible lane with the smallest age wins, ties
            going to the lowest lane index.  ``rr`` is then ignored.
            Age order is starvation-free under sustained overload: a
            waiting packet only grows older, so it can be bypassed at
            most by packets created earlier (a finite population) before
            it wins.

    Returns:
        ``(dirs, vcs)``: the ascending directions with a grant and the
        lane granted in each.

    Raises:
        ValueError: when the array shapes disagree.
    """
    vcs, ndirs = eligible.shape
    if rr.shape != (ndirs,) or (age is not None and age.shape != eligible.shape):
        raise ValueError(
            f"eligibility {eligible.shape} needs rr ({ndirs},) and age {eligible.shape}"
        )
    if age is None:
        # one lookup per direction: its eligibility bits and pointer
        # index the precomputed rotated-priority winner
        mask = (1 << np.arange(vcs)) @ eligible
        lane = _round_robin_table(vcs)[(rr << vcs) | mask]
        dirs = (lane >= 0).nonzero()[0]
        return dirs, lane[dirs].astype(np.int64)
    # the lane index in the low digit sends equal ages to the lowest lane
    key = np.where(eligible, age * vcs + np.arange(vcs)[:, None], _NO_AGE)
    best = np.minimum.reduce(key, axis=0, initial=_NO_AGE)
    dirs = (best < _NO_AGE).nonzero()[0]
    return dirs, best[dirs] % vcs
