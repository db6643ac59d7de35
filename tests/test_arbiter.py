"""Unit tests for the link-phase arbiter (repro.router.arbiter.grant):
round-robin rotation and its bounded-wait guarantee, and the age-based
(oldest packet first) alternative selectable via ``config.arbiter``.

``grant`` is the engine kernel's own arbitration step, so these cases
exercise exactly what every link phase runs.  Single-direction cases use
``(V, 1)`` eligibility columns; the pointer update after a grant mirrors
the engine's (``rr = granted lane + 1``, wrapping).
"""

import random

import numpy as np
import pytest

from repro.router.arbiter import ARBITER_POLICIES, grant


def pick(requests, rr=0, ages=None):
    """The lane one direction grants, or None."""
    eligible = np.array(requests, dtype=bool)[:, None]
    age = None if ages is None else np.array(ages, dtype=np.int64)[:, None]
    dirs, vcs = grant(eligible, np.array([rr]), age)
    return int(vcs[0]) if dirs.size else None


class RoundRobin:
    """One direction's arbiter state, advanced the way the engine does."""

    def __init__(self, size):
        self.size = size
        self.rr = 0

    def grant(self, requests):
        granted = pick(requests, self.rr)
        if granted is not None:
            self.rr = (granted + 1) % self.size
        return granted


class TestRoundRobinPick:
    def test_picks_first_eligible_from_start(self):
        assert pick([True, False, True, False], rr=1) == 2

    def test_wraps_around(self):
        assert pick([True, False, False], rr=2) == 0

    def test_none_eligible(self):
        assert pick([False, False, False], rr=0) is None

    def test_empty(self):
        dirs, vcs = grant(np.zeros((4, 0), dtype=bool), np.zeros(0, dtype=np.int64))
        assert dirs.size == 0 and vcs.size == 0

    def test_rotation_is_fair(self):
        arb = RoundRobin(3)
        assert [arb.grant([True] * 3) for _ in range(6)] == [0, 1, 2, 0, 1, 2]


class TestRoundRobinArbiter:
    def test_grants_rotate(self):
        # every direction is arbitrated independently in one call
        eligible = np.ones((3, 4), dtype=bool)
        eligible[:, 3] = False
        dirs, vcs = grant(eligible, np.array([0, 1, 2, 0]))
        assert dirs.tolist() == [0, 1, 2]
        assert vcs.tolist() == [0, 1, 2]

    def test_no_requests(self):
        dirs, vcs = grant(np.zeros((2, 5), dtype=bool), np.zeros(5, dtype=np.int64))
        assert dirs.size == 0

    def test_no_starvation(self):
        # input 2 requests constantly, 0 intermittently; both get served
        arb = RoundRobin(3)
        served = {0: 0, 2: 0}
        for i in range(20):
            g = arb.grant([i % 2 == 0, False, True])
            if g is not None:
                served[g] += 1
        assert served[0] > 0 and served[2] > 0

    def test_size_validation(self):
        with pytest.raises(ValueError):
            grant(np.ones((2, 3), dtype=bool), np.zeros(2, dtype=np.int64))
        with pytest.raises(ValueError):
            grant(np.ones((2, 3), dtype=bool), np.zeros(3, dtype=np.int64), np.zeros((3, 2)))

    @pytest.mark.parametrize("seed", [3, 17, 91])
    def test_bounded_wait_property(self, seed):
        # the no-starvation guarantee, as a property over random request
        # patterns: a persistently-requesting input is granted within
        # ``size`` grants of any other grant
        size = 6
        target = 2
        arb = RoundRobin(size)
        rng = random.Random(seed)
        since_target = 0
        for _ in range(500):
            requests = [rng.random() < 0.5 for _ in range(size)]
            requests[target] = True
            granted = arb.grant(requests)
            assert granted is not None  # the target always requests
            if granted == target:
                since_target = 0
            else:
                since_target += 1
                assert since_target < size


class TestOldestPick:
    def test_picks_smallest_age_among_eligible(self):
        # lane 2 is oldest but ineligible
        assert pick([True, True, False, True], ages=[30, 10, 5, 20]) == 1

    def test_ties_break_on_lowest_index(self):
        assert pick([True, True], ages=[7, 7]) == 0

    def test_none_eligible(self):
        assert pick([False, False], ages=[1, 2]) is None


class TestAgeArbiter:
    def test_grants_oldest_requester(self):
        assert pick([True, True, False, True], rr=3, ages=[40, 12, 1, 33]) == 1

    def test_ties_break_on_lowest_index(self):
        # the round-robin pointer plays no part under the age policy
        assert pick([True, True, True], rr=2, ages=[5, 5, 5]) == 0

    def test_no_requests(self):
        assert pick([False, False], ages=[1, 2]) is None

    def test_validation(self):
        eligible = np.ones((2, 1), dtype=bool)
        with pytest.raises(ValueError):
            grant(eligible, np.zeros(1, dtype=np.int64), np.zeros((1, 1), dtype=np.int64))
        with pytest.raises(ValueError):
            grant(eligible, np.zeros(2, dtype=np.int64), np.zeros((2, 1), dtype=np.int64))

    def test_age_order_is_starvation_free(self):
        # churn: every round a fresh (younger) request appears, yet the
        # population drains strictly oldest-first, so the early packets
        # are never starved by the late arrivals
        ages = [None] * 8
        next_age = 0
        for slot in range(4):  # pre-fill half the inputs
            ages[slot] = next_age
            next_age += 3
        drained = []
        rng = random.Random(5)
        for _ in range(30):
            free = [i for i, a in enumerate(ages) if a is None]
            if free:  # a younger packet joins at a random free input
                ages[rng.choice(free)] = next_age
                next_age += 3
            granted = pick([a is not None for a in ages], ages=[a or 0 for a in ages])
            drained.append(ages[granted])
            ages[granted] = None
        assert drained == sorted(drained)


class TestArbiterConfigKnob:
    """``config.arbiter`` selects the policy engine-wide."""

    def test_policies_registry_matches_config_validation(self):
        from repro.errors import ConfigurationError

        from .conftest import small_tree_config

        assert set(ARBITER_POLICIES) == {"round_robin", "age"}
        for policy in ARBITER_POLICIES:
            small_tree_config(arbiter=policy)  # validates
        with pytest.raises(ConfigurationError, match="arbiter"):
            small_tree_config(arbiter="lottery")

    def test_age_arbitration_changes_the_run(self):
        from repro.sim.run import simulate

        from .conftest import small_tree_config

        rr = simulate(small_tree_config(load=0.8))
        age = simulate(small_tree_config(load=0.8, arbiter="age"))
        assert age.delivered_packets > 0
        # the policy is live: under contention the grant order differs
        assert (
            rr.latency_sum != age.latency_sum
            or rr.delivered_packets != age.delivered_packets
        )
