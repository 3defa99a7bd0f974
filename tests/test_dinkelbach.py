"""Property tests of `solve.dinkelbach` against exhaustive oracles.

Instances are drawn over S = 1..7 and the edges of the valid box: q and a at
1e-8 or 1, and attempts that always resolve (rho = 1) before the last one.
The nested (threshold) class is checked against the exhaustive threshold
grid, the unrestricted class against `enumerate_policies`, and every lane of
a block against the same instance solved alone.
"""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatekeeper import (
    enumerate_policies,
    is_threshold_policy,
    search_threshold_policies,
)
from gatekeeper.evaluate import average_reward, renewal_terms
from gatekeeper.model import all_decision_rules, rules_table
from gatekeeper.solve import dinkelbach, optimal_policy

from conftest import instances, random_instance
from threshold_grid import best_threshold_reward


@settings(derandomize=True, max_examples=120, deadline=None)
@given(instances())
def test_nested_dp_matches_threshold_grid(inst):
    pol, R = search_threshold_policies(inst)
    assert R == pytest.approx(best_threshold_reward(inst), rel=1e-12, abs=0.0)
    assert is_threshold_policy(pol)
    assert average_reward(inst, pol) == R


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.integers(1, 5).flatmap(instances))
def test_unrestricted_dp_matches_enumeration(inst):
    rules = all_decision_rules() if inst.S <= 3 else list(rules_table().values())
    ranked = enumerate_policies(inst, "all-81" if inst.S <= 3 else "table-1")
    pol, R = optimal_policy(inst)
    assert R == pytest.approx(ranked[0][1], rel=1e-12, abs=0.0)
    assert average_reward(inst, pol) == R
    # the same policy, or one of the policies tied at the top where there are ties
    if all(rule in rules for rule in pol.rules):
        top = itertools.takewhile(lambda pair: pair[1] >= ranked[0][1] * (1 - 1e-9), ranked)
        assert pol in [p for p, _ in top]
        if len(ranked) == 1 or ranked[1][1] < ranked[0][1] * (1 - 1e-9):
            assert pol == ranked[0][0]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(1, 7).flatmap(lambda S: st.lists(instances(S), min_size=1, max_size=6)),
       st.booleans())
def test_block_lanes_equal_solo_solves(insts, nested):
    # generated instances of the same S stop after different numbers of passes
    S = insts[0].S
    insts = insts + [random_instance(seed, S) for seed in range(20)]
    R, acts = dinkelbach(renewal_terms(insts), nested=nested)
    for i, inst in enumerate(insts):
        R_one, acts_one = dinkelbach(renewal_terms([inst]), nested=nested)
        assert R_one[0] == R[i]
        assert np.array_equal(acts_one[0], acts[i])


def test_block_rejects_mixed_attempt_counts():
    with pytest.raises(ValueError, match="block of S = 3"):
        renewal_terms([random_instance(0, 3), random_instance(1, 4)])
