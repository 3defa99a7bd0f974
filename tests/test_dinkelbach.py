"""Property tests of `solve.dinkelbach` against exhaustive oracles.

Instances are drawn over S = 1..7 and the edges of the valid box: q and a at
1e-8 or 1, and attempts that always resolve (rho = 1) before the last one.
The nested (threshold) class is checked against the exhaustive threshold
grid, the unrestricted class against `enumerate_policies`, and every lane of
a block against the same instance solved alone.  A lane leaves the block in
the pass where its ratio stops rising; the loop that passes over every lane
until none rises stays here as the oracle of that retirement.
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
    solve,
)
from gatekeeper.evaluate import average_reward, block_terms, renewal_terms
from gatekeeper.model import GeneratorConfig, all_decision_rules, generate_block, rules_table
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


def _every_lane_dinkelbach(t, nested):
    """Dinkelbach passing over every lane until no ratio rises; a lane that
    has stopped keeps its R, so it repeats its bits in each later pass."""
    R, run = t.r_never, solve._nested_pass if nested else solve._free_pass
    while True:
        v = t.trans[0] - R * t.trans[1]
        cold = v[1] > v[0]
        WD, cont = run(t, R, np.maximum(v[0], v[1]), np.where(cold, t.trans[:, 1], t.trans[:, 0]))
        ratio = WD[0] / WD[1]
        rising = ratio > R
        if not np.count_nonzero(rising):
            break
        R = np.where(rising, ratio, R)
    return ratio, np.where(cont, 0, cold + 1).astype(np.int8).transpose(2, 0, 1)


@pytest.mark.parametrize("nested", [False, True])
def test_lanes_retire_once_their_ratio_stops_rising(monkeypatch, nested):
    t = block_terms(*generate_block(GeneratorConfig(seed=300, S=4), range(300, 600)))
    R_all, acts_all = _every_lane_dinkelbach(t, nested)
    counts = []
    for name in ("_free_pass", "_nested_pass"):
        def spy(terms, R, *args, run=getattr(solve, name)):
            counts.append(len(R))
            return run(terms, R, *args)
        monkeypatch.setattr(solve, name, spy)
    R, acts = dinkelbach(t, nested=nested)
    assert counts[0] == 300 and all(b < a for a, b in zip(counts, counts[1:]))
    assert sum(counts) < len(counts) * 300
    assert R.tobytes() == R_all.tobytes()
    assert acts.dtype == acts_all.dtype and np.array_equal(acts, acts_all)


@pytest.mark.parametrize("nested", [False, True])
@pytest.mark.parametrize("S", [1, 2, 3, 4])
def test_a_block_of_no_lanes_gives_empty_answers(S, nested):
    t = renewal_terms([random_instance(S, S)])
    R, acts = dinkelbach(t._make(a.take([], axis=-1) for a in t), nested=nested)
    assert (R.dtype, R.shape) == (np.float64, (0,))
    assert (acts.dtype, acts.shape) == (np.int8, (0, S - 1, 4))
