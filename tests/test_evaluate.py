import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatekeeper import (
    EconomicParams,
    EvaluationError,
    ProblemInstance,
    ResolutionProfile,
    StationaryPolicy,
    TrafficParams,
    average_reward,
    build_chain,
    evaluate_policy,
    policy_from_names,
    rules_table,
    uniform_policy,
)
from gatekeeper.evaluate import (
    I0,
    I1,
    W0,
    W1,
    LaneEvaluator,
    average_reward_batch,
    c_index,
    policy_actions,
    renewal_step,
    renewal_terms,
    stationary_distribution,
)
from gatekeeper.solve import _MEMBER

from conftest import instances, random_instance, random_policy
from dense_queue import EXTENDED, gth_stationary, lu_relative_values
from design_oracle import lane_performance, lane_terms, measure_rows


class TestChainStructure:
    def test_rows_are_stochastic(self):
        for seed in range(20):
            inst = random_instance(seed, 1 + seed % 4)
            pol = random_policy(seed, inst.S)
            chain = build_chain(inst, pol)
            np.testing.assert_allclose(chain.P.sum(axis=1), 1.0, atol=1e-12)

    def test_single_attempt_always_resolves(self, single_attempt):
        chain = build_chain(single_attempt, StationaryPolicy(()))
        for qa, (qf, _) in enumerate([(0, 0), (1, 0), (0, 1), (1, 1)]):
            i = c_index(1, qa)
            assert chain.reward[i] == single_attempt.econ.r
            assert chain.P[i, I1 if qf else I0] == 1.0

    def test_zero_duration_states_reach_positive_duration_quickly(self):
        # resolutions and transfers land in idle/holding states within 2 hops
        for seed in range(20):
            inst = random_instance(seed, 2 + seed % 3)
            pol = random_policy(seed + 1, inst.S)
            chain = build_chain(inst, pol)
            zero = np.nonzero(chain.duration == 0)[0]
            positive = chain.duration > 0
            one_hop = chain.P[zero][:, positive].sum(axis=1)
            two_hop = (chain.P @ chain.P)[zero][:, positive].sum(axis=1)
            assert np.all(one_hop + two_hop > 1 - 1e-12)

    def test_wrong_policy_length_rejected(self, saturated_two_attempt):
        with pytest.raises(ValueError, match="attempts 1..1"):
            build_chain(saturated_two_attempt, uniform_policy("C", 3))


class TestEvaluateExamples:
    def test_single_attempt_closed_form(self, single_attempt):
        # cycle = one service period + geometric idle tail of (1-q)/q periods
        ev = evaluate_policy(single_attempt, StationaryPolicy(()))
        assert ev.R == pytest.approx(10.0, abs=1e-12)
        assert ev.perf.p_admit == pytest.approx(1.0, abs=1e-12)
        assert ev.perf.p_resolve == 1.0
        assert ev.perf.t_channel == pytest.approx(1.0, abs=1e-12)

    def test_saturated_always_warm(self, saturated_two_attempt):
        ev = evaluate_policy(saturated_two_attempt, uniform_policy("T1", 2))
        assert ev.R == pytest.approx(19.4 / 6.9, abs=1e-12)

    def test_saturated_always_cold(self, saturated_two_attempt):
        ev = evaluate_policy(saturated_two_attempt, uniform_policy("T5", 2))
        assert ev.R == pytest.approx(18.5 / 6.0, abs=1e-12)


class TestEvaluateProperties:
    def test_bias_identities(self):
        # G(I1)-G(I0) = R/q and G(W1)-G(W0) = R/a for any stationary policy
        for seed in range(150):
            inst = random_instance(seed, 2 + seed % 3)
            ev = evaluate_policy(inst, random_policy(seed, inst.S))
            q, a = inst.traffic.q, inst.traffic.a
            assert abs(ev.G[I1] - ev.G[I0] - ev.R / q) < 1e-9
            assert abs(ev.G[W1] - ev.G[W0] - ev.R / a) < 1e-9

    def test_warm_cold_identity(self):
        # G(I_Q) - G(W_A) = R [tau_w - 1 + (1-A)/a + Q/q]
        for seed in range(150):
            inst = random_instance(seed + 300, 2 + seed % 3)
            ev = evaluate_policy(inst, random_policy(seed, inst.S))
            q, a, tw = inst.traffic.q, inst.traffic.a, inst.econ.tau_w
            for Q in (0, 1):
                for A in (0, 1):
                    lhs = ev.G[I1 if Q else I0] - ev.G[W1 if A else W0]
                    rhs = ev.R * (tw - 1 + (1 - A) / a + Q / q)
                    assert abs(lhs - rhs) < 1e-9

    def test_scale_covariance(self):
        # scaling all money by kappa scales R and G, leaves perf unchanged
        kappa = 3.7
        for seed in range(30):
            inst = random_instance(seed, 3)
            pol = random_policy(seed, 3)
            ev = evaluate_policy(inst, pol)
            econ = inst.econ
            scaled = dataclasses.replace(
                inst,
                econ=dataclasses.replace(econ, r=econ.r * kappa, c_w=econ.c_w * kappa,
                                         c_c=econ.c_c * kappa),
            )
            ev2 = evaluate_policy(scaled, pol)
            assert ev2.R == pytest.approx(kappa * ev.R, rel=1e-10)
            np.testing.assert_allclose(ev2.G, kappa * ev.G, atol=1e-8 * max(1, kappa * ev.R))
            for field in ("throughput", "p_admit", "p_resolve", "p_warm", "p_cold", "t_channel"):
                assert getattr(ev2.perf, field) == pytest.approx(getattr(ev.perf, field), abs=1e-10)

    def test_performance_partition(self):
        for seed in range(60):
            inst = random_instance(seed + 50, 2 + seed % 4)
            perf = evaluate_policy(inst, random_policy(seed, inst.S)).perf
            assert perf.p_resolve + perf.p_warm + perf.p_cold == pytest.approx(1.0, abs=1e-12)
            assert 0.0 <= perf.p_admit <= 1.0 + 1e-12
            assert perf.throughput == pytest.approx(inst.traffic.q * perf.p_admit, abs=1e-12)

    def test_stationary_distribution_is_proper(self):
        for seed in range(40):
            inst = random_instance(seed, 2 + seed % 3)
            ev = evaluate_policy(inst, random_policy(seed + 9, inst.S))
            assert ev.pi.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(ev.pi >= 0)

    def test_renewal_cycle_form_matches_chain(self):
        for seed in range(120):
            inst = random_instance(seed + 700, 1 + seed % 5)
            pol = random_policy(seed, inst.S)
            ev = evaluate_policy(inst, pol)
            fast = average_reward(inst, pol)
            assert fast == pytest.approx(ev.R, rel=1e-10, abs=1e-10)

    def test_batch_evaluator_matches_scalar(self):
        inst = random_instance(11, 3)
        pols = [random_policy(s, 3) for s in range(25)]
        acts = np.stack([policy_actions(p) for p in pols])
        batch = average_reward_batch(inst, acts)
        for p, r in zip(pols, batch):
            assert r == pytest.approx(average_reward(inst, p), rel=1e-12)


def test_stationary_errors_name_the_failing_check():
    # q = 1e-8 under T5: W0 is unreachable and gets probability exactly 0
    inst = ProblemInstance(
        profile=ResolutionProfile((6, 15, 40), (0.7, 0.2, 1.0)),
        econ=EconomicParams(r=20.0, c_w=2.0, c_c=5.0, tau_w=3),
        traffic=TrafficParams(q=1e-8, a=1e-6),
    )
    pol = uniform_policy("T5", 3)
    ev = evaluate_policy(inst, pol)
    assert ev.pi[W0] == 0.0
    assert ev.R == pytest.approx(average_reward(inst, pol), rel=1e-12, abs=0.0)

    # rows that do not sum to one admit no exact stationary vector
    P = build_chain(inst, pol).P
    P[I0, I0] = 0.5
    with pytest.raises(EvaluationError, match=r"residual [0-9.e-]+ exceeds 1e-10"):
        stationary_distribution(P)


def test_stationary_keeps_a_small_exit_probability_exact():
    # I0 is left with probability q and, under T5, entered at a cycle's end
    # with probability 1 - q; its visits are that inflow over q, not over
    # 1 - P[I0, I0]
    q = 1e-12
    inst = ProblemInstance(
        profile=ResolutionProfile((6, 15, 40), (0.7, 0.2, 1.0)),
        econ=EconomicParams(r=20.0, c_w=2.0, c_c=5.0, tau_w=3),
        traffic=TrafficParams(q=q, a=0.5),
    )
    pi = stationary_distribution(build_chain(inst, uniform_policy("T5", 3)).P)
    assert pi[I1] / pi[I0] == pytest.approx(q / (1 - q), rel=1e-15, abs=0.0)


INSIDE = 1e-3


@pytest.mark.parametrize("q,a", [(1e-8, 0.5), (1.0, 1e-8), (1e-8, 1e-8)])
@pytest.mark.parametrize("S", [2, 3, 4])
def test_chain_matches_renewal_at_traffic_edges(S, q, a):
    # abs=0: R is near 1e-7 at q = 1e-8, where approx's default abs=1e-12
    # would allow a relative error of 1e-5.  T1 and H2 transfer warm, so at
    # a = 1e-8 W0 holds nearly all the mass and G spans about R/a; the
    # substitution keeps the small differences of G to round-off all the same.
    for seed in range(5):
        inst = dataclasses.replace(random_instance(seed, S), traffic=TrafficParams(q=q, a=a))
        for rule in ("T5", "H4", "C", "T1", "H2"):
            pol = uniform_policy(rule, S)
            ev = evaluate_policy(inst, pol)
            assert ev.R == pytest.approx(average_reward(inst, pol), rel=1e-12, abs=0.0), (seed, rule)
            assert ev.G[I1] - ev.G[I0] == pytest.approx(ev.R / q, rel=1e-12, abs=0.0), (seed, rule)
            assert ev.G[W1] - ev.G[W0] == pytest.approx(ev.R / a, rel=1e-12, abs=0.0), (seed, rule)


def test_idle_gap_is_exact_where_g_spans_r_over_a():
    # G spans about R/a here, and a dense solve of the relative values keeps
    # this gap only to 1.2e-8 relative (3.5924176531e-07)
    inst = dataclasses.replace(random_instance(0, 2), traffic=TrafficParams(q=1.0, a=1e-8))
    ev = evaluate_policy(inst, uniform_policy("T1", 2))
    assert ev.G[I1] - ev.G[I0] == ev.R / 1.0
    assert ev.G[I1] == pytest.approx(3.5924176951e-07, rel=1e-10, abs=0.0)
    assert np.abs(ev.G).max() > 1e7 * ev.R   # G(W0) is about -R/a


def test_warm_transfers_at_small_a_keep_the_chain_to_round_off():
    # pi(W0) is nearly 1 here; a dense LU solve of the balance equations misses R by 3.4e-10
    inst = ProblemInstance(
        profile=ResolutionProfile((15, 1, 15, 1), (0.488, 0.733, 0.1, 1.0)),
        econ=EconomicParams(r=20.0, c_w=2.0, c_c=5.0, tau_w=3),
        traffic=TrafficParams(q=0.838, a=1e-8),
    )
    pol = policy_from_names(["T1", "T2", "H3"])
    ev = evaluate_policy(inst, pol)
    assert ev.pi[W0] > 1 - 1e-6
    assert ev.R == pytest.approx(average_reward(inst, pol), rel=1e-12, abs=0.0)


def test_evaluation_export(saturated_two_attempt):
    ev = evaluate_policy(saturated_two_attempt, uniform_policy("T5", 2))
    data = json.loads(json.dumps(ev.to_json_dict()))
    assert data["R"] == pytest.approx(18.5 / 6.0)
    assert set(data["G"]) == set(ev.labels)
    rows = ev.state_rows()
    assert [r[0] for r in rows[:4]] == ["I0", "I1", "W0", "W1"]
    assert rows[4][0] == "C(1,0,0)"


def random_actions(seed: int, S: int, n: int) -> np.ndarray:
    """n lanes of (S-1, 4) actions, every action vector allowed."""
    return np.random.default_rng(seed).integers(0, 3, size=(n, S - 1, 4)).astype(np.int8)


def test_lane_evaluator_checks_every_q_and_its_terms_equal_each_instance_alone():
    inst = random_instance(0, 3)
    acts = random_actions(0, 3, 3)
    with pytest.raises(ValueError, match="c_c must exceed c_w"):
        LaneEvaluator(dataclasses.replace(inst, econ=dataclasses.replace(inst.econ, c_c=inst.econ.c_w)), acts)
    for bad in ([0.5, 0.0], [0.5, 1.5], [np.nan, 0.5]):
        with pytest.raises(ValueError, match=r"q must lie in \(0, 1\]"):
            LaneEvaluator(inst, acts[:2]).at(np.array(bad))
    # the instance's own q plays no part; each lane equals its instance alone, bit for bit
    q = np.array([1e-8, 0.3, 1.0])
    lanes = LaneEvaluator(inst, acts).at(q)
    for pick in (np.arange(3), np.array([2, 0])):
        terms = lanes.terms(pick)
        for j, i in enumerate(pick):
            for lane, one in zip(terms, renewal_terms([inst.with_q(q[i])])):
                assert lane[..., j].tobytes() == one[..., 0].tobytes()


@pytest.mark.parametrize("S", [1, 2, 3, 4])
def test_lane_evaluator_passes_equal_one_lane_evaluations(S):
    """Passes that change some lanes' actions and drop lanes give each lane
    the bits of a one-lane `LaneEvaluator` of that lane alone and of the route that
    builds every term from scratch."""
    inst, rng = random_instance(S, S), np.random.default_rng(S)
    acts = random_actions(S, S, 12)
    lanes, ev = np.arange(12), LaneEvaluator(inst, acts)
    for step in range(4):
        q = rng.uniform(1e-6, 1.0, lanes.size)
        ev.at(q)
        change = rng.permutation(lanes.size)[:3]
        acts[lanes[change]] = random_actions(step, S, change.size)
        ev.set_actions(change, acts[lanes[change]])
        R, perf = ev.measures()
        assert np.array_equal(ev.actions, acts[lanes])
        R_0, perf_0 = lane_performance(lane_terms(inst, q), measure_rows(inst), q, acts[lanes])
        assert R.tobytes() == R_0.tobytes()
        for i, lane in enumerate(lanes):
            R_1, perf_1 = LaneEvaluator(inst, acts[lane:lane + 1]).at(q[i:i + 1]).measures()
            assert R[i].tobytes() == R_1.tobytes()
            for field in PERF_FIELDS:
                assert getattr(perf, field)[i].tobytes() == getattr(perf_1, field).tobytes(), field
                assert getattr(perf, field)[i].tobytes() == getattr(perf_0, field)[i].tobytes(), field
        stay = np.flatnonzero(rng.random(lanes.size) < 0.7)
        lanes = lanes[stay]
        ev.keep(stay)


PERF_FIELDS = ("throughput", "p_admit", "p_resolve", "p_warm", "p_cold", "t_channel")


EDGES = st.sampled_from([1e-8, INSIDE, 1.0]) | st.floats(1e-8, 1.0)
INTERIOR = st.sampled_from([INSIDE, 1.0]) | st.floats(INSIDE, 1.0)


def cases(traffic):
    """An instance with S = 1..8 and q, a from `traffic`, with a policy's rule labels."""
    return st.integers(1, 8).flatmap(lambda S: st.tuples(
        instances(S, traffic=traffic),
        st.lists(st.sampled_from(sorted(rules_table())), min_size=S - 1, max_size=S - 1)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(cases(EDGES))
def test_cycle_measures_match_chain(case):
    """Closed-form renewal measures against the chain's PerformanceMeasures,
    to 1e-12 relative over the whole box, q and a down to 1e-8.

    Over 3,000 examples of this strategy the worst was 2.1e-14 on R and
    1.1e-15 on the other measures; an outcome probability that is exactly 0
    by the recursion is exactly 0 on the chain too.
    """
    inst, names = case
    pol = policy_from_names(names)
    ev = evaluate_policy(inst, pol)
    lane = LaneEvaluator(inst, policy_actions(pol).reshape(1, -1, 4))
    R, perf = lane.at(np.array([inst.traffic.q])).measures()
    assert R[0] == pytest.approx(ev.R, rel=1e-12, abs=0.0)
    for field in PERF_FIELDS:
        assert getattr(perf, field)[0] == pytest.approx(getattr(ev.perf, field), rel=1e-12, abs=0.0), field


@settings(derandomize=True, max_examples=150, deadline=None)
@given(cases(EDGES))
def test_idle_and_holding_value_gaps(case):
    """G(I1) - G(I0) = R/q and G(W1) - G(W0) = R/a over the whole box, q and
    a down to 1e-8, where G spans up to R/q or R/a."""
    inst, names = case
    ev = evaluate_policy(inst, policy_from_names(names))
    q, a = inst.traffic.q, inst.traffic.a
    assert ev.G[I1] - ev.G[I0] == pytest.approx(ev.R / q, rel=1e-12, abs=0.0)
    assert ev.G[W1] - ev.G[W0] == pytest.approx(ev.R / a, rel=1e-12, abs=0.0)


@pytest.mark.skipif(not EXTENDED, reason="the GTH reference needs an extended long double")
@settings(derandomize=True, max_examples=150, deadline=None)
@given(cases(EDGES).filter(lambda case: case[0].traffic.q < 1.0))
def test_stationary_matches_long_double_gth(case):
    """Substitution in cycle order against state reduction on the whole
    chain in long double, for q < 1, where every state reaches I0: every
    probability that float64 holds to full precision is right to round-off."""
    inst, names = case
    P = build_chain(inst, policy_from_names(names)).P
    pi = stationary_distribution(P)
    ref = gth_stationary(P.astype(np.longdouble))
    normal = ref > 1e-290
    assert np.all(np.abs(pi - ref)[normal] <= 1e-14 * ref[normal])
    assert np.all(pi[~normal] < 1e-280)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(cases(INTERIOR))
def test_relative_values_match_the_dense_solve(case):
    """Substitution against the bordered LU solve where G spans little."""
    inst, names = case
    pol = policy_from_names(names)
    ev = evaluate_policy(inst, pol)
    R, G = lu_relative_values(build_chain(inst, pol))
    scale = max(1.0, float(np.abs(G).max()))
    assert R == pytest.approx(ev.R, rel=1e-9, abs=0.0)
    np.testing.assert_allclose(ev.G, G, rtol=0.0, atol=1e-9 * scale)


def _mixed(rng, shape):
    """Values over 24 decades of both signs, a fifth of them zero."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 12, size=shape)
    return np.where(rng.random(shape) < 0.2, 0.0, x)


@pytest.mark.parametrize("nested", [False, True])
def test_renewal_step_sums_the_states_in_order(nested):
    rng = np.random.default_rng(22)
    N = 500
    head, fail, trans = _mixed(rng, (2, N)), _mixed(rng, (4, N)), _mixed(rng, (2, 4, N))
    if nested:   # as `solve._nested_pass` calls it
        head, fail, trans = head[:, None], fail[:, None], trans[:, :, None]
        cont, nxt = _MEMBER[..., None], _mixed(rng, (2, 16, N))
    else:        # as a policy pass calls it
        cont, nxt = rng.random((4, N)) < 0.5, _mixed(rng, (2, N))
    got = renewal_step(head, fail, cont, nxt, trans)
    want = head + np.add.accumulate(np.where(cont, nxt[:, None], trans) * fail, axis=1)[:, 3]
    assert got.shape == want.shape == ((2, 16, N) if nested else (2, N))
    assert np.array_equal(got, want)
