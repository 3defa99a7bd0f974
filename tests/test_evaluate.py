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
    average_reward_batch,
    c_index,
    cycle_performance,
    lane_terms,
    policy_actions,
    renewal_terms,
    stationary_distribution,
)

from conftest import instances, random_instance, random_policy


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
    with pytest.raises(EvaluationError, match=r"residual [0-9.e-]+ exceeds 1e-10"):
        stationary_distribution(np.array([[0.5, 0.2], [0.3, 0.7]]))


def test_stationary_keeps_a_small_exit_probability_exact():
    # the balance matrix takes -q from the off-diagonal row sum, not (1 - q) - 1
    q = 1e-12
    pi = stationary_distribution(np.array([[1 - q, q], [1.0, 0.0]]))
    assert pi == pytest.approx([1 / (1 + q), q / (1 + q)], rel=1e-15, abs=0.0)


def test_two_closed_classes_make_a_singular_balance_matrix():
    with pytest.raises(EvaluationError, match="singular balance matrix"):
        stationary_distribution(np.eye(2))


@pytest.mark.parametrize("q,a", [(1e-8, 0.5), (1.0, 1e-8), (1e-8, 1e-8)])
@pytest.mark.parametrize("S", [2, 3, 4])
def test_chain_matches_renewal_at_traffic_edges(S, q, a):
    # abs=0: R is near 1e-7 at q = 1e-8, where approx's default abs=1e-12
    # would allow a relative error of 1e-5.  G(W1) - G(W0) = R/a is not
    # checked: at q = 1e-8 it is a difference of values near R/q.
    for seed in range(5):
        inst = dataclasses.replace(random_instance(seed, S), traffic=TrafficParams(q=q, a=a))
        for rule in ("T5", "H4", "C"):
            pol = uniform_policy(rule, S)
            ev = evaluate_policy(inst, pol)
            assert ev.R == pytest.approx(average_reward(inst, pol), rel=1e-12, abs=0.0), (seed, rule)
            assert ev.G[I1] - ev.G[I0] == pytest.approx(ev.R / q, rel=1e-12, abs=0.0), (seed, rule)


def test_evaluation_export(saturated_two_attempt):
    ev = evaluate_policy(saturated_two_attempt, uniform_policy("T5", 2))
    data = json.loads(json.dumps(ev.to_json_dict()))
    assert data["R"] == pytest.approx(18.5 / 6.0)
    assert set(data["G"]) == set(ev.labels)
    rows = ev.state_rows()
    assert [r[0] for r in rows[:4]] == ["I0", "I1", "W0", "W1"]
    assert rows[4][0] == "C(1,0,0)"


def test_lane_terms_check_the_instance_and_every_q():
    inst = random_instance(0, 3)
    bad = dataclasses.replace(inst, econ=dataclasses.replace(inst.econ, c_c=inst.econ.c_w))
    with pytest.raises(ValueError, match="c_c must exceed c_w"):
        lane_terms(bad, np.array([0.5]))
    with pytest.raises(ValueError, match=r"q must lie in \(0, 1\]"):
        lane_terms(inst, np.array([0.5, 0.0]))
    # the instance's own q plays no part; each lane equals its instance alone, bit for bit
    q = np.array([1e-8, 0.3, 1.0])
    lanes = lane_terms(inst.with_q(0.0), q)
    for i, q_i in enumerate(q):
        for lane, one in zip(lanes, renewal_terms([inst.with_q(q_i)])):
            assert np.array_equal(lane[..., i], one[..., 0])


INSIDE, EDGE_REL = 1e-3, 1e-7
PERF_FIELDS = ("throughput", "p_admit", "p_resolve", "p_warm", "p_cold", "t_channel")


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(1, 8).flatmap(lambda S: st.tuples(
    instances(S, traffic=st.sampled_from([1e-8, INSIDE, 1.0]) | st.floats(1e-8, 1.0)),
    st.lists(st.sampled_from(sorted(rules_table())), min_size=S - 1, max_size=S - 1))))
def test_cycle_measures_match_chain(case):
    """Closed-form renewal measures against the chain's PerformanceMeasures.

    For q and a in [1e-3, 1] they agree to 1e-12 relative (2.8e-13 at most
    over 3,000 examples of this strategy).  Below that the chain loses digits: its t_channel
    is mean_dur - pi(I0) over pi(I1), which cancels at small q, and at small
    a pi(W0) takes nearly all mass.  Measured there over the same examples:
    up to 2.7e-8 on p_warm, 1.1e-8 on t_channel and 4.2e-10 on R, so the edge
    bound is 1e-7.  Outcome probabilities that are exactly 0 by the
    recursion carry chain round-off up to 4e-17, hence abs=1e-15 on those
    three.
    """
    inst, names = case
    pol = policy_from_names(names)
    ev = evaluate_policy(inst, pol)
    R, perf = cycle_performance(inst, np.array([inst.traffic.q]), policy_actions(pol).reshape(1, -1, 4))
    rel = 1e-12 if min(inst.traffic.q, inst.traffic.a) >= INSIDE else EDGE_REL
    assert R[0] == pytest.approx(ev.R, rel=rel, abs=0.0)
    for field in PERF_FIELDS:
        floor = 1e-15 if field in ("p_resolve", "p_warm", "p_cold") else 0.0
        assert getattr(perf, field)[0] == pytest.approx(getattr(ev.perf, field), rel=rel, abs=floor), field
