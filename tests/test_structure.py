import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatekeeper import (
    EconomicParams,
    GeneratorConfig,
    ProblemInstance,
    ResolutionProfile,
    StationaryPolicy,
    TrafficParams,
    check_wspt,
    classify_case,
    compute_thresholds,
    enumerate_policies,
    evaluate_policy,
    is_threshold_policy,
    run_heuristic_study,
    search_threshold_policies,
    solve_average_reward,
    uniform_policy,
)
from gatekeeper import structure
from gatekeeper.evaluate import I0, I1, W0, W1, block_terms, renewal_terms
from gatekeeper.model import generate_block, policy_from_actions
from gatekeeper.solve import dinkelbach, optimal_policy
from gatekeeper.structure import _certified, _study_gaps, check_wspt_block

from conftest import instances, random_instance
from structure_oracle import study_gaps, wspt_loop
from threshold_grid import threshold_grid

# The bench's `study` blocks at seed 0 and criterion 7's, as (S, first seed, lanes)
BENCH_BLOCKS = [(3, 0, 300), (4, 300, 300), (5, 600, 300)]
CRITERION_7_BLOCKS = [(3, 70_000, 10_000), (4, 80_000, 10_000), (5, 90_000, 10_000)]


def study_block(S, seed_lo, n):
    return block_terms(*generate_block(GeneratorConfig(seed=0, S=S), range(seed_lo, seed_lo + n)))


def is_certified(inst):
    return bool(_certified(dinkelbach(renewal_terms([inst]))[1])[0])


def reference_instance(q=0.5, a=0.8, tau_w=3, c_w=2.0, c_c=5.0):
    return ProblemInstance(
        profile=ResolutionProfile((4, 6), (0.8, 1.0)),
        econ=EconomicParams(r=20.0, c_w=c_w, c_c=c_c, tau_w=tau_w),
        traffic=TrafficParams(q=q, a=a),
    )


class TestThresholds:
    def test_closed_form_values(self):
        th = compute_thresholds(reference_instance())
        assert th.value(1, 0) == pytest.approx(3 / 5.25, abs=1e-12)
        assert th.value(1, 1) == pytest.approx(3 / 4, abs=1e-12)
        assert th.value(0, 0) == pytest.approx(3 / 3.25, abs=1e-12)
        assert th.value(0, 1) == pytest.approx(3 / 2, abs=1e-12)

    def test_ordering_flips_with_traffic_balance(self):
        # (1,0) minimal and (0,1) maximal always; middle pair follows 1/q vs 1/a
        th = compute_thresholds(reference_instance(q=0.5, a=0.8))   # 1/q > 1/a
        assert th.ordering == ((1, 0), (1, 1), (0, 0), (0, 1))
        th2 = compute_thresholds(reference_instance(q=0.8, a=0.5))  # 1/q < 1/a
        assert th2.ordering == ((1, 0), (0, 0), (1, 1), (0, 1))

    def test_costless_handoff_state_never_prefers_cold(self):
        th = compute_thresholds(reference_instance(tau_w=1))
        assert th.value(0, 1) == math.inf
        cls = classify_case(reference_instance(tau_w=1), r_star=1e9)
        assert cls.mode(0, 1) == "warm"

    def test_zero_savings_prefer_cold_everywhere(self):
        inst = reference_instance(c_w=5.0, c_c=5.0 + 1e-12)
        th = compute_thresholds(inst)
        assert all(v == pytest.approx(0.0, abs=1e-10) for v in th.values)
        cls = classify_case(inst, r_star=0.5)
        assert set(cls.preferred_mode) == {"cold"}
        assert cls.case_label == "5"


class TestClassification:
    def test_case_two(self):
        cls = classify_case(reference_instance(), 0.6)
        assert cls.case_label == "2"
        assert cls.preferred_mode == ("warm", "cold", "warm", "warm")
        assert cls.admissible == ("C", "H1", "H2", "T2")

    def test_case_five(self):
        cls = classify_case(reference_instance(), 2.0)
        assert cls.case_label == "5"
        assert cls.admissible == ("C", "H4", "T5")

    def test_case_one(self):
        cls = classify_case(reference_instance(), 0.0)
        assert cls.case_label == "1"
        assert cls.admissible == ("C", "H1", "T1")

    def test_middle_case_labels_by_surviving_transfer_rule(self):
        # 1/q > 1/a: middle range prefers cold at (1,1) -> T3c survives
        cls = classify_case(reference_instance(q=0.5, a=0.8), 0.8)
        assert cls.case_label == "3c"
        assert cls.admissible == ("C", "H3", "H4", "T3c")
        # mirrored traffic: cold at (0,0) first -> T3w survives
        inst2 = reference_instance(q=0.8, a=0.5)
        th2 = compute_thresholds(inst2)
        mid = 0.5 * (sorted(th2.values)[1] + sorted(th2.values)[2])
        cls2 = classify_case(inst2, mid)
        assert cls2.case_label == "3w"
        assert cls2.admissible == ("C", "H1", "H2", "T3w")

    def test_admissible_composition(self):
        # always the continue rule, one or two hybrids, exactly one transfer rule
        for seed in range(60):
            inst = random_instance(seed, 2)
            r_star = seed * 0.05
            cls = classify_case(inst, r_star)
            assert len(cls.admissible) in (3, 4)
            assert "C" in cls.admissible
            assert sum(1 for lbl in cls.admissible if lbl.startswith("T")) == 1
            assert sum(1 for lbl in cls.admissible if lbl.startswith("H")) in (1, 2)

    def test_rejects_negative_reward_rate(self):
        with pytest.raises(ValueError):
            classify_case(reference_instance(), -0.1)

    def test_threshold_test_agrees_with_bias_values(self):
        # cold preferred by threshold comparison iff G(I_Q)-G(W_A) >= c_c-c_w
        from conftest import random_policy

        for seed in range(80):
            inst = random_instance(seed + 20, 2 + seed % 3)
            ev = evaluate_policy(inst, random_policy(seed, inst.S))
            th = compute_thresholds(inst)
            savings = inst.econ.c_c - inst.econ.c_w
            for Q in (0, 1):
                for A in (0, 1):
                    bias_gap = ev.G[I1 if Q else I0] - ev.G[W1 if A else W0]
                    lhs = bias_gap - savings
                    rhs = ev.R - th.value(Q, A)
                    if abs(lhs) > 1e-9 or abs(rhs) > 1e-9:
                        assert (lhs >= -1e-9) == (rhs >= -1e-9)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda S: instances(S, traffic=st.sampled_from([1e-8, 1e-3, 1.0]) | st.floats(1e-8, 1.0))))
def test_preferred_mode_is_the_chains_own_comparison(inst):
    """At R* the threshold test prefers cold in (Q, A) iff the optimal
    chain's cold value (r - c_c) + G(I_Q) is at least its warm value
    (r - c_w) + G(W_A), over the whole box, q and a down to 1e-8; values
    within 1e-9 relative of each other are ties and are skipped."""
    _, ev = solve_average_reward(inst)
    cls = classify_case(inst, ev.R)
    r, c_w, c_c = inst.econ.r, inst.econ.c_w, inst.econ.c_c
    for Q, A in ((0, 0), (1, 0), (0, 1), (1, 1)):
        cold, warm = r - c_c + ev.G[I1 if Q else I0], r - c_w + ev.G[W1 if A else W0]
        if abs(cold - warm) > 1e-9 * max(abs(cold), abs(warm)):
            assert cls.mode(Q, A) == ("cold" if cold > warm else "warm"), (Q, A)


class TestWspt:
    def test_holds_on_gently_rising_ratios(self):
        inst = ProblemInstance(
            profile=ResolutionProfile((4, 6), (0.8, 1.0)),
            econ=EconomicParams(r=20.0, c_w=2.0, c_c=5.0, tau_w=3),
            traffic=TrafficParams(q=0.9, a=0.5),
        )
        res = check_wspt(inst)
        assert res.status == "holds-a"
        assert res.first_violation is None

    def test_fails_on_sharply_rising_ratio(self):
        inst = ProblemInstance(
            profile=ResolutionProfile((4, 12), (0.8, 1.0)),
            econ=EconomicParams(r=20.0, c_w=2.0, c_c=5.0, tau_w=3),
            traffic=TrafficParams(q=0.9, a=0.5),
        )
        res = check_wspt(inst)
        assert res.status == "fails"
        assert res.first_violation == 2

    def test_single_attempt_vacuous(self, single_attempt):
        assert check_wspt(single_attempt).holds

    def test_branch_selection(self):
        a_side = check_wspt(reference_instance(q=0.9, a=0.3))
        q_side = check_wspt(reference_instance(q=0.3, a=0.9))
        assert a_side.condition == "a"
        assert q_side.condition == "q"

    def test_block_form_equals_the_per_instance_loop_on_criterion_6_draws(self):
        # Criterion 6 draws seed 60_000 + i at S = 3 + i % 3 until its 500th
        # certified instance, lane 66,063; every lane it draws, by three blocks.
        n = 66_064
        holds = 0
        for k in range(3):
            b = generate_block(GeneratorConfig(seed=0, S=3 + k), range(60_000 + k, 60_000 + n, 3))
            got = check_wspt_block(b)
            lanes = zip(b.tau.T.tolist(), b.rho.T.tolist(), b.q.tolist(), b.a.tolist())
            want = [wspt_loop(*lane) for lane in lanes]
            assert [(c, bool(h), int(f) or None) for c, h, f in zip(*got)] == want
            holds += int(got.holds.sum())
            if k == (n - 1) % 3:
                assert got.holds[-1]
        assert holds == 500


class TestThresholdSearch:
    def test_never_beats_unrestricted_optimum(self):
        for seed in range(40):
            inst = random_instance(seed + 60, 2 + seed % 3)
            pol, r_thr = search_threshold_policies(inst)
            assert is_threshold_policy(pol)
            _, ev = solve_average_reward(inst)
            assert r_thr <= ev.R + 1e-9 * max(1, ev.R)

    def test_exact_under_certificate(self):
        matched = 0
        seed = 0
        while matched < 25:
            inst = random_instance(9000 + seed, 3)
            seed += 1
            if not check_wspt(inst).holds:
                continue
            _, r_thr = search_threshold_policies(inst)
            _, ev = solve_average_reward(inst)
            assert r_thr == pytest.approx(ev.R, abs=1e-9 * max(1, ev.R))
            matched += 1

    def test_two_attempt_search_is_small(self):
        # S=2: at most 16 index vectors x 16 mode vectors, deduplicated
        acts, _, _ = threshold_grid(2)
        assert acts.shape[0] <= 256

    def test_large_S_search_stays_below_the_optimum(self):
        # S = 20: the exhaustive threshold grid would hold 39^4 = 2.3e6 policies
        for seed in range(5):
            inst = random_instance(300 + seed, 20)
            pol, r_thr = search_threshold_policies(inst)
            assert is_threshold_policy(pol)
            assert r_thr <= optimal_policy(inst)[1] * (1 + 1e-9)

    def test_exact_under_certificate_at_ten_attempts(self):
        # the optimum continues through attempt 2 when Q = 0, then transfers cold
        inst = ProblemInstance(
            profile=ResolutionProfile((1, 1, 1, 2, 2, 2, 3, 3, 3, 5), (0.7,) * 9 + (1.0,)),
            econ=EconomicParams(r=50.0, c_w=5.0, c_c=15.0, tau_w=3),
            traffic=TrafficParams(q=0.5, a=0.4),
        )
        assert check_wspt(inst).holds
        pol, r_thr = search_threshold_policies(inst)
        assert [rule.letters for rule in pol.rules[:3]] == ["ncnc", "ncnc", "cccc"]
        _, ev = solve_average_reward(inst)
        assert r_thr == pytest.approx(ev.R, rel=1e-9, abs=0.0)

    def test_single_attempt(self, single_attempt):
        pol, r = search_threshold_policies(single_attempt)
        assert pol.n_decisions == 0
        assert r == pytest.approx(10.0, abs=1e-9)


class TestStudy:
    def test_small_study_report(self):
        report = run_heuristic_study(GeneratorConfig(seed=77), n_instances=60, S_list=[2, 3])
        assert [row.S for row in report.rows] == [2, 3]
        for row in report.rows:
            assert row.n_instances == 60
            assert 0.0 <= row.frac_threshold_opt <= 1.0
            assert row.max_gap_pct >= row.mean_gap_pct >= 0.0
        r2 = report.row_for(2)
        # S=2 policies are trivially threshold-shaped
        assert r2.frac_threshold_opt == 1.0
        assert r2.max_gap_pct == 0.0

    def test_seed_ranges_disjoint(self):
        report = run_heuristic_study(GeneratorConfig(seed=5), n_instances=10, S_list=[3, 4])
        first, second = report.rows
        assert first.seed_hi < second.seed_lo

    def test_certified_instance_scores_perfectly(self):
        seed = 0
        while True:
            inst = random_instance(4000 + seed, 3)
            if check_wspt(inst).holds:
                break
            seed += 1
        _, r_thr = search_threshold_policies(inst)
        best = enumerate_policies(inst, "table-1")[0][1]
        assert r_thr == pytest.approx(best, abs=1e-9 * max(1, best))

    def test_rejects_empty_study(self):
        with pytest.raises(ValueError):
            run_heuristic_study(GeneratorConfig(seed=1), 0, [3])

    def test_seed_77010_counterexample(self):
        # The worst S=3 draw of criterion 7's seed block: transferring early and
        # continuing late (H4 then C) beats every threshold policy by 6.457 %.
        # Chain evaluation of all 81^2 rule pairs is independent of the renewal
        # DP behind the threshold search and the study.
        from gatekeeper.model import all_decision_rules

        def flat(actions):
            return tuple(int(v) for v in np.ravel(actions))

        inst = random_instance(77010, 3)
        best, best_thr = (-math.inf, None), (-math.inf, None)
        threshold_acts = set()
        for r1 in all_decision_rules():
            for r2 in all_decision_rules():
                pol = StationaryPolicy((r1, r2))
                cand = (evaluate_policy(inst, pol).R, pol)
                best = max(best, cand, key=lambda c: c[0])
                if is_threshold_policy(pol):
                    threshold_acts.add(flat([r1.actions, r2.actions]))
                    best_thr = max(best_thr, cand, key=lambda c: c[0])
        assert best[1].names == ("H4", "C")
        assert best_thr[1].names == ("T5", "T5")
        gap = (best[0] - best_thr[0]) / best[0]
        assert 100 * gap == pytest.approx(6.45693929002, rel=1e-9)

        # the oracle grid holds every threshold policy once and nothing else
        grid = [flat(acts) for acts in threshold_grid(3)[0]]
        assert len(grid) == len(threshold_acts) == 625
        assert set(grid) == threshold_acts

        pol, r_thr = search_threshold_policies(inst)
        assert pol == best_thr[1] == uniform_policy("T5", 3)
        assert r_thr == pytest.approx(best_thr[0], rel=1e-12)
        assert not is_certified(inst)
        study_gap, = _study_gaps(renewal_terms([inst]))
        assert study_gap == pytest.approx(gap, rel=1e-12)

    def test_worst_known_gap_inside_the_generator_box(self):
        # A cheap-expensive-cheap profile inside the default generator box
        # (found by local search) where the threshold heuristic loses 12.916 %:
        # the optimum (H2 then C) transfers early and continues late.  Chain
        # evaluation of all 81^2 rule pairs, as for seed 77010.
        from gatekeeper.model import all_decision_rules

        inst = ProblemInstance(
            profile=ResolutionProfile((1, 4, 1), (0.1, 0.1, 1.0)),
            econ=EconomicParams(r=23.3903, c_w=8.771, c_c=20.3966, tau_w=1),
            traffic=TrafficParams(q=0.5038, a=0.3113),
        )
        box, econ, traffic = GeneratorConfig(seed=0), inst.econ, inst.traffic
        drawn = [(t, box.tau_range) for t in inst.profile.tau] + [
            (p, box.rho_range) for p in inst.profile.rho[:-1]] + [
            (traffic.q, box.q_range), (traffic.a, box.a_range), (econ.r, box.r_range),
            (econ.c_w, box.c_w_range), (econ.c_c / econ.c_w, box.cost_ratio_range),
            (econ.tau_w, box.tau_w_range)]
        assert all(lo <= v <= hi for v, (lo, hi) in drawn)
        best, best_thr = (-math.inf, None), (-math.inf, None)
        for r1 in all_decision_rules():
            for r2 in all_decision_rules():
                pol = StationaryPolicy((r1, r2))
                cand = (evaluate_policy(inst, pol).R, pol)
                best = max(best, cand, key=lambda c: c[0])
                if is_threshold_policy(pol):
                    best_thr = max(best_thr, cand, key=lambda c: c[0])
        assert best[1].names == ("H2", "C")
        assert best[0] == pytest.approx(4.203606, abs=1e-6)
        assert best_thr[1].names == ("H1", "H1")
        assert best_thr[0] == pytest.approx(3.660667, abs=1e-6)
        gap = (best[0] - best_thr[0]) / best[0]
        assert 100 * gap == pytest.approx(12.916, abs=1e-3)
        assert not check_wspt(inst).holds

        pol, r_thr = search_threshold_policies(inst)
        assert pol == best_thr[1]
        assert r_thr == pytest.approx(best_thr[0], rel=1e-12)
        assert not is_certified(inst)
        assert _study_gaps(renewal_terms([inst]))[0] == pytest.approx(gap, rel=1e-12)

    @pytest.mark.parametrize("S, seed_lo, n", [(S, 0, 400) for S in range(1, 9)]
                             + BENCH_BLOCKS + CRITERION_7_BLOCKS)
    def test_study_gaps_equal_the_two_search_oracle_bits(self, S, seed_lo, n):
        terms = study_block(S, seed_lo, n)
        assert np.array_equal(_study_gaps(terms).view(np.uint64), study_gaps(terms).view(np.uint64))

    def test_breaks_at_unreached_attempts_are_certified(self):
        # Lanes of the bench's S=3 block whose optimal actions continue after a
        # transfer, but only at attempt 2 after every state transferred at
        # attempt 1, so no call reaches it.  Filling the unreached attempt with
        # each state's transfer mode gives a threshold policy whose chain
        # evaluation is the optimum.
        terms = study_block(*BENCH_BLOCKS[0])
        r_opt, acts = dinkelbach(terms)
        shaped = np.array([is_threshold_policy(policy_from_actions(a.tolist())) for a in acts])
        certified = _certified(acts)
        assert not (shaped & ~certified).any()
        lanes = np.flatnonzero(~shaped & certified)
        assert len(lanes) == 54 and (~certified).sum() == 14
        assert (study_gaps(terms)[lanes] == 0.0).all()
        b = generate_block(GeneratorConfig(seed=0, S=3), range(300))
        for i in lanes:
            assert (acts[i, 0] != 0).all()   # attempt 2 is unreached
            pol = policy_from_actions([acts[i, 0].tolist()] * 2)
            assert is_threshold_policy(pol)
            assert evaluate_policy(b.instance(i), pol).R == pytest.approx(r_opt[i], rel=1e-12)

    def test_only_uncertified_lanes_reach_the_nested_search(self, monkeypatch):
        # At S = 1 and 2 no attempt follows a decision, so every lane is
        # certified and the nested search gets a block of no lanes.
        sent = {}   # S -> lanes sent to the nested search

        def spy(terms, nested=False):
            if nested:
                sent[len(terms.head)] = len(terms.r_never)
            return dinkelbach(terms, nested)

        monkeypatch.setattr(structure, "dinkelbach", spy)
        report = run_heuristic_study(GeneratorConfig(seed=11), 200, [1, 2, 8])
        monkeypatch.undo()
        assert sent[1] == sent[2] == 0 < sent[8]
        for row in report.rows:
            gaps = study_gaps(study_block(row.S, row.seed_lo, 200))
            assert sent.get(row.S, 0) == np.count_nonzero(gaps)
            assert row.frac_threshold_opt == np.count_nonzero(gaps == 0.0) / 200
            assert row.max_gap_pct == 100.0 * gaps.max()
        assert report.row_for(1).max_gap_pct == report.row_for(2).max_gap_pct == 0.0
