import dataclasses

import numpy as np
import pytest

from gatekeeper import (
    EconomicParams,
    EnumerationCapError,
    ProblemInstance,
    ResolutionProfile,
    TrafficParams,
    backward_induction,
    dominance_admissible,
    enumerate_policies,
    solve_average_reward,
    stationary_terminals,
    verify_stationarity,
    zero_terminals,
)
from gatekeeper.evaluate import I0, I1, W0, W1, average_reward, state_labels
from gatekeeper.solve import FiniteHorizonSolution, optimal_policy

from conftest import random_instance
from horizon_loop import backward_induction_loop


def test_single_attempt_has_no_decisions(single_attempt):
    pol, ev = solve_average_reward(single_attempt)
    assert pol.n_decisions == 0
    q, tau1, r = single_attempt.traffic.q, single_attempt.profile.tau[0], single_attempt.econ.r
    assert ev.R == pytest.approx(r / (tau1 + (1 - q) / q), rel=1e-12)


def test_optimiser_matches_exhaustive_enumeration():
    cases = [(random_instance(seed, 2 + seed % 2), "all-81") for seed in range(60)]
    cases += [(random_instance(seed, S), "table-1") for S in (4, 5) for seed in range(10)]
    for inst, ruleset in cases:
        _, ev = solve_average_reward(inst)
        ranked = enumerate_policies(inst, ruleset=ruleset)
        assert ev.R == pytest.approx(ranked[0][1], abs=1e-9 * max(1, ev.R))

    # at q = 1e-6 the chain solve loses digits, so the renewal route is the
    # reference there; at q = 1 the chain route agrees to 1e-9
    for seed in range(10):
        for q in (1e-6, 1.0):
            for a in (1e-6, 1.0):
                inst = random_instance(seed, 3)
                inst = dataclasses.replace(inst, traffic=TrafficParams(q=q, a=a))
                ranked = enumerate_policies(inst, ruleset="all-81")
                if q == 1.0:
                    _, ev = solve_average_reward(inst)
                    assert ev.R == pytest.approx(ranked[0][1], abs=1e-9 * max(1, ev.R))
                    continue
                pol, R = optimal_policy(inst)
                assert R == pytest.approx(ranked[0][1], rel=1e-12)
                assert average_reward(inst, pol) == R


def test_optimum_lies_in_admissible_rules():
    for seed in range(40):
        inst = random_instance(seed + 500, 2 + seed % 2)
        best_pol, _ = enumerate_policies(inst, ruleset="all-81")[0]
        assert all(dominance_admissible(rule) for rule in best_pol.rules)


def test_warm_never_chosen_when_it_saves_nothing():
    # equal fees plus a long handoff make warm transfers weakly dominated
    inst = ProblemInstance(
        profile=ResolutionProfile((5, 8, 6), (0.4, 0.5, 1.0)),
        econ=EconomicParams(r=25.0, c_w=6.0, c_c=6.0 + 1e-9, tau_w=50),
        traffic=TrafficParams(q=0.6, a=0.5),
    )
    pol, _ = solve_average_reward(inst)
    letters = "".join(rule.letters for rule in pol.rules)
    assert "w" not in letters


class TestEnumerate:
    def test_counts(self, saturated_two_attempt, single_attempt):
        assert len(enumerate_policies(single_attempt, "all-81")) == 1
        assert len(enumerate_policies(saturated_two_attempt, "all-81")) == 81
        assert len(enumerate_policies(saturated_two_attempt, "table-1")) == 11

    def test_three_attempts_table_count(self):
        inst = random_instance(3, 3)
        assert len(enumerate_policies(inst, "table-1")) == 121

    def test_ranking_descending(self):
        inst = random_instance(8, 3)
        ranked = enumerate_policies(inst, "table-1")
        values = [r for _, r in ranked]
        assert values == sorted(values, reverse=True)

    def test_exact_ties_rank_by_rule_names(self):
        # rho_1 = 1: attempt 1 always resolves, so all 81 rules tie exactly
        inst = ProblemInstance(
            profile=ResolutionProfile((4, 9), (1.0, 1.0)),
            econ=EconomicParams(r=20.0, c_w=3.0, c_c=6.0, tau_w=2),
            traffic=TrafficParams(q=0.4, a=0.6),
        )
        ranked = enumerate_policies(inst, "all-81")
        assert len({R for _, R in ranked}) == 1
        names = [pol.names for pol, _ in ranked]
        assert len(names) == 81 and names == sorted(names)

    def test_cap_refusal_names_requirement(self):
        inst = random_instance(4, 4)
        with pytest.raises(EnumerationCapError, match="1331"):
            enumerate_policies(inst, "table-1", cap=1000)

    def test_unknown_ruleset(self, saturated_two_attempt):
        with pytest.raises(ValueError):
            enumerate_policies(saturated_two_attempt, "everything")


class TestStationaryTerminals:
    def test_terminal_value_identities(self):
        for seed in (0, 5, 9):
            inst = random_instance(seed, 3)
            pol, ev = solve_average_reward(inst)
            terms = stationary_terminals(ev)
            q, a = inst.traffic.q, inst.traffic.a
            assert terms.v_end[I1] - terms.v_end[I0] == pytest.approx(terms.r_ref / q, abs=1e-9)
            assert terms.v_end[W1] - terms.v_end[W0] == pytest.approx(terms.r_ref / a, abs=1e-9)

    def test_affine_extension_beyond_horizon(self):
        inst = random_instance(2, 2)
        pol, ev = solve_average_reward(inst)
        terms = stationary_terminals(ev)
        T = 50
        np.testing.assert_allclose(terms.value(T + 3, T), terms.v_end - 2 * terms.r_ref)
        np.testing.assert_allclose(terms.value(T + 1, T), terms.v_end)


class TestBackwardInduction:
    def test_values_affine_under_stationary_terminals(self):
        # V[t] = R*(T+1-t) + G at every epoch, not only at the boundary
        for seed in range(25):
            inst = random_instance(seed + 40, 2 + seed % 3)
            pol, ev = solve_average_reward(inst)
            T = 40
            sol = backward_induction([inst], T, [stationary_terminals(ev)])[0]
            for t in (1, 2, T // 2, T):
                expect = ev.R * (T + 1 - t) + ev.G
                np.testing.assert_allclose(sol.V[t], expect, atol=1e-8 * max(1, abs(ev.R) * T))

    def test_single_step_idle_recursion(self):
        inst = random_instance(12, 2)
        pol, ev = solve_average_reward(inst)
        terms = stationary_terminals(ev)
        sol = backward_induction([inst], 1, [terms])[0]
        q = inst.traffic.q
        expect = (1 - q) * terms.v_end[I0] + q * terms.v_end[I1]
        assert sol.V[1, I0] == pytest.approx(expect, rel=1e-12)

    def test_horizon_argmax_matches_stationary_policy(self):
        # at S = 20 (11^19 table policies) backward induction is the only check
        cases = [random_instance(seed + 300, 3) for seed in range(15)]
        cases += [random_instance(seed + 300, 20) for seed in range(5)]
        for inst in cases:
            pol, ev = solve_average_reward(inst)
            sol = backward_induction([inst], 30, [stationary_terminals(ev)])[0]
            acts = np.array([[int(a) for a in rule.actions] for rule in pol.rules])
            assert np.array_equal(sol.argmax[1], acts)

    def test_terminal_perturbation_changes_a_choice(self):
        # bumping one terminal value by 10 r flips some action near the horizon
        inst = random_instance(21, 3)
        pol, ev = solve_average_reward(inst)
        terms = stationary_terminals(ev)
        base = backward_induction([inst], 30, [terms])[0]
        changed = False
        for j in range(len(terms.v_end)):
            bumped = terms.v_end.copy()
            bumped[j] += 10 * inst.econ.r
            sol = backward_induction(
                [inst], 30, [dataclasses.replace(terms, v_end=bumped)]
            )[0]
            if not np.array_equal(sol.argmax, base.argmax):
                changed = True
                break
        assert changed

    @pytest.mark.parametrize("S", [1, 2, 3, 4, 5, 6, 20])
    def test_block_equals_the_state_loop_bit_for_bit(self, S):
        # two drawn instances, one with q and a at each edge and one with
        # attempt and handoff times far past every horizon, under both
        # terminal kinds: every lane's V and argmax are the loop's bytes, and
        # a lane alone is the same lane of the mixed block
        base = [random_instance(500 + 7 * S + i, S) for i in range(3)]
        insts = base[:2] + [dataclasses.replace(base[2], traffic=TrafficParams(q=q, a=a))
                            for q, a in ((1e-8, 0.5), (1.0, 0.5), (0.5, 1e-8), (0.5, 1.0))]
        insts.append(dataclasses.replace(
            base[2], profile=ResolutionProfile([10**9 * t for t in base[2].profile.tau], base[2].profile.rho),
            econ=dataclasses.replace(base[2].econ, tau_w=10**12)))
        terms = [stationary_terminals(solve_average_reward(inst)[1]) for inst in insts]
        insts, terms = insts * 2, terms + [zero_terminals(inst) for inst in insts]
        for T in (1, 30, 200):
            sols = backward_induction(insts, T, terms)
            for inst, tc, sol in zip(insts, terms, sols):
                V, argmax = backward_induction_loop(inst, T, tc)
                assert sol.V.tobytes() == V.tobytes() and sol.argmax.tobytes() == argmax.tobytes()
                alone, = backward_induction([inst], T, [tc])
                assert alone.V.tobytes() == V.tobytes() and alone.argmax.tobytes() == argmax.tobytes()

    def test_rejects_a_block_of_mixed_S(self):
        insts = [random_instance(1, 2), random_instance(1, 3)]
        with pytest.raises(ValueError, match="S = 3 in a block of S = 2"):
            backward_induction(insts, 5, [zero_terminals(inst) for inst in insts])

    def test_rejects_bad_horizon(self, single_attempt):
        with pytest.raises(ValueError):
            backward_induction([single_attempt], 0, [zero_terminals(single_attempt)])


class TestVerifyStationarity:
    def test_stationary_under_matched_terminals(self):
        for seed in range(10):
            inst = random_instance(seed + 90, 2 + seed % 3)
            pol, ev = solve_average_reward(inst)
            sol = backward_induction([inst], 100, [stationary_terminals(ev)])[0]
            ok, first = verify_stationarity(sol)
            assert ok and first is None

    def test_zero_terminals_distort_near_horizon(self):
        # with no credit for handed-off work, horizon-end actions shift for
        # any instance whose optimum is not all-warm
        violations = 0
        for seed in range(12):
            inst = random_instance(seed + 150, 3)
            sol = backward_induction([inst], 100, [zero_terminals(inst)])[0]
            ok, first = verify_stationarity(sol)
            violations += not ok
        assert violations >= 6

    def test_reports_the_first_differing_node(self):
        # t ascending, then X, then (Q, A) in CONGESTION_STATES order
        argmax = np.zeros((10, 3, 4), dtype=np.int8)
        argmax[9, 0, 0] = 2   # later t
        argmax[5, 2, 0] = 1   # same t, later X
        argmax[5, 1, 3] = 2   # same t and X, later (Q, A)
        argmax[5, 1, 2] = 1   # the first: C(2) at (Q, A) = (0, 1)
        sol = FiniteHorizonSolution(V=np.zeros((11, 16)), argmax=argmax, T=9, labels=state_labels(3))
        assert verify_stationarity(sol) == (False, (5, 2, 0, 1))
        argmax[1] = argmax[5]   # t = 1 now takes these actions, so t = 2 is the first to differ
        assert verify_stationarity(sol) == (False, (2, 2, 0, 1))

    def test_single_attempt_vacuous(self, single_attempt):
        sol = backward_induction([single_attempt], 20, [zero_terminals(single_attempt)])[0]
        ok, first = verify_stationarity(sol)
        assert ok and first is None


def test_monotone_value_in_attempt_index_when_profile_improves():
    # with nonincreasing tau and nondecreasing rho, completed-attempt values
    # rise with the attempt index (the request nears assured resolution)
    from gatekeeper.evaluate import c_index
    from gatekeeper.model import GeneratorConfig, generate_instance

    checked = 0
    for seed in range(200):
        inst = generate_instance(GeneratorConfig(seed=seed + 2000, S=4))
        tau = tuple(sorted(inst.profile.tau, reverse=True))
        rho = tuple(sorted(inst.profile.rho[:-1])) + (1.0,)
        inst = dataclasses.replace(inst, profile=ResolutionProfile(tau, rho))
        pol, ev = solve_average_reward(inst)
        sol = backward_induction([inst], 20, [stationary_terminals(ev)])[0]
        for t in (1, 10):
            for qa in range(4):
                vals = [sol.V[t, c_index(x, qa)] for x in range(1, inst.S + 1)]
                assert all(b >= a - 1e-8 for a, b in zip(vals, vals[1:]))
        checked += 1
        if checked >= 40:
            break
