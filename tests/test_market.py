from dataclasses import fields, replace

import numpy as np
import pytest

from gatekeeper import (
    BotChannel,
    CustomerPrefs,
    DesignPoint,
    MarketParams,
    bot_training_cost,
    compute_demand_shares,
    default_design_instance,
    optimize_design,
    solve_equilibrium,
    uniform_policy,
)
from gatekeeper.evaluate import PerformanceMeasures, cycle_performance, evaluate_policy, policy_actions
from gatekeeper.market import agent_service_cost


class TestBotCost:
    def test_untrained_bot_costs_nothing(self):
        assert bot_training_cost(BotChannel(0.0, 6.0, 0.00005, 2.0)) == 0.0

    def test_quadratic_curve(self):
        assert bot_training_cost(BotChannel(0.5, 6.0, 0.00005, 2.0)) == pytest.approx(0.125)

    def test_convex_curve(self):
        cost = bot_training_cost(BotChannel(0.9, 6.0, 0.00005, 2.6))
        assert cost == pytest.approx(0.00005 * 90**2.6, rel=1e-12)
        assert cost == pytest.approx(6.03, abs=0.01)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            BotChannel(1.0, 6.0, 0.00005, 2.6)
        with pytest.raises(ValueError):
            BotChannel(0.5, 6.0, 0.00005, 0.9)


def perfect_agent_perf():
    return PerformanceMeasures(throughput=0.5, p_admit=1.0, p_resolve=1.0,
                               p_warm=0.0, p_cold=0.0, t_channel=6.0)


class TestDemandShares:
    def test_agent_only_uniform_tail(self):
        shares = compute_demand_shares(perfect_agent_perf(), None, CustomerPrefs(), 1.0)
        assert shares.agent == pytest.approx(0.94)
        assert shares.bot_direct == 0.0
        assert shares.balk == pytest.approx(0.06)
        assert shares.fallback_fraction == 0.0

    def test_bot_only_uniform_tail(self):
        prefs = CustomerPrefs(tau_exp_cold=4)
        shares = compute_demand_shares(None, BotChannel(0.0, 6.0), prefs, 0.0)
        assert shares.bot_direct == pytest.approx(0.86)
        assert shares.agent == 0.0

    def test_shares_partition_unit_square(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            p_admit = rng.uniform(0, 1)
            outcome = rng.dirichlet([1, 1, 1])
            perf = PerformanceMeasures(0.1, p_admit, *outcome, rng.uniform(1, 40))
            bot = BotChannel(rng.uniform(0, 0.95), rng.uniform(1, 12))
            shares = compute_demand_shares(perf, bot, CustomerPrefs(), p_admit)
            total = shares.agent + shares.bot_direct + shares.balk
            assert total == pytest.approx(1.0, abs=1e-12)
            assert min(shares.agent, shares.bot_direct, shares.balk) >= 0.0
            assert 0.0 <= shares.fallback_fraction <= 1.0

    def test_matches_dense_grid_reference(self):
        # column counting must reproduce the literal two-dimensional lattice
        prefs = CustomerPrefs(grid_n=250)
        rng = np.random.default_rng(11)
        for _ in range(25):
            p_admit = rng.uniform(0.05, 1.0)
            outcome = rng.dirichlet([1, 1, 1])
            perf = PerformanceMeasures(0.1, p_admit, *outcome, rng.uniform(1, 30))
            bot = None if rng.random() < 0.25 else BotChannel(rng.uniform(0, 0.95), rng.uniform(1, 10))
            n = prefs.grid_n
            shares = compute_demand_shares(perf, bot, prefs, p_admit)
            h = prefs.v_max / n
            v = (np.arange(n) + 0.5) * h
            if bot is None:
                u_bot = np.full(n, -np.inf)
            else:
                u_bot = v - prefs.c_time * bot.tau_bot - (1 - bot.p_succ) * prefs.delta_cold * prefs.tau_exp_cold
            m = np.maximum(u_bot, prefs.u0)
            u_agent = p_admit * (v[:, None] - agent_service_cost(perf, prefs)) \
                + (1 - p_admit) * (-prefs.c_not_admit + m[None, :])
            agent_mask = u_agent >= m[None, :]
            bot_mask = ~agent_mask & (u_bot > prefs.u0)[None, :]
            assert shares.agent == pytest.approx(agent_mask.mean(), abs=2 / n**2)
            assert shares.bot_direct == pytest.approx(bot_mask.mean(), abs=2 / n**2)

    def test_bot_share_monotone_in_training_and_speed(self):
        prefs = CustomerPrefs()
        perf = perfect_agent_perf()
        prev = -1.0
        for p in np.linspace(0.0, 0.9, 10):
            s = compute_demand_shares(perf, BotChannel(p, 6.0), prefs, 1.0)
            assert s.bot_direct >= prev - 1e-12
            prev = s.bot_direct
        prev = 2.0
        for tau_bot in (1.0, 3.0, 6.0, 10.0, 20.0):
            s = compute_demand_shares(perf, BotChannel(0.5, tau_bot), prefs, 1.0)
            assert s.bot_direct <= prev + 1e-12
            prev = s.bot_direct

    def test_grid_floor_enforced(self):
        with pytest.raises(ValueError):
            compute_demand_shares(perfect_agent_perf(), None, CustomerPrefs(grid_n=10), 1.0)

    def test_blocked_never_choose_agent(self):
        shares = compute_demand_shares(perfect_agent_perf(), BotChannel(0.5, 6.0),
                                       CustomerPrefs(), 0.0)
        assert shares.agent == 0.0


class TestEquilibrium:
    def test_null_design_is_worthless(self):
        res = solve_equilibrium(default_design_instance(), DesignPoint(0, None, 0.0),
                                MarketParams(), CustomerPrefs())
        assert res.profit == 0.0
        assert res.q_bot_effective == 0.0
        assert res.converged

    def test_bot_only_needs_no_iteration(self):
        res = solve_equilibrium(default_design_instance(), DesignPoint(0, None, 0.5),
                                MarketParams(), CustomerPrefs(), BotChannel(0.0, 6.0, 9e-5, 2.6))
        assert res.iterations == 0
        assert res.q_bot_effective == pytest.approx(0.9 * res.shares.bot_direct)
        assert res.profit_parts["bot_training"] > 0

    def test_hybrid_equilibrium_converges_and_is_consistent(self):
        market = MarketParams()
        prefs = CustomerPrefs()
        res = solve_equilibrium(default_design_instance(), DesignPoint(2, "T5", 0.3),
                                market, prefs, BotChannel(0.0, 6.0, 9e-5, 2.6))
        assert res.converged and res.residual < 1e-6
        # re-evaluating demand at the reported performance reproduces q
        shares = compute_demand_shares(res.perf, BotChannel(0.3, 6.0, 9e-5, 2.6),
                                       prefs, res.perf.p_admit)
        q_back = market.lam * shares.agent / 2
        assert q_back == pytest.approx(res.q_per_agent, abs=1e-5)

    def test_jump_ends_unconverged_at_a_sign_change(self):
        # reported at the bracket's lower end: g > 0 there and < 0 just above
        inst, market, prefs = default_design_instance(), MarketParams(), CustomerPrefs()
        res = solve_equilibrium(inst, DesignPoint(1, "C", 0.0), market, prefs)
        assert not res.converged
        assert res.iterations <= 60

        def g(q, chain=False):
            if chain:
                perf = evaluate_policy(inst.with_q(q), uniform_policy("C", inst.S)).perf
            else:   # the route the market takes
                acts = policy_actions(uniform_policy("C", inst.S)).reshape(1, -1, 4)
                lanes = cycle_performance(inst, np.array([q]), acts)[1]
                perf = PerformanceMeasures(*(float(getattr(lanes, f.name)[0])
                                             for f in fields(lanes)))
            share = compute_demand_shares(perf, None, prefs, perf.p_admit).agent
            return min(max(market.lam * share, 1e-6), 1.0) - q

        q = res.q_per_agent
        assert g(q) > 0 > g(q + 1e-9)
        assert res.residual == g(q)
        # the chain puts the jump in the same place
        assert g(q - 1e-9, chain=True) > 0 > g(q + 1e-9, chain=True)

    def test_design_point_invariants(self):
        with pytest.raises(ValueError):
            DesignPoint(0, "C", 0.3)
        with pytest.raises(ValueError):
            DesignPoint(2, None, 0.3)


class TestOptimizeDesign:
    def test_prohibitive_training_cost_kills_the_bot(self):
        market = MarketParams(k_max=3, p_grid=(0.2, 0.5, 0.8))
        search = optimize_design(default_design_instance(), market, CustomerPrefs(),
                                 BotChannel(0.0, 6.0, 1e6, 2.6), wage=0.5)
        assert search.best.design.p_succ == 0.0
        assert search.best.design.k_agent > 0

    def test_surface_covers_full_grid(self):
        market = MarketParams(k_max=2, p_grid=(0.3, 0.6))
        search = optimize_design(default_design_instance(), market, CustomerPrefs(),
                                 BotChannel(0.0, 6.0, 9e-5, 2.6))
        # k=0: 3 p-values; k=1,2: 12 policies x 3 p-values
        assert len(search.results) == 3 + 2 * 12 * 3
        profits = [r.profit for r in search.results]
        assert profits == sorted(profits, reverse=True)

    def test_converged_cells_are_fixed_points(self):
        market, prefs = MarketParams(k_max=2, p_grid=(0.3, 0.6)), CustomerPrefs()
        curve = BotChannel(0.0, 6.0, 9e-5, 2.6)
        search = optimize_design(default_design_instance(), market, prefs, curve)
        for res in search.results:
            assert res.iterations <= 60
            k, p = res.design.k_agent, res.design.p_succ
            if k == 0 or not res.converged:
                continue
            bot = replace(curve, p_succ=p) if p > 0 else None
            share = compute_demand_shares(res.perf, bot, prefs, res.perf.p_admit).agent
            assert abs(min(max(market.lam * share / k, 1e-6), 1.0) - res.q_per_agent) < 1e-6

    def test_lockstep_cells_equal_one_cell_solves(self):
        # the block holds converged, jump and "OPT" cells, among them the
        # jump cells (1, C, 0), (1, C, 0.5) and (2, OPT, 0.6)
        inst, prefs = default_design_instance(), CustomerPrefs()
        market = MarketParams(k_max=2, p_grid=(0.1, 0.5, 0.6))
        curve = BotChannel(0.0, 6.0, 9e-5, 2.6)
        search = optimize_design(inst, market, prefs, curve)
        jumps = {(r.design.k_agent, r.design.policy) for r in search.results if not r.converged}
        assert (1, "C") in jumps and (2, "OPT") in jumps
        for res in search.results:
            one = solve_equilibrium(inst, res.design, market, prefs, curve)
            assert one.q_per_agent == res.q_per_agent
            assert (one.iterations, one.converged) == (res.iterations, res.converged)
            assert one.residual == res.residual
            assert one.shares == res.shares and one.perf == res.perf
            assert one.profit == res.profit and one.policy == res.policy

    def test_cell_lookup(self):
        market = MarketParams(k_max=1, p_grid=(0.4,))
        search = optimize_design(default_design_instance(), market, CustomerPrefs(),
                                 BotChannel(0.0, 6.0, 9e-5, 2.6))
        res = search.cell(1, "C", 0.4)
        assert res.design.policy == "C"
        with pytest.raises(KeyError):
            search.cell(1, "C", 0.77)
