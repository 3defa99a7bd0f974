import math
from dataclasses import astuple, fields, is_dataclass, replace

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
    default_scenario_grid,
    design_points,
    optimize_design,
    solve_designs,
    solve_equilibrium,
)
from gatekeeper.evaluate import LaneEvaluator, PerformanceMeasures, evaluate_policy
from gatekeeper.market import _FP_TOL, _Q_FLOOR, _itp_point
from gatekeeper.model import (
    EconomicParams,
    ProblemInstance,
    ResolutionProfile,
    TrafficParams,
    policy_from_actions,
    rules_table,
)
from gatekeeper.solve import dinkelbach, solve_average_reward

from design_oracle import equilibrium_result, solve_grid
from lattice_shares import lattice_shares


class TestBotCost:
    def test_untrained_bot_costs_nothing(self):
        assert bot_training_cost(BotChannel(0.0, 6.0, 0.00005, 2.0)) == 0.0

    def test_quadratic_curve(self):
        assert bot_training_cost(BotChannel(0.5, 6.0, 0.00005, 2.0)) == pytest.approx(0.125)

    def test_convex_curve(self):
        cost = bot_training_cost(BotChannel(0.9, 6.0, 0.00005, 2.6))
        assert cost == pytest.approx(0.00005 * 90**2.6, rel=1e-12)
        assert cost == pytest.approx(6.03, abs=0.01)

    def test_cost_past_the_float_range_is_infinite_unless_free(self):
        assert bot_training_cost(BotChannel(0.5, 6.0, 0.00005, 400.0)) == math.inf
        assert bot_training_cost(BotChannel(0.5, 6.0, 0.0, 400.0)) == 0.0

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            BotChannel(1.0, 6.0, 0.00005, 2.6)
        with pytest.raises(ValueError):
            BotChannel(0.5, 6.0, 0.00005, 0.9)


def jump_instance():
    """A channel whose optimal policy switches at its demand fixed point."""
    return ProblemInstance(
        profile=ResolutionProfile((2, 10), (0.14, 1.0)),
        econ=EconomicParams(r=20.0, c_w=2.0, c_c=4.2, tau_w=2),
        traffic=TrafficParams(q=0.5, a=0.59),
    )


# templates at S = 1..4, one with "OPT" cells that end at a policy switch
ORACLE_TEMPLATES = [
    ProblemInstance(ResolutionProfile((1,), (1.0,)), EconomicParams(r=20.0, c_w=1.0, c_c=2.0, tau_w=1),
                    TrafficParams(q=0.5, a=0.5)),
    jump_instance(),
    ProblemInstance(ResolutionProfile((6, 15, 40), (0.7, 0.2, 1.0)),
                    EconomicParams(r=20.0, c_w=2.0, c_c=5.0, tau_w=3), TrafficParams(q=0.5, a=0.5)),
    ProblemInstance(ResolutionProfile((15, 1, 15, 1), (0.488, 0.733, 0.1, 1.0)),
                    EconomicParams(r=20.0, c_w=2.0, c_c=5.0, tau_w=3), TrafficParams(q=0.838, a=0.5)),
]
ORACLE_IDS, ORACLE_LAMS = ["S1", "jump", "S3", "S4"], [0.175, 0.9, 6.0]
# the benchmark's design call
BENCH_MARKET = MarketParams(lam=0.9, k_max=7, p_grid=tuple(round(0.1 * i, 1) for i in range(1, 10)))


def chain_g(inst, k, p_succ, q, market, prefs, policy=None):
    """F(q) - q of one staffed cell (k agents, bot level p_succ), its bot at
    the default tau_bot, by the chain route: the embedded chain's measures at
    q under `policy`, or under the chain solver's optimal policy."""
    at = inst.with_q(q)
    perf = evaluate_policy(at, policy or solve_average_reward(at)[0]).perf
    bot = BotChannel(p_succ) if p_succ else None
    share = compute_demand_shares(perf, bot, prefs, perf.p_admit).agent
    return min(max(market.lam * share / k, _Q_FLOOR), 1.0) - q


def assert_same_bits(a, b, path="result"):
    """Equal values of one type, floats bit for bit, through dataclasses and dicts."""
    assert type(a) is type(b), path
    if is_dataclass(a):
        for f in fields(a):
            assert_same_bits(getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}")
    elif isinstance(a, dict):
        assert list(a) == list(b), path
        for key in a:
            assert_same_bits(a[key], b[key], f"{path}[{key!r}]")
    elif isinstance(a, float):
        assert a.hex() == b.hex(), path
    else:
        assert a == b, path


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

    def test_lattice_converges_to_exact_shares(self):
        # a midpoint lattice misplaces at most one cell per column, so every
        # share and the fallback mass lie within 1/n of the exact areas
        for n in (250, 1000, 4000):
            rng = np.random.default_rng(11)
            for _ in range(60):
                p_admit = rng.uniform(0, 1) if rng.random() < 0.9 else 0.0
                outcome = rng.dirichlet([1, 1, 1])
                perf = PerformanceMeasures(0.1, p_admit, *outcome, rng.uniform(1, 30))
                bot = None if rng.random() < 0.25 else BotChannel(rng.uniform(0, 0.95), rng.uniform(1, 10))
                prefs = CustomerPrefs(u0=rng.choice([-20.0, 0.0, 5.0]))
                exact = compute_demand_shares(perf, bot, prefs, p_admit)
                grid = lattice_shares(perf, bot, prefs, p_admit, n)
                for name in ("agent", "bot_direct", "balk"):
                    assert abs(getattr(exact, name) - getattr(grid, name)) <= 1 / n
                fallback = exact.agent * exact.fallback_fraction
                assert abs(fallback - grid.agent * grid.fallback_fraction) <= 1 / n

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

    def test_prefs_hold_no_grid(self):
        with pytest.raises(TypeError):
            CustomerPrefs(grid_n=1000)

    def test_no_bot_or_an_unwanted_one_leaves_no_fallback(self):
        perf = PerformanceMeasures(0.1, 0.7, 0.6, 0.2, 0.2, 7.1)
        for bot in (None, BotChannel(0.5, 200.0)):   # kappa past v_max: nobody prefers the bot
            shares = compute_demand_shares(perf, bot, CustomerPrefs(), perf.p_admit)
            assert shares.fallback_fraction == 0.0 and shares.bot_direct == 0.0
            assert shares.agent > 0.0

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

    def test_policy_switch_ends_unconverged_at_a_sign_change(self):
        # The optimal policy of this "OPT" lane switches from T4 to T5 where
        # demand would meet supply, and the switch lowers demand, so no q is
        # a fixed point.  The cell is reported at the bracket's lower end:
        # g > 0 there and < 0 just above.
        inst, market, prefs = jump_instance(), MarketParams(lam=0.175), CustomerPrefs()
        res = solve_equilibrium(inst, DesignPoint(1, "OPT", 0.0), market, prefs)
        assert not res.converged
        assert res.iterations <= 60
        assert res.q_per_agent == pytest.approx(0.155061, abs=1e-6)
        assert res.policy.names == ("T4",)

        def g(q, chain=False):
            if chain:
                perf = evaluate_policy(inst.with_q(q), solve_average_reward(inst.with_q(q))[0]).perf
            else:   # the route the market takes
                lane = LaneEvaluator(inst, np.zeros((1, 1, 4), dtype=np.int8)).at(np.array([q]))
                lane.set_actions([0], dinkelbach(lane.terms([0]))[1])
                lanes = lane.measures()[1]
                perf = PerformanceMeasures(*(float(getattr(lanes, f.name)[0])
                                             for f in fields(lanes)))
            share = compute_demand_shares(perf, None, prefs, perf.p_admit).agent
            return min(max(market.lam * share, 1e-6), 1.0) - q

        q = res.q_per_agent
        assert g(q) > 0 > g(q + 1e-9)
        assert res.residual == g(q)
        # the chain and the policy solver put the jump in the same place
        assert g(q, chain=True) > 0 > g(q + 1e-9, chain=True)
        assert solve_average_reward(inst.with_q(q + 1e-9))[0].names == ("T5",)

    def test_design_point_invariants(self):
        with pytest.raises(ValueError):
            DesignPoint(0, "C", 0.3)
        with pytest.raises(ValueError):
            DesignPoint(2, None, 0.3)
        with pytest.raises(ValueError, match="a rule label or 'OPT', got 'XYZ'"):
            DesignPoint(2, "XYZ", 0.3)
        for p in (1.5, 1.0, -0.1, math.nan):
            with pytest.raises(ValueError, match=r"p_succ must lie in \[0, 1\), got"):
                DesignPoint(2, "C", p)
        assert DesignPoint(2, "OPT", 0.0).policy == "OPT"


class TestOptimizeDesign:
    def test_prohibitive_training_cost_kills_the_bot(self):
        market = MarketParams(k_max=3, p_grid=(0.2, 0.5, 0.8))
        search = optimize_design(default_design_instance(wage=0.5), market, CustomerPrefs(),
                                 BotChannel(0.0, 6.0, 1e6, 2.6))
        assert search.best.design.p_succ == 0.0
        assert search.best.design.k_agent > 0

    def test_surface_covers_full_grid(self):
        market = MarketParams(k_max=2, p_grid=(0.3, 0.6))
        search = optimize_design(default_design_instance(), market, CustomerPrefs(),
                                 BotChannel(0.0, 6.0, 9e-5, 2.6))
        # k=0: 3 p-values; k=1,2: 12 policies x 3 p-values, k-major, p fastest
        k, policy, p = design_points(market)
        assert (k.dtype.kind, policy.dtype.kind, p.dtype) == ("i", "U", np.float64)
        labels = list(rules_table()) + ["OPT"]
        assert list(zip(k.tolist(), policy.tolist(), p.tolist())) == (
            [(0, "", x) for x in (0.0, 0.3, 0.6)]
            + [(n, label, x) for n in (1, 2) for label in labels for x in (0.0, 0.3, 0.6)])
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
        # the block holds converged cells and the "OPT" jump cells
        # (1, OPT, 0) and (2, OPT, 0.1)
        inst, prefs = jump_instance(), CustomerPrefs()
        market = MarketParams(lam=0.175, k_max=2, p_grid=(0.1, 0.5, 0.6))
        curve = BotChannel(0.0, 6.0, 9e-5, 2.6)
        search = optimize_design(inst, market, prefs, curve)
        jumps = {astuple(r.design) for r in search.results if not r.converged}
        assert jumps == {(1, "OPT", 0.0), (2, "OPT", 0.1)}
        for res in search.results:
            one = solve_equilibrium(inst, res.design, market, prefs, curve)
            assert one.q_per_agent == res.q_per_agent
            assert (one.iterations, one.converged) == (res.iterations, res.converged)
            assert one.residual == res.residual
            assert one.shares == res.shares and one.perf == res.perf
            assert one.profit == res.profit and one.policy == res.policy

    @pytest.mark.parametrize("case", [s.name for s in default_scenario_grid()] + ["jump"])
    def test_lazy_results_equal_the_scalar_assembly_bit_for_bit(self, case):
        # the jump grid holds the unconverged "OPT" cells (1, OPT, 0) and (2, OPT, 0.1)
        prefs = CustomerPrefs()
        if case == "jump":
            inst, curve = jump_instance(), BotChannel(0.0, 6.0, 9e-5, 2.6)
            market = MarketParams(lam=0.175, k_max=2, p_grid=(0.1, 0.5, 0.6))
        else:
            sc = {s.name: s for s in default_scenario_grid()}[case]
            inst, curve = default_design_instance(wage=sc.wage), sc.bot_curve
            market = MarketParams(k_max=2, p_grid=(0.3, 0.6))
        search = optimize_design(inst, market, prefs, curve)
        results = search.results
        assert len(results) == (1 + 2 * 12) * (1 + len(market.p_grid))
        cols = (a.tolist() for a in (search.grid.k, search.grid.policy, search.grid.p_succ))
        assert [astuple(r.design) for r in results] == [(k, label or None, p) for k, label, p in zip(*cols)]
        for j, res in enumerate(results):
            assert_same_bits(res, equilibrium_result(search.grid, j, market, inst.econ, curve))
        keys = [(-r.profit, r.design.k_agent, r.design.policy or "", r.design.p_succ) for r in results]
        assert keys == sorted(keys)
        assert_same_bits(search.best, results[0])
        for res in results:
            d = res.design
            assert_same_bits(search.cell(d.k_agent, d.policy, d.p_succ), res)

    def test_one_solve_priced_per_scenario_equals_a_search_per_scenario(self):
        # the demand fixed point reads neither the wage nor the training-cost
        # curve, so pricing one solve gives each scenario's search bit for bit
        market, prefs, scenarios = MarketParams(), CustomerPrefs(), default_scenario_grid()
        grid = solve_designs(default_design_instance(), design_points(market), market, prefs, 6.0)
        for sc in scenarios:
            priced = grid.price(sc.wage, sc.bot_curve)
            search = optimize_design(default_design_instance(wage=sc.wage), market, prefs,
                                     sc.bot_curve)
            assert priced.grid.tau_bot == search.grid.tau_bot
            # the key columns k, policy, p_succ first: the rank
            for name, a, b in zip(search.grid._fields[1:], priced.grid[1:], search.grid[1:]):
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
            for a, b in ((priced.parts, search.parts), (priced.profit, search.profit)):
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
            assert_same_bits(priced.best, search.best)

    @pytest.mark.parametrize("lam", ORACLE_LAMS)
    @pytest.mark.parametrize("template", ORACLE_TEMPLATES, ids=ORACLE_IDS)
    def test_solve_equals_the_per_pass_oracle(self, template, lam):
        """Every column of the solve, which builds the q-free rows once, is
        the bits of the oracle that builds every pass from scratch, at
        S = 1..4; on the jump instance at lam = 0.175 and 0.9 an "OPT" cell
        ends unconverged at a policy switch."""
        market = MarketParams(lam=lam, k_max=7, p_grid=(0.2, 0.5, 0.9))
        args = (template, design_points(market), market, CustomerPrefs(), 6.0)
        grid, oracle = solve_designs(*args), solve_grid(*args)
        assert grid.tau_bot == oracle.tau_bot
        for name, a, b in zip(grid._fields[1:], grid[1:], oracle[1:]):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
        if template == jump_instance() and lam < 1:
            assert "OPT" in grid.policy[~grid.converged]

    @pytest.mark.parametrize("case", [f"{t}-{lam}" for t in ORACLE_IDS for lam in ORACLE_LAMS] + ["bench"])
    def test_itp_ends_where_bisection_does(self, case):
        """Against bisection from Q_FLOOR to 1: the same cells converge, each
        converged cell is a fixed point by the chain route, each unconverged
        one sits at bisection's jump, and no lane takes more than two passes
        beyond bisection's midpoints (the end pass, and the projection's
        slack of one halving)."""
        prefs = CustomerPrefs()
        if case == "bench":
            template, market = default_design_instance(), BENCH_MARKET
        else:
            name, lam = case.split("-")
            template = ORACLE_TEMPLATES[ORACLE_IDS.index(name)]
            market = MarketParams(lam=float(lam), k_max=7, p_grid=(0.2, 0.5, 0.9))
        args = (template, design_points(market), market, prefs, 6.0)
        grid, bisected = solve_designs(*args), solve_grid(*args, bisect=True)
        assert np.array_equal(grid.converged, bisected.converged)
        assert (grid.iterations <= bisected.iterations + 2).all()
        for j in np.flatnonzero(grid.k):
            cell, q = (int(grid.k[j]), float(grid.p_succ[j])), float(grid.q[j])
            if grid.converged[j]:
                policy = policy_from_actions(grid.actions[..., j])
                assert abs(chain_g(template, *cell, q, market, prefs, policy)) < _FP_TOL
            else:
                assert abs(q - bisected.q[j]) <= 1e-12
                assert chain_g(template, *cell, q, market, prefs) > 0 > chain_g(template, *cell, q + 1e-9, market, prefs)
        if case == "bench":
            assert grid.converged.all() and grid.iterations.max() <= 8

    def test_itp_point_falls_back_to_the_midpoint(self):
        # a regula-falsi point that rounds onto lo would not split the bracket
        lo, hi = np.array([0.1]), np.array([0.1 + 1e-12])
        q = _itp_point(lo, hi, np.array([1e-20]), np.array([-1.0]), 0)
        assert q == 0.5 * (lo + hi) and lo < q < hi
        # one pass after the end pass the whole bracket has no slack left
        lo, hi = np.array([_Q_FLOOR]), np.array([1.0])
        assert _itp_point(lo, hi, np.array([1.0]), np.array([-1e-9]), 1) == 0.5 * (lo + hi)

    def test_a_cell_with_two_fixed_points_reports_the_one_its_search_reaches(self):
        # On the jump template at lam = 0.175 the "OPT" cell (6, OPT, 0.9) has
        # two fixed points, each under the policy that is optimal there; ITP
        # and bisection converge to different ones.
        inst, prefs = jump_instance(), CustomerPrefs()
        market = MarketParams(lam=0.175, k_max=7, p_grid=(0.2, 0.5, 0.9))
        args = (inst, design_points(market), market, prefs, 6.0)
        k, policy, p = design_points(market)
        j, = np.flatnonzero((k == 6) & (policy == "OPT") & (p == 0.9))
        found = []
        for grid, q_at, acts in ((solve_designs(*args), 0.0142927, [0, 2, 1, 2]),
                                 (solve_grid(*args, bisect=True), 0.0134936, [0, 2, 0, 2])):
            q, policy = float(grid.q[j]), policy_from_actions(grid.actions[..., j])
            assert grid.converged[j] and q == pytest.approx(q_at, abs=1e-7)
            assert grid.actions[..., j].ravel().tolist() == acts
            assert solve_average_reward(inst.with_q(q))[0] == policy
            assert abs(chain_g(inst, 6, 0.9, q, market, prefs, policy)) < _FP_TOL
            found.append(q)
        assert found[0] - found[1] > 5e-4

    def test_no_bot_cells_have_no_bot_demand(self):
        # the bot threshold capped at v_max leaves a fallback area of exactly 0
        for inst, market in ((default_design_instance(), BENCH_MARKET),
                             (jump_instance(), MarketParams(lam=0.175, k_max=2, p_grid=(0.1, 0.5, 0.6)))):
            grid = solve_designs(inst, design_points(market), market, CustomerPrefs(), 6.0)
            no_bot = grid.p_succ == 0.0
            assert (grid.q_bot[no_bot] == 0.0).all()
            assert (grid.shares[3][no_bot] == 0.0).all()

    def test_pricing_at_another_bot_speed_raises(self):
        market = MarketParams(k_max=1, p_grid=(0.4,))
        grid = solve_designs(default_design_instance(), design_points(market), market,
                             CustomerPrefs(), 6.0)
        grid.price(0.9, BotChannel(0.0, 6.0, 9e-5, 2.6))
        with pytest.raises(ValueError, match="solved at tau_bot = 6.0, not 4.0"):
            grid.price(0.9, BotChannel(0.0, 4.0, 9e-5, 2.6))

    def test_p_grid_may_hold_the_no_bot_column(self):
        assert MarketParams(p_grid=(0.0, 0.3)).p_grid == (0.0, 0.3)

    def test_cell_lookup(self):
        market = MarketParams(k_max=1, p_grid=(0.4,))
        search = optimize_design(default_design_instance(), market, CustomerPrefs(),
                                 BotChannel(0.0, 6.0, 9e-5, 2.6))
        res = search.cell(1, "C", 0.4)
        assert res.design.policy == "C"
        with pytest.raises(KeyError):
            search.cell(1, "C", 0.77)
