"""Channel design under endogenous demand.

Customers hold independent uniform valuations for live-agent and chatbot
service, observe the announced performance of each channel (admission
probability, transfer mix, expected time in channel) and pick the channel, or
the outside option, maximizing expected utility.  The firm in turn picks
staffing, a resolution policy, and a chatbot training level.  Demand and
performance are reconciled by a fixed point on the per-agent arrival
probability, found by bisection on [Q_FLOOR, 1]: the firm delivers exactly the
service levels customers acted on, or the cell reports the lower end of the
jump of the lattice-share step function that leaves no exact fixed point.  The
design optimizer scans the full (staffing x policy x training) grid and
reports the profit surface; all its cells bisect together as arrays.  The
announced measures come from the renewal recursion
(`evaluate.cycle_performance`), not from the embedded chain, which stays the
independent oracle in the tests.

The chatbot resolves a request with probability p_succ bought through a
convex per-period training cost a_bot * (100 p_succ)^b_bot; failures are
always cold transfers (bots cannot warm transfer), and the bot channel is
never congested.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

# evaluate_policy is not called here: the benchmark harness's tracing
# self-test installs and removes a span on `market.evaluate_policy`.
from .evaluate import PerformanceMeasures, cycle_performance, evaluate_policy, lane_terms  # noqa: F401
from .model import (
    EconomicParams,
    ProblemInstance,
    ResolutionProfile,
    StationaryPolicy,
    TrafficParams,
    policy_from_actions,
    rules_table,
)
from .solve import dinkelbach

MIN_GRID = 100
_Q_FLOOR = 1e-6
_FP_TOL = 1e-6   # |F(q) - q| below which the demand fixed point has converged


@dataclass(frozen=True)
class BotChannel:
    """Chatbot channel: training level plus the cost curve that bought it."""

    p_succ: float
    tau_bot: float = 6.0
    a_bot: float = 0.0
    b_bot: float = 2.6

    def __post_init__(self):
        if not 0.0 <= self.p_succ < 1.0:
            raise ValueError("p_succ must lie in [0, 1)")
        if self.a_bot < 0:
            raise ValueError("a_bot must be nonnegative")
        if self.b_bot <= 1:
            raise ValueError("b_bot must exceed 1 (convex training cost)")


def bot_training_cost(bot: BotChannel) -> float:
    """Per-period training cost a_bot * (100 * p_succ)^b_bot; zero when untrained."""
    if bot.p_succ == 0.0:
        return 0.0
    return bot.a_bot * (100.0 * bot.p_succ) ** bot.b_bot


@dataclass(frozen=True)
class CustomerPrefs:
    """Utility parameters; valuations are uniform on [0, v_max]^2.

    Time with the gatekeeper costs c_time per period; time with the expert
    costs delta_warm or delta_cold per period depending on how the customer
    was handed over.  A customer who tried the live channel and was not
    admitted pays c_not_admit and then falls back on the bot or the outside
    option u0.

    The default expert processing times (2 warm, 6 cold periods) pair with
    the 3.5-per-period expert fee to give the default transfer fees of
    default_design_instance (c_w = 7, c_c = 21); the cold time is sized so
    that an untrained bot's transfers are roughly break-even for the firm.
    """

    c_time: float = 1.0
    delta_warm: float = 1.25
    delta_cold: float = 2.0
    c_not_admit: float = 1.0
    u0: float = 0.0
    tau_exp_warm: int = 2
    tau_exp_cold: int = 6
    v_max: float = 100.0
    grid_n: int = 1000


@dataclass(frozen=True)
class MarketParams:
    """Total market size and the design grids."""

    lam: float = 0.9
    k_max: int = 7
    expert_rate: float = 3.5
    p_grid: tuple[float, ...] = tuple(round(0.05 * i, 2) for i in range(1, 20))

    def __post_init__(self):
        if not 0 < self.lam <= self.k_max:
            raise ValueError("need 0 < lam <= k_max")


@dataclass(frozen=True)
class Shares:
    agent: float
    bot_direct: float
    balk: float
    fallback_fraction: float  # P(bot beats outside option | chose agent)

    def to_json_dict(self) -> dict:
        return {
            "agent": self.agent,
            "bot_direct": self.bot_direct,
            "balk": self.balk,
            "fallback_fraction": self.fallback_fraction,
        }


def _alternatives(bot: Optional[BotChannel], prefs: CustomerPrefs) -> tuple[np.ndarray, np.ndarray]:
    """Per bot-valuation column of the lattice: the best alternative to the
    live channel, max(U_bot, U0), and whether the bot beats the outside option."""
    n = prefs.grid_n
    if n < MIN_GRID:
        raise ValueError(f"grid resolution {n} below the minimum {MIN_GRID}")
    v = (np.arange(n) + 0.5) * (prefs.v_max / n)
    if bot is None:
        return np.full(n, prefs.u0), np.zeros(n, dtype=bool)
    u_bot = v - prefs.c_time * bot.tau_bot - (1 - bot.p_succ) * prefs.delta_cold * prefs.tau_exp_cold
    return np.maximum(u_bot, prefs.u0), u_bot > prefs.u0


def agent_service_cost(perf: PerformanceMeasures, prefs: CustomerPrefs) -> float:
    """Expected disutility of an admitted live-channel customer, ex valuation."""
    return (
        prefs.c_time * perf.t_channel
        + perf.p_warm * prefs.delta_warm * prefs.tau_exp_warm
        + perf.p_cold * prefs.delta_cold * prefs.tau_exp_cold
    )


def _lane_shares(alt: tuple[np.ndarray, np.ndarray], cost: np.ndarray, p_admit: np.ndarray,
                 prefs: CustomerPrefs) -> tuple[np.ndarray, ...]:
    """Shares (agent, bot_direct, balk, fallback) of lanes facing one bot;
    cost and p_admit are arrays over lanes, each lane a row of the lattice."""
    best_alt, bot_ok = alt
    n = prefs.grid_n
    # U_agent(v_a, v_b) = p_admit (v_a - t_cost) + (1-p_admit)(-c_na + best_alt)
    # >= best_alt  iff  v_a >= best_alt + t_cost + c_na (1-p_admit)/p_admit.
    x = best_alt + cost[:, None]
    x += (prefs.c_not_admit * (1 - p_admit) / p_admit)[:, None]
    x /= prefs.v_max / n
    x -= 0.5
    count = n - np.clip(np.ceil(x, out=x), 0, n, out=x)   # per column, agents among n rows
    picked = count.sum(axis=1)
    fallback = count[:, bot_ok].sum(axis=1)
    total = n * n
    agent = picked / total
    bot_direct = (n * np.count_nonzero(bot_ok) - fallback) / total
    return (agent, bot_direct, 1.0 - agent - bot_direct,
            np.where(picked > 0, fallback / np.maximum(picked, 1), 0.0))


def compute_demand_shares(
    perf: Optional[PerformanceMeasures],
    bot: Optional[BotChannel],
    prefs: CustomerPrefs,
    p_admit: float,
) -> Shares:
    """Channel shares by deterministic midpoint-grid integration.

    The valuation square is discretized on an n x n midpoint lattice (no
    Monte Carlo, so shares are bit-reproducible).  A customer joins the live
    channel iff its expected utility is at least both alternatives'; failing
    that, the bot iff it strictly beats the outside option.  Utilities are
    affine in the agent valuation, so each bot-valuation column reduces to a
    closed-form lattice count.
    """
    alt = _alternatives(bot, prefs)
    if perf is None or p_admit <= 0.0:
        bot_direct = float(np.count_nonzero(alt[1])) / prefs.grid_n
        return Shares(agent=0.0, bot_direct=bot_direct, balk=1.0 - bot_direct, fallback_fraction=0.0)
    shares = _lane_shares(alt, np.array([agent_service_cost(perf, prefs)]), np.array([p_admit]), prefs)
    return Shares(*(float(s[0]) for s in shares))


@dataclass(frozen=True)
class DesignPoint:
    """One candidate design: staffing, policy label, chatbot level (0 = no bot)."""

    k_agent: int
    policy: Optional[str]   # rule label, "OPT", or None when k_agent = 0
    p_succ: float

    def __post_init__(self):
        if self.k_agent < 0:
            raise ValueError("k_agent must be nonnegative")
        if self.k_agent == 0 and self.policy is not None:
            raise ValueError("a design without agents has no resolution policy")
        if self.k_agent > 0 and self.policy is None:
            raise ValueError("a staffed design needs a resolution policy")


@dataclass(frozen=True)
class EquilibriumResult:
    design: DesignPoint
    q_per_agent: float
    q_bot_effective: float
    shares: Shares
    perf: Optional[PerformanceMeasures]
    policy: Optional[StationaryPolicy]
    agent_reward: float        # per agent per period, net of transfer fees
    profit: float
    profit_parts: dict[str, float]
    converged: bool
    iterations: int
    residual: float


def _profit(
    k: int, agent_reward: float, wage: float, q_bot: float,
    bot: Optional[BotChannel], econ: EconomicParams,
) -> tuple[float, dict[str, float]]:
    parts = {
        "agent_revenue": k * agent_reward,
        "wages": k * wage,
        "bot_margin": 0.0,
        "bot_training": 0.0,
    }
    if bot is not None:
        parts["bot_margin"] = q_bot * (econ.r - (1 - bot.p_succ) * econ.c_c)
        parts["bot_training"] = bot_training_cost(bot)
    profit = parts["agent_revenue"] - parts["wages"] + parts["bot_margin"] - parts["bot_training"]
    return profit, parts


def _bot(p_succ: float, bot_curve: Optional[BotChannel]) -> Optional[BotChannel]:
    if p_succ == 0.0:
        return None
    return BotChannel(p_succ=p_succ) if bot_curve is None else replace(bot_curve, p_succ=p_succ)


def _solve_cells(
    template: ProblemInstance,
    designs: list[DesignPoint],
    market: MarketParams,
    prefs: CustomerPrefs,
    bot_curve: Optional[BotChannel],
) -> list[EquilibriumResult]:
    """Every design's demand fixed point; the staffed ones bisect in lockstep.

    Each staffed cell is a lane with its own bracket [lo, hi] and stopping
    rule (see `solve_equilibrium`); one pass evaluates every active lane's
    midpoint at once.  Uniform-rule lanes carry their rule's actions, "OPT"
    lanes take theirs from `dinkelbach` at the midpoint, and the measures
    come from the renewal recursion (`cycle_performance`), not the chain.
    The lattice shares are taken per bot, whose per-column best alternative
    does not depend on q.  Every step is elementwise over lanes, so a cell's
    result does not depend on which other cells share the block.
    """
    S, econ, table = template.S, template.econ, rules_table()
    bots = {d.p_succ: _bot(d.p_succ, bot_curve) for d in designs}
    alts = {p: _alternatives(bot, prefs) for p, bot in bots.items()}
    staffed = [d for d in designs if d.k_agent > 0]
    k = np.array([d.k_agent for d in staffed], dtype=float)
    p_lane = np.array([d.p_succ for d in staffed])
    opt = np.array([d.policy == "OPT" for d in staffed], dtype=bool)
    acts = np.zeros((len(staffed), S - 1, 4), dtype=np.int8)   # "OPT" lanes: set per pass
    for j, d in enumerate(staffed):
        if not opt[j]:
            acts[j] = table[d.policy].actions

    # The reported evaluation of each lane: the converged midpoint, or else
    # the lower end lo of the collapsed bracket, the last midpoint with g > 0.
    # A lane whose lo never left Q_FLOOR converges: g >= Q_FLOOR - q there.
    lo, hi = np.full(len(staffed), _Q_FLOOR), np.ones(len(staffed))
    iters = np.zeros(len(staffed), dtype=int)
    converged = np.zeros(len(staffed), dtype=bool)
    rep = np.zeros((13, len(staffed)))   # q, R, g, the six measures, the four shares
    rep_acts = acts.copy()
    active = np.arange(len(staffed))
    while active.size:
        q = 0.5 * (lo[active] + hi[active])
        iters[active] += 1
        if opt[active].any():
            acts[active[opt[active]]] = dinkelbach(lane_terms(template, q[opt[active]]))[1]
        R, perf = cycle_performance(template, q, acts[active])
        cost = agent_service_cost(perf, prefs)
        shares = np.empty((4, active.size))
        for p, alt in alts.items():
            m = p_lane[active] == p
            if m.any():
                shares[:, m] = _lane_shares(alt, cost[m], perf.p_admit[m], prefs)
        g = np.minimum(np.maximum(market.lam * shares[0] / k[active], _Q_FLOOR), 1.0) - q
        done, up = np.abs(g) < _FP_TOL, g > 0
        keep = done | up
        measures = [getattr(perf, f.name) for f in fields(perf)]
        rep[:, active[keep]] = np.vstack([q, R, g, *measures, *shares])[:, keep]
        rep_acts[active[keep]] = acts[active[keep]]
        converged[active[done]] = True
        lo[active[up]] = q[up]
        hi[active[~up]] = q[~up]
        mid = 0.5 * (lo[active] + hi[active])
        halves = (lo[active] < mid) & (mid < hi[active])
        active = active[~done & halves]

    results, lane = [], 0
    for d in designs:
        bot = bots[d.p_succ]
        if d.k_agent == 0:
            shares = compute_demand_shares(None, bot, prefs, 0.0)
            q_bot = market.lam * shares.bot_direct
            profit, parts = _profit(0, 0.0, econ.c_wage, q_bot, bot, econ)
            results.append(EquilibriumResult(
                design=d, q_per_agent=0.0, q_bot_effective=q_bot, shares=shares,
                perf=None, policy=None, agent_reward=0.0, profit=profit,
                profit_parts=parts, converged=True, iterations=0, residual=0.0,
            ))
            continue
        q, R, g, *rest = rep[:, lane].tolist()
        perf, shares = PerformanceMeasures(*rest[:6]), Shares(*rest[6:])
        q_bot = market.lam * (
            shares.bot_direct + shares.agent * (1 - perf.p_admit) * shares.fallback_fraction
        )
        profit, parts = _profit(d.k_agent, R, econ.c_wage, q_bot, bot, econ)
        results.append(EquilibriumResult(
            design=d, q_per_agent=q, q_bot_effective=q_bot, shares=shares, perf=perf,
            policy=policy_from_actions(rep_acts[lane]), agent_reward=R, profit=profit,
            profit_parts=parts, converged=bool(converged[lane]), iterations=int(iters[lane]),
            residual=abs(g),
        ))
        lane += 1
    return results


def solve_equilibrium(
    template: ProblemInstance,
    design: DesignPoint,
    market: MarketParams,
    prefs: CustomerPrefs,
    bot_curve: Optional[BotChannel] = None,
) -> EquilibriumResult:
    """Self-consistent demand split for one design, by bisection.

    At per-agent arrival probability q the announced performance sets demand
    F(q) = clip(lam * share_agent(q) / k, Q_FLOOR, 1).  The clip makes
    g(q) = F(q) - q nonnegative at Q_FLOOR and nonpositive at 1, so bisection
    on that bracket, keeping g(lo) >= 0 >= g(hi), always ends: converged at
    the first midpoint with |g| < FP_TOL, or unconverged once the bracket can
    no longer be halved, which marks a jump of the lattice-share step function
    with no exact fixed point.  Such a cell is reported at the bracket's lower
    end lo, the largest evaluated q with g > 0: its measures, shares, reward,
    profit and residual g(lo) are those of that evaluation.  The bot's
    effective demand adds blocked live-channel customers who still prefer the
    bot over balking.  One cell of `optimize_design`'s lockstep block.
    """
    return _solve_cells(template, [design], market, prefs, bot_curve)[0]


def default_design_instance(wage: float = 0.9) -> ProblemInstance:
    """Two-attempt channel family used by the design scenarios.

    Transfer fees follow from the expert rate of 3.5 per period and the
    default expert processing times (2 warm / 6 cold periods): c_w = 7,
    c_c = 21.
    """
    return ProblemInstance(
        profile=ResolutionProfile((6, 15), (0.7, 1.0)),
        econ=EconomicParams(r=20.0, c_w=7.0, c_c=21.0, tau_w=3, c_wage=wage),
        traffic=TrafficParams(q=0.5, a=0.8),
    )


@dataclass(frozen=True)
class DesignSearch:
    results: tuple[EquilibriumResult, ...]  # ranked by profit descending

    @property
    def best(self) -> EquilibriumResult:
        return self.results[0]

    def cell(self, k: int, policy: Optional[str], p_succ: float) -> EquilibriumResult:
        for res in self.results:
            d = res.design
            if d.k_agent == k and d.policy == policy and abs(d.p_succ - p_succ) < 1e-12:
                return res
        raise KeyError((k, policy, p_succ))


def optimize_design(
    template: ProblemInstance,
    market: MarketParams,
    prefs: CustomerPrefs,
    bot_curve: BotChannel,
    wage: Optional[float] = None,
) -> DesignSearch:
    """Profit over the full staffing x policy x training grid, ranked.

    The policy grid holds every admissible decision rule applied uniformly
    across attempts plus "OPT", which re-solves the optimal stationary policy
    at each bisection midpoint.  p_succ = 0 means the bot channel is absent.
    All cells bisect in one lockstep block, each independent of the others
    (see `solve_equilibrium`); ranking ties break on the (k, policy, p_succ)
    key, and an unconverged cell ranks by its profit at its reported lo.
    """
    if wage is not None:
        template = replace(template, econ=replace(template.econ, c_wage=wage))
    policies: list[Optional[str]] = list(rules_table()) + ["OPT"]
    p_values = [0.0] + [p for p in market.p_grid if p > 0.0]

    designs = [DesignPoint(k_agent=k, policy=label, p_succ=p)
               for k in range(0, market.k_max + 1)
               for label in ([None] if k == 0 else policies)
               for p in p_values]
    results = _solve_cells(template, designs, market, prefs, bot_curve)
    results.sort(key=lambda res: (-res.profit, res.design.k_agent,
                                  res.design.policy or "", res.design.p_succ))
    return DesignSearch(results=tuple(results))


@dataclass(frozen=True)
class Scenario:
    name: str
    bot_curve: BotChannel
    wage: float


def default_scenario_grid() -> list[Scenario]:
    """Twelve scenarios: four training-cost curves x three wage levels."""
    curves = [
        ("low-base-slow", BotChannel(p_succ=0.0, a_bot=0.00005, b_bot=2.6)),
        ("high-base-slow", BotChannel(p_succ=0.0, a_bot=0.00005, b_bot=3.0)),
        ("low-base-fast", BotChannel(p_succ=0.0, a_bot=0.00009, b_bot=2.6)),
        ("high-base-fast", BotChannel(p_succ=0.0, a_bot=0.00009, b_bot=3.0)),
    ]
    wages = [("low", 0.5), ("mid", 0.9), ("high", 1.3)]
    return [
        Scenario(name=f"{cname}/{wname}", bot_curve=curve, wage=wage)
        for cname, curve in curves
        for wname, wage in wages
    ]
