"""Channel design under endogenous demand.

Customers hold independent uniform valuations for live-agent and chatbot
service, observe the announced performance of each channel (admission
probability, transfer mix, expected time in channel) and pick the channel, or
the outside option, maximizing expected utility.  The firm in turn picks
staffing, a resolution policy, and a chatbot training level.  Demand and
performance are reconciled by a fixed point on the per-agent arrival
probability, found by bisection on [Q_FLOOR, 1]: the firm delivers exactly the
service levels customers acted on, or the cell reports the jump of the
lattice-share step function that leaves no exact fixed point.  The design
optimizer scans the full (staffing x policy x training) grid and reports the
profit surface.

The chatbot resolves a request with probability p_succ bought through a
convex per-period training cost a_bot * (100 p_succ)^b_bot; failures are
always cold transfers (bots cannot warm transfer), and the bot channel is
never congested.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .evaluate import PerformanceMeasures, evaluate_policy
from .model import (
    EconomicParams,
    ProblemInstance,
    ResolutionProfile,
    StationaryPolicy,
    TrafficParams,
    rules_table,
    uniform_policy,
)
from .solve import solve_average_reward

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


def _bot_utilities(bot: BotChannel, prefs: CustomerPrefs, v: np.ndarray) -> np.ndarray:
    return v - prefs.c_time * bot.tau_bot - (1 - bot.p_succ) * prefs.delta_cold * prefs.tau_exp_cold


def agent_service_cost(perf: PerformanceMeasures, prefs: CustomerPrefs) -> float:
    """Expected disutility of an admitted live-channel customer, ex valuation."""
    return (
        prefs.c_time * perf.t_channel
        + perf.p_warm * prefs.delta_warm * prefs.tau_exp_warm
        + perf.p_cold * prefs.delta_cold * prefs.tau_exp_cold
    )


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
    n = prefs.grid_n
    if n < MIN_GRID:
        raise ValueError(f"grid resolution {n} below the minimum {MIN_GRID}")
    h = prefs.v_max / n
    v = (np.arange(n) + 0.5) * h

    if bot is not None:
        u_bot = _bot_utilities(bot, prefs, v)
        best_alt = np.maximum(u_bot, prefs.u0)   # per column: max(U_bot, U0)
        bot_ok = u_bot > prefs.u0
    else:
        best_alt = np.full(n, prefs.u0)
        bot_ok = np.zeros(n, dtype=bool)

    if perf is None or p_admit <= 0.0:
        count_agent = np.zeros(n, dtype=np.int64)
    else:
        # U_agent(v_a, v_b) = p_admit (v_a - t_cost) + (1-p_admit)(-c_na + best_alt)
        # >= best_alt  iff  v_a >= best_alt + t_cost + c_na (1-p_admit)/p_admit.
        x = best_alt + agent_service_cost(perf, prefs) + prefs.c_not_admit * (1 - p_admit) / p_admit
        first = np.ceil(x / h - 0.5).astype(np.int64).clip(0, n)
        count_agent = n - first

    total = n * n
    agent = float(count_agent.sum()) / total
    bot_direct = float(((n - count_agent) * bot_ok).sum()) / total
    balk = 1.0 - agent - bot_direct
    picked = count_agent.sum()
    fallback = float((count_agent * bot_ok).sum() / picked) if picked and bot is not None else 0.0
    return Shares(agent=agent, bot_direct=bot_direct, balk=balk, fallback_fraction=fallback)


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
    with no exact fixed point; q and |g| are then those of the last midpoint.
    The bot's effective demand adds blocked live-channel customers who still
    prefer the bot over balking.
    """
    bot = None
    if design.p_succ > 0.0:
        if bot_curve is None:
            bot = BotChannel(p_succ=design.p_succ)
        else:
            bot = replace(bot_curve, p_succ=design.p_succ)

    wage = template.econ.c_wage
    if design.k_agent == 0:
        shares = compute_demand_shares(None, bot, prefs, 0.0)
        q_bot = market.lam * shares.bot_direct
        profit, parts = _profit(0, 0.0, wage, q_bot, bot, template.econ)
        return EquilibriumResult(
            design=design, q_per_agent=0.0, q_bot_effective=q_bot, shares=shares,
            perf=None, policy=None, agent_reward=0.0, profit=profit,
            profit_parts=parts, converged=True, iterations=0, residual=0.0,
        )

    k = design.k_agent
    lo, hi = _Q_FLOOR, 1.0
    iters = 0
    while True:
        q = 0.5 * (lo + hi)
        iters += 1
        inst = template.with_q(q)
        if design.policy == "OPT":
            policy, ev = solve_average_reward(inst)
        else:
            policy = uniform_policy(design.policy, inst.S)
            ev = evaluate_policy(inst, policy)
        shares = compute_demand_shares(ev.perf, bot, prefs, ev.perf.p_admit)
        g = min(max(market.lam * shares.agent / k, _Q_FLOOR), 1.0) - q
        if abs(g) < _FP_TOL:
            break
        if g > 0:
            lo = q
        else:
            hi = q
        if not lo < 0.5 * (lo + hi) < hi:
            break

    perf = ev.perf
    q_bot = market.lam * (
        shares.bot_direct + shares.agent * (1 - perf.p_admit) * shares.fallback_fraction
    )
    profit, parts = _profit(k, ev.R, wage, q_bot, bot, template.econ)
    return EquilibriumResult(
        design=design, q_per_agent=q, q_bot_effective=q_bot, shares=shares,
        perf=perf, policy=policy,
        agent_reward=ev.R, profit=profit, profit_parts=parts,
        converged=abs(g) < _FP_TOL, iterations=iters, residual=abs(g),
    )


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
    Cells are independent; ranking ties break on the (k, policy, p_succ) key.
    """
    if wage is not None:
        template = replace(template, econ=replace(template.econ, c_wage=wage))
    policies: list[Optional[str]] = list(rules_table()) + ["OPT"]
    p_values = [0.0] + [p for p in market.p_grid if p > 0.0]

    results = []
    for k in range(0, market.k_max + 1):
        for label in [None] if k == 0 else policies:
            for p in p_values:
                design = DesignPoint(k_agent=k, policy=label, p_succ=p)
                results.append(solve_equilibrium(template, design, market, prefs, bot_curve))
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
