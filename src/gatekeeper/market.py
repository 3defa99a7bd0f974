"""Channel design under endogenous demand.

Customers hold independent uniform valuations for live-agent and chatbot
service, observe the announced performance of each channel (admission
probability, transfer mix, expected time in channel) and pick the channel, or
the outside option, maximizing expected utility.  The firm in turn picks
staffing, a resolution policy, and a chatbot training level.  Demand and
performance are reconciled by a fixed point on the per-agent arrival
probability, found by bisection on [Q_FLOOR, 1]: the firm delivers exactly the
service levels customers acted on.  The shares are exact areas, continuous in
the measures, so only an "OPT" policy switch can leave a jump with no fixed
point; the cell then reports its lower end.  The design optimizer scans the
full (staffing x policy x training) grid and reports the profit surface; all
its cells bisect together as arrays.  The announced measures come from the
renewal recursion (`evaluate.cycle_performance`), not from the embedded
chain, which stays the independent oracle in the tests.

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
    as_int,
    as_real,
    policy_from_actions,
    rules_table,
)
from .solve import dinkelbach

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
        for f in fields(self):
            object.__setattr__(self, f.name, as_real(getattr(self, f.name), f.name))
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

    def __post_init__(self):
        for f in fields(self):
            read = as_int if f.type == "int" else as_real
            object.__setattr__(self, f.name, read(getattr(self, f.name), f.name))


@dataclass(frozen=True)
class MarketParams:
    """Total market size and the design grids."""

    lam: float = 0.9
    k_max: int = 7
    p_grid: tuple[float, ...] = tuple(round(0.05 * i, 2) for i in range(1, 20))

    def __post_init__(self):
        object.__setattr__(self, "lam", as_real(self.lam, "lam"))
        object.__setattr__(self, "k_max", as_int(self.k_max, "k_max"))
        if not isinstance(self.p_grid, (tuple, list)):
            raise ValueError(f"p_grid must be a list, got {self.p_grid!r}")
        object.__setattr__(self, "p_grid", tuple(as_real(p, "p_grid entry") for p in self.p_grid))
        if not 0 < self.lam <= self.k_max:
            raise ValueError("need 0 < lam <= k_max")


@dataclass(frozen=True)
class Shares:
    agent: float
    bot_direct: float
    balk: float
    fallback_fraction: float  # P(bot beats outside option | chose agent)


def _bot_threshold(bot: Optional[BotChannel], prefs: CustomerPrefs) -> float:
    """b = u0 + kappa: the bot beats the outside option iff v_b > b (never without a bot)."""
    return np.inf if bot is None else (prefs.u0 + prefs.c_time * bot.tau_bot
                                       + (1 - bot.p_succ) * prefs.delta_cold * prefs.tau_exp_cold)


def agent_service_cost(perf: PerformanceMeasures, prefs: CustomerPrefs) -> float:
    """Expected disutility of an admitted live-channel customer, ex valuation."""
    return (
        prefs.c_time * perf.t_channel
        + perf.p_warm * prefs.delta_warm * prefs.tau_exp_warm
        + perf.p_cold * prefs.delta_cold * prefs.tau_exp_cold
    )


def _lane_shares(b: np.ndarray, cost: np.ndarray, p_admit: np.ndarray,
                 prefs: CustomerPrefs) -> tuple[np.ndarray, ...]:
    """Exact shares (agent, bot_direct, balk, fallback) of lanes; b, cost and
    p_admit are arrays over lanes.  The agent is picked iff v_a >= x(v_b) =
    max(v_b - b, 0) + x0, x0 = u0 + cost + c_na (1 - p_admit) / p_admit, else
    the bot iff v_b > b, so each share is the area under a clipped linear
    function of v_b: a difference of H(y), the integral of clip(t, 0, v_max)
    over t < y.  Capping b and x0 at v_max moves no area and keeps every term
    finite; p_admit = 0 gives x0 = v_max, and nobody picks the agent.
    """
    V = prefs.v_max

    def H(y):
        return 0.5 * np.clip(y, 0.0, V) ** 2 + V * np.maximum(y - V, 0.0)

    b = np.minimum(b, V)
    x0 = np.minimum(prefs.u0 + cost + np.divide(prefs.c_not_admit * (1 - p_admit), p_admit,
                                                 out=np.full_like(p_admit, np.inf),
                                                 where=p_admit > 0), V)
    s, w = np.maximum(b, 0.0), np.maximum(x0, 0.0)   # v_b < s: x = x0; v_b > s: bot beats u0
    fallback = H(V - x0 + b - s) - H(b - x0)   # agent area over v_b > s
    bot = H(V - b + x0) - H(s - b + x0)        # bot area over v_b > s
    agent = s * (V - w) + fallback
    return (agent / V**2, bot / V**2, s * w / V**2,
            np.divide(fallback, agent, out=np.zeros_like(agent), where=agent > 0))


def compute_demand_shares(
    perf: Optional[PerformanceMeasures],
    bot: Optional[BotChannel],
    prefs: CustomerPrefs,
    p_admit: float,
) -> Shares:
    """Channel shares as exact areas of the valuation square.

    A customer joins the live channel iff its expected utility is at least
    both alternatives'; failing that, the bot iff it strictly beats the
    outside option.  Utilities are affine in both valuations, so each share
    is the area of a polygon (see `_lane_shares`).  A design without agents
    passes perf None and p_admit = 0.
    """
    cost = 0.0 if perf is None else agent_service_cost(perf, prefs)
    shares = _lane_shares(np.array([_bot_threshold(bot, prefs)]), np.array([cost]),
                          np.array([p_admit]), prefs)
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


def _solve_cells(
    template: ProblemInstance,
    designs: list[DesignPoint],
    market: MarketParams,
    prefs: CustomerPrefs,
    bot_curve: BotChannel,
) -> list[EquilibriumResult]:
    """Every design's demand fixed point; the staffed ones bisect in lockstep.

    Each design is a lane.  A staffed lane has its own bracket [lo, hi] and
    stopping rule (see `solve_equilibrium`); one pass evaluates every active
    lane's midpoint at once.  Uniform-rule lanes carry their rule's actions,
    "OPT" lanes take theirs from `dinkelbach` at the midpoint, and the
    measures come from the renewal recursion (`cycle_performance`), not the
    chain.  Each lane carries its bot's threshold, so one `_lane_shares` call
    gives every lane's shares.  An unstaffed lane admits nobody and needs no
    bisection.  Every step is elementwise over lanes, so a cell's result does
    not depend on which other cells share the block.
    """
    S, econ, table = template.S, template.econ, rules_table()
    bots = {p: replace(bot_curve, p_succ=p) if p else None for p in {d.p_succ for d in designs}}
    thresholds = {p: _bot_threshold(bot, prefs) for p, bot in bots.items()}
    b = np.array([thresholds[d.p_succ] for d in designs])
    k = np.array([d.k_agent for d in designs], dtype=float)
    opt = np.array([d.policy == "OPT" for d in designs], dtype=bool)
    acts = np.zeros((len(designs), S - 1, 4), dtype=np.int8)   # "OPT" lanes: set per pass
    for j, d in enumerate(designs):
        if d.policy in table:
            acts[j] = table[d.policy].actions

    # The reported evaluation of each lane: the converged midpoint, or else
    # the lower end lo of the collapsed bracket, the last midpoint with g > 0.
    # A lane whose lo never left Q_FLOOR converges: g >= Q_FLOOR - q there.
    # An unstaffed lane reports q = R = g = 0 and its shares at p_admit = 0.
    lo, hi = np.full(len(designs), _Q_FLOOR), np.ones(len(designs))
    iters = np.zeros(len(designs), dtype=int)
    converged = k == 0
    rep = np.zeros((13, len(designs)))   # q, R, g, the six measures, the four shares
    rep[9:] = _lane_shares(b, 0 * k, 0 * k, prefs)
    rep_acts = acts.copy()
    active = np.flatnonzero(~converged)
    while active.size:
        q = 0.5 * (lo[active] + hi[active])
        iters[active] += 1
        if opt[active].any():
            acts[active[opt[active]]] = dinkelbach(lane_terms(template, q[opt[active]]))[1]
        R, perf = cycle_performance(template, q, acts[active])
        shares = _lane_shares(b[active], agent_service_cost(perf, prefs), perf.p_admit, prefs)
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

    results = []
    for j, d in enumerate(designs):
        q, R, g, *rest = rep[:, j].tolist()
        perf, shares = PerformanceMeasures(*rest[:6]), Shares(*rest[6:])
        q_bot = market.lam * (
            shares.bot_direct + shares.agent * (1 - perf.p_admit) * shares.fallback_fraction
        )
        profit, parts = _profit(d.k_agent, R, econ.c_wage, q_bot, bots[d.p_succ], econ)
        staffed = d.k_agent > 0
        results.append(EquilibriumResult(
            design=d, q_per_agent=q, q_bot_effective=q_bot, shares=shares,
            perf=perf if staffed else None,
            policy=policy_from_actions(rep_acts[j]) if staffed else None,
            agent_reward=R, profit=profit, profit_parts=parts, converged=bool(converged[j]),
            iterations=int(iters[j]), residual=abs(g),
        ))
    return results


def solve_equilibrium(
    template: ProblemInstance,
    design: DesignPoint,
    market: MarketParams,
    prefs: CustomerPrefs,
    bot_curve: BotChannel = BotChannel(p_succ=0.0),
) -> EquilibriumResult:
    """Self-consistent demand split for one design, by bisection.

    At per-agent arrival probability q the announced performance sets demand
    F(q) = clip(lam * share_agent(q) / k, Q_FLOOR, 1).  The clip makes
    g(q) = F(q) - q nonnegative at Q_FLOOR and nonpositive at 1, so bisection
    on that bracket, keeping g(lo) >= 0 >= g(hi), always ends: converged at
    the first midpoint with |g| < FP_TOL, or unconverged once the bracket can
    no longer be halved.  The shares are continuous in the measures, so g can
    only jump over zero where an "OPT" design's optimal policy switches.  Such
    a cell is reported at the bracket's lower end lo, the largest evaluated q
    with g > 0: its measures, shares, reward, profit and residual g(lo) are
    those of that evaluation.  The bot's
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
) -> DesignSearch:
    """Profit over the full staffing x policy x training grid, ranked.

    The policy grid holds every admissible decision rule applied uniformly
    across attempts plus "OPT", which re-solves the optimal stationary policy
    at each bisection midpoint.  p_succ = 0 means the bot channel is absent.
    All cells bisect in one lockstep block, each independent of the others
    (see `solve_equilibrium`); ranking ties break on the (k, policy, p_succ)
    key, and an unconverged cell ranks by its profit at its reported lo.
    """
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
