"""Channel design under endogenous demand.

Customers hold independent uniform valuations for live-agent and chatbot
service, observe the announced performance of each channel (admission
probability, transfer mix, expected time in channel) and pick the channel, or
the outside option, maximizing expected utility.  The firm in turn picks
staffing, a resolution policy, and a chatbot training level.  Demand and
performance are reconciled by a fixed point on the per-agent arrival
probability, found by the ITP bracketing method on [Q_FLOOR, 1]: the firm
delivers exactly the service levels customers acted on.  The shares are exact
areas, continuous in the measures, so only an "OPT" policy switch can leave a
jump with no fixed point; the cell then reports its lower end.  The design
optimizer scans the full (staffing x policy x training) grid and reports the
profit surface; all its cells search together as arrays.  The announced
measures come from the renewal recursion, one `evaluate.LaneEvaluator` per
solve, not from the embedded chain, which stays the independent oracle in the
tests.

The chatbot resolves a request with probability p_succ bought through a
convex per-period training cost a_bot * (100 p_succ)^b_bot; failures are
always cold transfers (bots cannot warm transfer), and the bot channel is
never congested.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .evaluate import LaneEvaluator, PerformanceMeasures
# evaluate_policy is not called here: the benchmark harness's tracing
# self-test installs and removes a span on `market.evaluate_policy`.
from .evaluate import evaluate_policy  # noqa: F401
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
        if self.tau_bot < 0:
            raise ValueError(f"tau_bot must be nonnegative, got {self.tau_bot}")
        if self.a_bot < 0:
            raise ValueError("a_bot must be nonnegative")
        if self.b_bot <= 1:
            raise ValueError("b_bot must exceed 1 (convex training cost)")


def _training_cost(p_succ: float, a_bot: float, b_bot: float) -> float:
    """a_bot * (100 * p_succ)^b_bot; zero when untrained or free, +inf past the float range."""
    if p_succ == 0.0 or a_bot == 0.0:
        return 0.0
    try:
        return a_bot * (100.0 * p_succ) ** b_bot
    except OverflowError:
        return math.inf


def bot_training_cost(bot: BotChannel) -> float:
    """Per-period training cost a_bot * (100 * p_succ)^b_bot; zero when untrained."""
    return _training_cost(bot.p_succ, bot.a_bot, bot.b_bot)


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
        if self.v_max <= 0:
            raise ValueError(f"v_max must be positive, got {self.v_max}")
        if not sys.float_info.min <= self.v_max * self.v_max <= sys.float_info.max:   # V**2 scales the shares
            raise ValueError("v_max must have a finite normal square (about 1.5e-154 to 1.3e154), "
                             f"got {self.v_max}")
        for name in ("tau_exp_warm", "tau_exp_cold"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")


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
        for i, p in enumerate(self.p_grid):
            if not 0.0 <= p < 1.0:
                raise ValueError(f"p_grid entries must lie in [0, 1), got {p}")
            if p in self.p_grid[:i]:
                raise ValueError(f"p_grid lists {p} twice")
        if not 0 < self.lam <= self.k_max:
            raise ValueError("need 0 < lam <= k_max")


@dataclass(frozen=True)
class Shares:
    agent: float
    bot_direct: float
    balk: float
    fallback_fraction: float  # P(bot beats outside option | chose agent)


def _bot_threshold(p_succ, tau_bot: float, prefs: CustomerPrefs):
    """b = u0 + kappa, over one p_succ or an array: the bot beats the outside option iff v_b > b."""
    return prefs.u0 + prefs.c_time * tau_bot + (1 - p_succ) * prefs.delta_cold * prefs.tau_exp_cold


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
    finite; p_admit = 0 gives x0 = v_max, and nobody picks the agent.  Where
    b >= 0, b - s = 0 leaves the fallback area H(V - x0) - H(b - x0), exactly
    0 once b is capped at v_max (no bot, or one nobody prefers to balking).
    """
    V = prefs.v_max

    def H(y):
        return 0.5 * np.clip(y, 0.0, V) ** 2 + V * np.maximum(y - V, 0.0)

    b = np.minimum(b, V)
    x0 = np.minimum(prefs.u0 + cost + np.divide(prefs.c_not_admit * (1 - p_admit), p_admit,
                                                 out=np.full_like(p_admit, np.inf),
                                                 where=p_admit > 0), V)
    s, w = np.maximum(b, 0.0), np.maximum(x0, 0.0)   # v_b < s: x = x0; v_b > s: bot beats u0
    h = H(np.stack([V - x0 + (b - s), b - x0, V - b + x0, s - b + x0]))
    fallback, bot = h[0] - h[1], h[2] - h[3]   # agent and bot areas over v_b > s
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
    b = np.inf if bot is None else _bot_threshold(bot.p_succ, bot.tau_bot, prefs)
    shares = _lane_shares(np.array([b]), np.array([cost]),
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
        if self.k_agent > 0 and self.policy != "OPT" and self.policy not in rules_table():
            raise ValueError("a staffed design needs a resolution policy, a rule label or 'OPT', "
                             f"got {self.policy!r}")
        if not 0.0 <= self.p_succ < 1.0:
            raise ValueError(f"p_succ must lie in [0, 1), got {self.p_succ}")


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


_PARTS = ("agent_revenue", "wages", "bot_margin", "bot_training")


class DesignGrid(NamedTuple):
    """Solved design cells as columns: cell j is (k[j], policy[j], p_succ[j]),
    on the last axis of every array.  No wage or training cost enters;
    `price` adds them."""

    tau_bot: float           # the bot's time in channel the cells were solved at
    k: np.ndarray            # agents staffed (int)
    policy: np.ndarray       # rule label, "OPT", or "" when k = 0 (str)
    p_succ: np.ndarray       # chatbot training level, 0 = no bot
    q: np.ndarray            # reported per-agent arrival probability (0 unstaffed)
    R: np.ndarray            # agent reward per agent per period there
    g: np.ndarray            # F(q) - q there
    measures: np.ndarray     # (6, n): the PerformanceMeasures fields
    shares: np.ndarray       # (4, n): the Shares fields
    actions: np.ndarray      # (S-1, 4, n)
    iterations: np.ndarray
    converged: np.ndarray
    q_bot: np.ndarray
    bot_margin: np.ndarray   # q_bot (r - (1 - p) c_c), 0 where p_succ = 0 (no bot)

    def take(self, cells) -> DesignGrid:
        return DesignGrid(self.tau_bot, *(a.take(cells, axis=-1) for a in self[1:]))

    def price(self, wage: float, bot_curve: BotChannel) -> DesignSearch:
        """The cells priced at a wage and a training-cost curve, ranked by
        profit descending, ties broken on the (k, policy, p_succ) key.

        Profit is ((k R - k wage) + margin) - a (100 p)^b, the training cost
        taken once per distinct p_succ (+inf past the float range, so its
        cells rank last).  The bot's threshold enters the fixed point, so the
        curve's tau_bot must be the one the grid was solved at.
        """
        if bot_curve.tau_bot != self.tau_bot:
            raise ValueError(f"the grid was solved at tau_bot = {self.tau_bot}, not {bot_curve.tau_bot}")
        p, at = np.unique(self.p_succ, return_inverse=True)
        training = [_training_cost(x, bot_curve.a_bot, bot_curve.b_bot) for x in p.tolist()]
        parts = np.array([self.k * self.R, self.k * wage, self.bot_margin, np.take(training, at)])
        profit = ((parts[0] - parts[1]) + parts[2]) - parts[3]
        order = np.lexsort((self.p_succ, self.policy, self.k, -profit))
        return DesignSearch(self.take(order), parts[:, order], profit[order])


@dataclass(frozen=True, eq=False)
class DesignSearch:
    """A priced design grid ranked by profit descending, as columns; a cell's
    EquilibriumResult, and its DesignPoint, are built when it is read."""

    grid: DesignGrid         # the solved cells, in rank order
    parts: np.ndarray        # (4, n): the profit parts, in _PARTS order
    profit: np.ndarray

    def _results(self, cells) -> list[EquilibriumResult]:
        """The given cells' EquilibriumResults; `policy_from_actions` runs once
        per distinct action row."""
        sub = self.grid.take(cells)
        k, label, p, q, R, g, iters, converged, q_bot, profit = (a.tolist() for a in (
            sub.k, sub.policy, sub.p_succ, sub.q, sub.R, sub.g, sub.iterations, sub.converged,
            sub.q_bot, self.profit.take(cells)))
        measures, shares, parts = (a.T.tolist() for a in (
            sub.measures, sub.shares, self.parts.take(cells, axis=-1)))
        policies, results = {}, []
        for j, k_j in enumerate(k):
            staffed, policy = k_j > 0, None
            if staffed:
                key = sub.actions[..., j].tobytes()
                if key not in policies:
                    policies[key] = policy_from_actions(sub.actions[..., j])
                policy = policies[key]
            results.append(EquilibriumResult(
                design=DesignPoint(k_j, label[j] or None, p[j]), q_per_agent=q[j],
                q_bot_effective=q_bot[j], shares=Shares(*shares[j]),
                perf=PerformanceMeasures(*measures[j]) if staffed else None, policy=policy,
                agent_reward=R[j], profit=profit[j], profit_parts=dict(zip(_PARTS, parts[j])),
                converged=converged[j], iterations=iters[j], residual=abs(g[j]),
            ))
        return results

    @property
    def best(self) -> EquilibriumResult:
        return self._results([0])[0]

    @cached_property
    def results(self) -> tuple[EquilibriumResult, ...]:
        return tuple(self._results(range(len(self.profit))))

    def cell(self, k: int, policy: Optional[str], p_succ: float) -> EquilibriumResult:
        g = self.grid
        at = np.flatnonzero((g.k == k) & (g.policy == (policy or ""))
                            & (abs(g.p_succ - p_succ) < 1e-12))
        if not at.size:
            raise KeyError((k, policy, p_succ))
        return self._results(at[:1])[0]


# The ITP step (Oliveira & Takahashi, ACM TOMS 47(1), 2020): the regula-falsi
# point, truncated toward the midpoint by K1 w^K2 and projected into a radius
# that keeps every bracket within 2^N0 times bisection's width.
_ITP_K1, _ITP_K2, _ITP_N0 = 0.01, 2.5, 1


def _itp_point(lo: np.ndarray, hi: np.ndarray, g_lo: np.ndarray, g_hi: np.ndarray,
               j: int) -> np.ndarray:
    """ITP's next q in each bracket [lo, hi] with g(lo) > 0 > g(hi), j passes
    after the end pass, or the midpoint where that q would not split it.

    ITP's tolerance eps enters only as eps 2^n_half, the half width its
    projection budgets for at the start; taking that to be bisection's,
    (1 - Q_FLOOR) / 2, makes the radius at pass j 2^N0 times bisection's half
    width after j halvings, less the bracket's own.  So no bracket is ever
    wider than 2^N0 times bisection's after as many passes.
    """
    mid, w = 0.5 * (lo + hi), hi - lo
    x_f = lo + w * g_lo / (g_lo - g_hi)                               # interpolate
    sigma, delta = np.sign(mid - x_f), _ITP_K1 * w**_ITP_K2
    x_t = np.where(delta <= np.abs(mid - x_f), x_f + sigma * delta, mid)   # truncate
    r = np.maximum((1 - _Q_FLOOR) * 2.0 ** (_ITP_N0 - 1 - j) - 0.5 * w, 0.0)
    x = np.where(np.abs(x_t - mid) <= r, x_t, mid - sigma * r)         # project
    return np.where((lo < x) & (x < hi), x, mid)


def _fixed_point_pass(lane_eval: LaneEvaluator, q: np.ndarray, b: np.ndarray, k: np.ndarray,
                      opt: np.ndarray, lam: float, prefs: CustomerPrefs) -> tuple[np.ndarray, np.ndarray]:
    """One pass of the solve, lane i at q[i]: g = F(q) - q, and the rows q, R,
    g, the six measures and the four shares.  The "OPT" lanes `opt` take
    their actions from `dinkelbach` at q."""
    lane_eval.at(q)
    lane_eval.set_actions(opt, dinkelbach(lane_eval.terms(opt))[1])
    R, perf = lane_eval.measures()
    shares = _lane_shares(b, agent_service_cost(perf, prefs), perf.p_admit, prefs)
    g = np.minimum(np.maximum(lam * shares[0] / k, _Q_FLOOR), 1.0) - q
    return g, np.vstack([q, R, g, *(getattr(perf, f.name) for f in fields(perf)), *shares])


def solve_designs(
    template: ProblemInstance,
    cells: tuple[np.ndarray, np.ndarray, np.ndarray],
    market: MarketParams,
    prefs: CustomerPrefs,
    tau_bot: float,
) -> DesignGrid:
    """Every design cell's demand fixed point; the staffed ones search in lockstep.

    The cells are the columns (k, policy, p_succ) of `design_points`, and
    each cell is a lane.  A staffed lane has its own bracket [lo, hi] and
    stopping rule (see `solve_equilibrium`).  The first pass evaluates both
    ends of every bracket; each later pass evaluates every active lane's ITP
    point (`_itp_point`) at once, and the lanes that stop leave the block.
    After the end pass a bracket is never wider than bisection's one halving
    earlier, so no lane takes more than two passes beyond bisection's count
    for the same bracket (up to rounding): at most about 74, since an ulp
    above Q_FLOOR > 2^-20 is at least 2^-72.  A lane's `iterations` counts
    its passes, the end pass once.
    Uniform-rule lanes carry their rule's actions, "OPT" lanes take theirs
    from `dinkelbach` at each evaluated q, and the measures come from the
    renewal recursion, not the chain: one `LaneEvaluator` builds the q-free
    rows once, and each pass's q terms serve both.  The lane arrays are compacted
    only in the passes where some lanes stop.  Lane j carries its bot's
    threshold, so one `_lane_shares` call gives every lane's shares.  An
    unstaffed lane admits nobody and needs no search.  Every step is
    elementwise over lanes, so a cell's result does not depend on which
    other cells share the block.

    The solve reads the template's attempts, fees and expert availability,
    and the bot only through its time in channel tau_bot: neither the wage
    nor the training-cost curve enters, and `DesignGrid.price` adds both.
    """
    k_col, policy, p = cells
    S, table, n, econ = template.S, rules_table(), len(k_col), template.econ
    k = k_col.astype(float)
    b = np.where(p != 0, _bot_threshold(p, tau_bot, prefs), np.inf)
    labels, at = np.unique(policy, return_inverse=True)
    rules = [table[x].actions if x in table else (0,) * 4 for x in labels.tolist()]   # "OPT": per pass
    acts = np.repeat(np.array(rules, dtype=np.int8)[at].reshape(n, 1, 4), S - 1, axis=1)

    # The reported evaluation of each lane: the converged q, or else the lower
    # end lo of the collapsed bracket, the largest evaluated q with g > 0.
    # An unstaffed lane reports q = R = g = 0 and its shares at p_admit = 0.
    iters = np.zeros(n, dtype=int)
    converged = k == 0
    rep = np.zeros((13, n))   # q, R, g, the six measures, the four shares
    rep[9:] = _lane_shares(b, 0 * k, 0 * k, prefs)
    rep_acts = acts.copy()
    lanes = np.flatnonzero(~converged)
    m, is_opt = lanes.size, policy[lanes] == "OPT"
    b, k = b[lanes], k[lanes]
    # The end pass: both ends of every bracket [Q_FLOOR, 1] as 2m lanes of one
    # pass.  The clip gives g(Q_FLOOR) >= 0 >= g(1), so a lane reports its lo
    # end unless only its hi end converged.
    lane_eval = LaneEvaluator(template, np.tile(acts[lanes], (2, 1, 1)))
    g, rows = _fixed_point_pass(lane_eval, np.repeat([_Q_FLOOR, 1.0], m), np.tile(b, 2),
                                np.tile(k, 2), np.flatnonzero(np.tile(is_opt, 2)), market.lam, prefs)
    near = np.abs(g) < _FP_TOL
    at_hi = near[m:] & ~near[:m]
    keep = np.flatnonzero(np.concatenate([~at_hi, at_hi]))
    cols = np.tile(lanes, 2)[keep]
    rep[:, cols], rep_acts[cols] = rows[:, keep], lane_eval.actions[keep]
    iters[lanes], converged[lanes] = 1, near[:m] | near[m:]
    stay = np.flatnonzero(~converged[lanes])
    lanes, b, k, is_opt, g_lo, g_hi = (a.take(stay) for a in (lanes, b, k, is_opt, g[:m], g[m:]))
    lo, hi, passes = np.full(lanes.size, _Q_FLOOR), np.ones(lanes.size), 0
    lane_eval.keep(stay)
    while lanes.size:
        q = _itp_point(lo, hi, g_lo, g_hi, passes)
        iters[lanes] += 1
        passes += 1
        g, rows = _fixed_point_pass(lane_eval, q, b, k, np.flatnonzero(is_opt), market.lam, prefs)
        done, up = np.abs(g) < _FP_TOL, g > 0
        keep = np.flatnonzero(done | up)
        rep[:, lanes[keep]], rep_acts[lanes[keep]] = rows[:, keep], lane_eval.actions[keep]
        converged[lanes[done]] = True
        lo, hi = np.where(up, q, lo), np.where(up, hi, q)
        g_lo, g_hi = np.where(up, g, g_lo), np.where(up, g_hi, g)
        mid = 0.5 * (lo + hi)
        stay = ~done & (lo < mid) & (mid < hi)
        if not stay.all():
            stay = np.flatnonzero(stay)
            lanes, lo, hi, g_lo, g_hi, b, k, is_opt = (
                a.take(stay) for a in (lanes, lo, hi, g_lo, g_hi, b, k, is_opt))
            lane_eval.keep(stay)

    measures, shares = rep[3:9], rep[9:]
    (agent, bot_direct, _, fallback), p_admit = shares, measures[1]
    q_bot = market.lam * (bot_direct + agent * (1 - p_admit) * fallback)
    margin = np.where(p != 0, q_bot * (econ.r - (1 - p) * econ.c_c), 0.0)
    return DesignGrid(tau_bot, k_col, policy, p, rep[0], rep[1], rep[2], measures, shares,
                      rep_acts.transpose(1, 2, 0), iters, converged, q_bot, margin)


def design_points(market: MarketParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The full staffing x policy x training grid as columns (k, policy,
    p_succ), k-major: every decision rule applied uniformly across attempts
    plus "OPT", which re-solves the optimal policy at each q the fixed-point
    search evaluates, "" when k = 0; p_succ = 0 means the bot channel is
    absent."""
    labels = list(rules_table()) + ["OPT"]
    p_values = [0.0] + [p for p in market.p_grid if p > 0.0]
    k = np.repeat(np.arange(market.k_max + 1), [1] + [len(labels)] * market.k_max)   # per (k, label)
    policy = np.array([""] + labels * market.k_max)
    return np.repeat(k, len(p_values)), np.repeat(policy, len(p_values)), np.tile(p_values, len(k))


def solve_equilibrium(
    template: ProblemInstance,
    design: DesignPoint,
    market: MarketParams,
    prefs: CustomerPrefs,
    bot_curve: BotChannel = BotChannel(p_succ=0.0),
) -> EquilibriumResult:
    """Self-consistent demand split for one design, by the ITP method.

    At per-agent arrival probability q the announced performance sets demand
    F(q) = clip(lam * share_agent(q) / k, Q_FLOOR, 1).  The clip makes
    g(q) = F(q) - q nonnegative at Q_FLOOR and nonpositive at 1, so a
    bracketing search from both ends, keeping g(lo) > 0 > g(hi), always ends:
    converged at the first evaluated q with |g| < FP_TOL, or unconverged once
    the bracket can no longer be halved, within about 74 passes (see
    `solve_designs`).  Where g crosses zero more than once the cell reports
    the crossing its search reaches.  The shares are continuous in the
    measures, so g can only jump over zero where an "OPT" design's optimal
    policy switches.  Such a cell is reported at the bracket's lower end lo,
    the largest evaluated q with g > 0: its measures, shares, reward, profit
    and residual g(lo) are those of that evaluation.  The bot's effective
    demand adds blocked live-channel customers who still prefer the bot over
    balking.  One cell of `optimize_design`'s lockstep block.
    """
    cell = (np.array([design.k_agent]), np.array([design.policy or ""]), np.array([design.p_succ]))
    grid = solve_designs(template, cell, market, prefs, bot_curve.tau_bot)
    return grid.price(template.econ.c_wage, bot_curve).best


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


def optimize_design(
    template: ProblemInstance,
    market: MarketParams,
    prefs: CustomerPrefs,
    bot_curve: BotChannel,
) -> DesignSearch:
    """Profit over the full grid (`design_points`), ranked: one lockstep solve
    priced at the template's wage and the bot's curve.  An unconverged cell
    ranks by its profit at its reported lo (see `solve_equilibrium`)."""
    grid = solve_designs(template, design_points(market), market, prefs, bot_curve.tau_bot)
    return grid.price(template.econ.c_wage, bot_curve)


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
