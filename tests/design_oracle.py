"""Oracles of the design layer of `gatekeeper.market`.

`solve_grid` is the demand fixed point by the per-pass route: every pass
builds each lane's renewal terms from scratch (`lane_terms`, over
`block_terms`), concatenates the q-free measure rows onto them
(`measure_rows`) and runs the recursion on the whole stack
(`lane_performance`).  It takes the same steps as `solve_designs`, an end
pass and then ITP points (`market._itp_point`), so `solve_designs`, which
builds the q-free rows once per solve (`evaluate.LaneEvaluator`), must
equal it, column for column and bit for bit.

`solve_grid(..., bisect=True)` is plain bisection on [Q_FLOOR, 1], the
midpoint from the first pass on, with the same stopping and reporting
rules.  The ITP solve must converge on the same cells, end unconverged
cells at the same jump and take at most two passes more per cell.

`equilibrium_result` reads cell j of a solved grid (a `DesignGrid`) as
Python floats, prices it with the scalar profit formula and converts its
actions to a policy on its own, so the lazily built results of the priced
ranking (a `DesignSearch`, from `DesignGrid.price`) must equal it, bit for
bit.
"""
from dataclasses import fields, replace
from typing import Optional

import numpy as np

from gatekeeper.evaluate import PerformanceMeasures, RenewalTerms, _policy_pass, block_terms
from gatekeeper.market import (
    _FP_TOL,
    _Q_FLOOR,
    BotChannel,
    CustomerPrefs,
    DesignGrid,
    DesignPoint,
    EquilibriumResult,
    MarketParams,
    Shares,
    _bot_threshold,
    _itp_point,
    _lane_shares,
    agent_service_cost,
    bot_training_cost,
)
from gatekeeper.model import EconomicParams, ProblemInstance, policy_from_actions, rules_table
from gatekeeper.solve import dinkelbach


def lane_terms(inst: ProblemInstance, q: np.ndarray) -> RenewalTerms:
    """Renewal terms of `inst` at each arrival probability in q."""
    lane = np.ones_like(q)
    tau, rho = (np.array(v, dtype=float)[:, None] * lane for v in (inst.profile.tau, inst.profile.rho))
    econ = inst.econ
    return block_terms(tau, rho, *(v * lane for v in (econ.r, econ.c_w, econ.c_c, econ.tau_w)),
                       q, inst.traffic.a * lane)


def measure_rows(inst: ProblemInstance) -> tuple[np.ndarray, np.ndarray]:
    """The q-free rows carried next to W and D: busy, resolve, warm and cold
    of each attempt's own part (S, 4) and of a warm / cold transfer per
    (Q, A) (4, 2, 4)."""
    tau_w, a = inst.econ.tau_w, inst.traffic.a
    head = [[tau_x, rho_x, 0.0, 0.0] for tau_x, rho_x in zip(inst.profile.tau, inst.profile.rho)]
    trans = [[[1 / a + tau_w] * 2 + [tau_w] * 2, [0.0] * 4], [[0.0] * 4] * 2,
             [[1.0] * 4, [0.0] * 4], [[0.0] * 4, [1.0] * 4]]
    return np.array(head)[..., None], np.array(trans)[..., None]


def lane_performance(t: RenewalTerms, rows: tuple[np.ndarray, np.ndarray], q: np.ndarray,
                     actions: np.ndarray) -> tuple[np.ndarray, PerformanceMeasures]:
    """Average reward and measures per lane from the lanes' renewal terms t
    (`lane_terms` at q) and the instance's `measure_rows`."""
    (S, N), (head, trans) = t.head.shape[::2], rows
    W, D, busy, res, warm, cold = _policy_pass(
        np.concatenate([t.head, np.broadcast_to(head, (S, 4, N))], axis=1),
        t.fail,
        np.concatenate([t.trans, np.broadcast_to(trans, (4, 2, 4, N))]),
        actions,
    )
    return W / D, PerformanceMeasures(throughput=1 / D, p_admit=1 / (q * D), p_resolve=res,
                                      p_warm=warm, p_cold=cold, t_channel=busy)


def lane_pass(template: ProblemInstance, rows: tuple[np.ndarray, np.ndarray], q: np.ndarray,
              b: np.ndarray, k: np.ndarray, acts: np.ndarray, is_opt: np.ndarray,
              market: MarketParams, prefs: CustomerPrefs) -> tuple[np.ndarray, np.ndarray]:
    """One pass from scratch, lane i at q[i]: g = F(q) - q and the rows q, R,
    g, the six measures and the four shares.  The "OPT" lanes' actions in
    `acts` are set from `dinkelbach` at q."""
    t = lane_terms(template, q)
    opt = np.flatnonzero(is_opt)
    if opt.size:
        acts[opt] = dinkelbach(t._make(a.take(opt, axis=-1) for a in t))[1]
    R, perf = lane_performance(t, rows, q, acts)
    shares = _lane_shares(b, agent_service_cost(perf, prefs), perf.p_admit, prefs)
    g = np.minimum(np.maximum(market.lam * shares[0] / k, _Q_FLOOR), 1.0) - q
    return g, np.vstack([q, R, g, *(getattr(perf, f.name) for f in fields(perf)), *shares])


def solve_grid(template: ProblemInstance, cells: tuple[np.ndarray, np.ndarray, np.ndarray],
               market: MarketParams, prefs: CustomerPrefs, tau_bot: float,
               bisect: bool = False) -> DesignGrid:
    """`market.solve_designs`, every pass evaluated from scratch.  With
    `bisect` every pass evaluates the bracket's midpoint instead, from the
    first on, and no end pass is taken."""
    k_col, policy, p = cells
    S, table, n, econ = template.S, rules_table(), len(k_col), template.econ
    k = k_col.astype(float)
    b = np.where(p != 0, _bot_threshold(p, tau_bot, prefs), np.inf)
    acts = np.zeros((n, S - 1, 4), dtype=np.int8)
    for j, label in enumerate(policy.tolist()):
        if label in table:
            acts[j] = table[label].actions
    iters = np.zeros(n, dtype=int)
    converged = k == 0
    rep = np.zeros((13, n))   # q, R, g, the six measures, the four shares
    rep[9:] = _lane_shares(b, 0 * k, 0 * k, prefs)
    rep_acts = acts.copy()
    rows = measure_rows(template)
    lanes = np.flatnonzero(~converged)
    is_opt = policy[lanes] == "OPT"
    b, k, acts = b[lanes], k[lanes], acts[lanes]
    lo, hi = np.full(lanes.size, _Q_FLOOR), np.ones(lanes.size)
    g_lo, g_hi = np.full(lanes.size, np.nan), np.full(lanes.size, np.nan)
    if not bisect:
        # the end pass: q = Q_FLOOR for each lane, then q = 1 for each lane
        m, two = lanes.size, np.concatenate([lanes, lanes])
        end_acts = np.concatenate([acts, acts])
        g, out = lane_pass(template, rows, np.repeat([_Q_FLOOR, 1.0], m), np.concatenate([b, b]),
                           np.concatenate([k, k]), end_acts, np.concatenate([is_opt, is_opt]),
                           market, prefs)
        iters[lanes] = 1
        for i in range(2 * m):
            j = two[i]
            if abs(g[i]) < _FP_TOL or (i < m and not abs(g[i + m]) < _FP_TOL):
                if not converged[j]:   # lo end first: a lane converged at both ends reports lo
                    rep[:, j], rep_acts[j] = out[:, i], end_acts[i]
                converged[j] |= abs(g[i]) < _FP_TOL
        stay = ~converged[lanes]
        g_lo, g_hi = g[:m][stay], g[m:][stay]
        lanes, lo, hi, b, k, acts, is_opt = (a[stay] for a in (lanes, lo, hi, b, k, acts, is_opt))
    passes = 0
    while lanes.size:
        q = 0.5 * (lo + hi) if bisect else _itp_point(lo, hi, g_lo, g_hi, passes)
        iters[lanes] += 1
        passes += 1
        g, out = lane_pass(template, rows, q, b, k, acts, is_opt, market, prefs)
        done, up = np.abs(g) < _FP_TOL, g > 0
        keep = np.flatnonzero(done | up)
        rep[:, lanes[keep]] = out[:, keep]
        rep_acts[lanes[keep]] = acts[keep]
        converged[lanes[done]] = True
        lo, hi = np.where(up, q, lo), np.where(up, hi, q)
        g_lo, g_hi = np.where(up, g, g_lo), np.where(up, g_hi, g)
        mid = 0.5 * (lo + hi)
        stay = ~done & (lo < mid) & (mid < hi)
        lanes, lo, hi, g_lo, g_hi, b, k, acts, is_opt = (
            a[stay] for a in (lanes, lo, hi, g_lo, g_hi, b, k, acts, is_opt))
    measures, shares = rep[3:9], rep[9:]
    (agent, bot_direct, _, fallback), p_admit = shares, measures[1]
    q_bot = market.lam * (bot_direct + agent * (1 - p_admit) * fallback)
    margin = np.where(p != 0, q_bot * (econ.r - (1 - p) * econ.c_c), 0.0)
    return DesignGrid(tau_bot, k_col, policy, p, rep[0], rep[1], rep[2], measures, shares,
                      rep_acts.transpose(1, 2, 0), iters, converged, q_bot, margin)


def profit(
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
    total = parts["agent_revenue"] - parts["wages"] + parts["bot_margin"] - parts["bot_training"]
    return total, parts


def equilibrium_result(grid: DesignGrid, j: int, market: MarketParams, econ: EconomicParams,
                       bot_curve: BotChannel) -> EquilibriumResult:
    k, label, p_succ = (a[j].item() for a in (grid.k, grid.policy, grid.p_succ))
    d = DesignPoint(k, label or None, p_succ)
    q, R, g = (float(a[j]) for a in (grid.q, grid.R, grid.g))
    perf = PerformanceMeasures(*(float(v) for v in grid.measures[:, j]))
    shares = Shares(*(float(v) for v in grid.shares[:, j]))
    q_bot = market.lam * (
        shares.bot_direct + shares.agent * (1 - perf.p_admit) * shares.fallback_fraction
    )
    bot = replace(bot_curve, p_succ=d.p_succ) if d.p_succ else None
    total, parts = profit(d.k_agent, R, econ.c_wage, q_bot, bot, econ)
    staffed = d.k_agent > 0
    return EquilibriumResult(
        design=d, q_per_agent=q, q_bot_effective=q_bot, shares=shares,
        perf=perf if staffed else None,
        policy=policy_from_actions(grid.actions[..., j]) if staffed else None,
        agent_reward=R, profit=total, profit_parts=parts, converged=bool(grid.converged[j]),
        iterations=int(grid.iterations[j]), residual=abs(g),
    )
