"""Finite-waiting-room variant: two attempts, cold transfers only.

Arrivals that find the agent busy join a waiting room of capacity N (and are
blocked when it is full); after a failed first attempt the agent may cold
transfer.  A policy transfers iff Q >= n, Q being the number waiting plus any
same-period arrival, or never, and induces a per-period discrete-time Markov
chain whose stationary distribution yields profit per period.  With N = 0 the
chain reduces exactly to the no-waiting-room channel restricted to the
never/always-transfer rules.

Event order within a period: (1) arrival draw; (2) completion processing —
resolution draw, then the transfer decision using Q including the current
arrival; transfers are instantaneous; (3) a freed agent pulls the head of the
queue, else takes the current arrival directly; (4) an unconsumed arrival
joins the room if space remains, otherwise it is blocked; (5) one period of
service work elapses.

The level, the number waiting, moves by at most one per period, so the chain
is kept as level blocks only (`_level_blocks`), for a period with an arrival
(weighted q) and one without (weighted 1 - q): a level-dependent
quasi-birth-death chain (Latouche & Ramaswami 1999, ch. 6) in which every
step down lands in the phase that starts a first attempt.  A level's phases
are listed once, in the order of a service cycle, and the blocks, the solve
and QueueEvaluation's states all follow that order.  Policies differ
only in what a failed first attempt does, so the blocks are built once, with
that row both ways, and each policy picks one at each level.  Every interior
q of a grid, for every policy, is then one lane of a single solve, level by
level, each level read off by one forward pass along a service cycle, which
subtracts nothing (`_level_solve`).  At q = 0 no arrival comes and the empty
system keeps all the mass; at q = 1 the queue never shortens, and the agent
ends up repeating one service cycle at one level (`_saturated`).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .evaluate import _RESIDUAL_TOL, EvaluationError
from .model import EconomicParams, ResolutionProfile, as_int, as_real

IDLE = ("idle",)


@dataclass(frozen=True)
class QueueModel:
    N: int
    profile: ResolutionProfile
    econ: EconomicParams
    q: float

    def __post_init__(self):
        object.__setattr__(self, "N", as_int(self.N, "N"))
        object.__setattr__(self, "q", as_real(self.q, "q"))
        bad = validate_queue_model(self)
        if bad:
            raise ValueError("invalid queue model: " + "; ".join(bad))

    @property
    def tau1(self) -> int:
        return self.profile.tau[0]

    @property
    def tau2(self) -> int:
        return self.profile.tau[1]

    @property
    def rho1(self) -> float:
        return self.profile.rho[0]


def validate_queue_model(model: QueueModel) -> list[str]:
    out = []
    if model.N < 0:
        out.append("N must be nonnegative")
    if model.profile.S != 2:
        out.append("waiting-room model requires exactly two attempts")
    elif len(model.profile.rho) != 2:
        out.append("tau and rho must have the same length")
    else:
        if not 0.0 <= model.profile.rho[0] <= 1.0:
            out.append("rho[1] must lie in [0, 1]")
        if model.profile.rho[-1] != 1.0:
            out.append("rho[2] must equal 1")
    if any(t < 1 for t in model.profile.tau):
        out.append("attempt times must be positive integers")
    if model.econ.r <= 0:
        out.append("r must be positive")
    if model.econ.c_c < 0:
        out.append("c_c must be nonnegative")
    if not 0.0 <= model.q <= 1.0:
        out.append("q must lie in [0, 1]")
    return out


def default_queue_model(N: int = 6, q: float = 0.5) -> QueueModel:
    """Default parameterization used for the policy sweeps."""
    return QueueModel(
        N=N,
        profile=ResolutionProfile((6, 15), (0.7, 1.0)),
        econ=EconomicParams(r=20.0, c_w=0.0, c_c=5.0, tau_w=1),
        q=q,
    )


@dataclass(frozen=True)
class QueuePolicy:
    """Transfer after a failed first attempt iff Q >= n, and never when n is
    None: never, always (n = 0) or qge<n> (n >= 1)."""

    n: int | None = None

    def __post_init__(self):
        if self.n is not None:
            object.__setattr__(self, "n", as_int(self.n, "n"))
            if self.n < 0:
                raise ValueError(f"n must be nonnegative, got {self.n}")

    @classmethod
    def never(cls) -> "QueuePolicy":
        return cls()

    @classmethod
    def always(cls) -> "QueuePolicy":
        return cls(0)

    @classmethod
    def when_queue_at_least(cls, n: int) -> "QueuePolicy":
        if n < 1:
            raise ValueError(f"threshold n must be >= 1, got {n}")
        return cls(n)

    def transfers(self, q_obs: int) -> bool:
        return self.n is not None and q_obs >= self.n

    @property
    def label(self) -> str:
        return "never" if self.n is None else "always" if self.n == 0 else f"qge{self.n}"


def queue_policy_from_label(label: str) -> QueuePolicy:
    if re.fullmatch("never|always|qge[1-9][0-9]*", label):
        return QueuePolicy(None if label == "never" else 0 if label == "always" else int(label[3:]))
    raise ValueError(f"queue policy must be never, always or qge<n> with n >= 1, got {label!r}")


def admissible_queue_policies(model: QueueModel) -> list[QueuePolicy]:
    """never, always, and one threshold policy per 1 <= n <= N."""
    return [QueuePolicy.never()] + [QueuePolicy(n) for n in range(model.N + 1)]


@dataclass(frozen=True)
class QueueEvaluation:
    pi: np.ndarray
    states: tuple[tuple, ...]   # (phase, w), phase-major in cycle order
    profit: float          # per period, wage excluded
    throughput: float      # admissions per period
    transfer_rate: float
    blocking_rate: float
    resolve_rate: float


def _level_blocks(model: QueueModel) -> tuple[list[tuple], np.ndarray, np.ndarray]:
    """Phases, level blocks and rates of a period with (b = 1) and without
    (b = 0) an arrival.

    A phase is idle, ("pend", k) with the completion decision due, or
    ("busy", k, j) with j work periods remaining, listed along a service
    cycle from phase 0, which starts a first attempt and where every level is
    entered from above: the first attempt's busy phases counting down,
    ("pend", 1), the second attempt's busy phases counting down, ("pend", 2)
    and idle.  Each phase either advances to the next or ends a service.
    A[w, b, i, d, j] is the probability of going from phase i with w waiting
    to phase j with w - 1 + d waiting; rates[b, k, i, w] holds the rates
    (reward, admissions, transfers, blocked arrivals and resolutions per
    period) of phase i with w waiting.  Both have ("pend", 1) continue after a failed first attempt; their row m
    has it transfer instead, and a policy takes that row at the levels and
    branches where it transfers.
    """
    r, c_c, rho1 = model.econ.r, model.econ.c_c, model.rho1
    phases = [("busy", 1, j) for j in range(model.tau1 - 1, 0, -1)] + [("pend", 1)]
    phases += [("busy", 2, j) for j in range(model.tau2 - 1, 0, -1)] + [("pend", 2), IDLE]
    L, m, j1 = model.N + 1, len(phases), model.tau1 - 1
    w, b = np.arange(L)[:, None, None], np.arange(2)[:, None]
    joins = b * (w < model.N)   # the arrival takes a place in the room
    A = np.zeros((L, 2, m + 1, 3, m))
    rates = np.zeros((2, 5, m + 1, L))

    def add(rows, p, d, to, gain: tuple) -> None:
        # p from each of `rows` (distinct) to phase `to` with w - 1 + d
        # waiting at every (w, b), and p times each rate's gain
        A[w, b, rows, d, to] += p
        rates[b, :, rows, w] += p[:, None] * np.stack(np.broadcast_arrays(*gain), -1)

    def advance(rows, p) -> None:
        add(rows, p, 1 + joins, np.add(rows, 1), (0, joins, 0, b - joins, 0))

    def end(rows, p, reward, resolved, transferred) -> None:
        # the freed agent takes the head of the room, else the arrival, else idles
        add(rows, p, 1 - (w > 0) * (1 - b), (m - 1) * (w == 0) * (1 - b), (reward, b, transferred, 0, resolved))

    # ("pend", 1), rows j1 and m, has two outcomes, and a fancy += adds once
    # per index: one pass for the resolved first attempt, one for the failed
    advance(np.flatnonzero([phase[0] == "busy" for phase in phases]), np.ones(m - 3))
    end([j1, m - 2, m - 1, m], np.array([rho1, 1.0, 1.0, rho1]), [r, r, 0.0, r], [1, 1, 0, 1], 0)
    advance([j1], np.array([1.0 - rho1]))
    end([m], np.array([1.0 - rho1]), r - c_c, 0, 1)
    return phases, A, rates


class _Lanes(NamedTuple):
    """The level blocks of a set of policies (`_level_blocks`).  Policy p's
    A[w, b] has as row j1, the phase ("pend", 1), A[w, b, m] where
    transfers[p, w, b], that is where p transfers at Q = w + b."""

    A: np.ndarray          # (N + 1, 2, m + 1, 3, m)
    j1: int
    transfers: np.ndarray  # (n_policies, N + 1, 2)


def _level_solve(lanes: _Lanes, q: np.ndarray) -> np.ndarray:
    """Stationary vectors, (n_policies, n_q, n) with states as in
    QueueEvaluation, for every policy of `lanes` and every q (0 < q < 1),
    the arrival branch weighted q.

    A[w, :, :, d] holds both branches' A_{w,w-1+d}, from w waiting to
    w - 1 + d waiting.  Every step down is a freed agent pulling the head of
    the queue into phase 0, and with q < 1 the queue always drains, so the
    chain watched at level w until it drops below w (linear level reduction;
    Gaver, Jacobs & Latouche 1984) moves by D_w + v_w e_0ᵀ and drops with
    probability esc_w = A_{w,w-1} 1.  Here v_w, each phase's weight of
    starting a service, holds its same-level moves into phase 0 and all its
    moves up, since the chain comes back from above into phase 0.  Every
    move that D_w keeps goes forward in cycle order, bar idle's self-loop on
    level 0, whose pivot is idle's other outflow.  So one forward pass gives
    the visits per service start y_e = e_0 (I - D_w)⁻¹ and the visits
    y_c = c (I - D_w)⁻¹ from the inflow c = π_{w-1} A_{w-1,w}, which never
    enters phase 0.  Then π_w = y_c + x_0 y_e, where the service starts
    x_0 = π_w v_w = y_c v_w + x_0 y_e v_w, and y_e (v_w + esc_w) = 1, so
    x_0 = (y_c v_w) / (y_e esc_w): nothing is subtracted (Kemeny & Snell
    1960, ch. 4).

    Where the escape y_e esc_w is below 2⁻¹⁰⁰⁰ of the inflow y_c v_w (always
    on level 0, which has neither), the level counts as closed: π_w = y_e,
    and every level below is dropped, since it holds no probability that
    float64 can carry.  Each (policy, q) pair is one lane, on trailing axes
    that are only ever broadcast; every sum runs over a leading axis, term by
    term, so a lane's result does not depend on the lanes that share the
    solve.  The policies share every entry of the blocks but row j1's, so
    each other entry is weighed by q once per level and broadcast over the
    policies; only row j1's entries are weighed per policy.  Each level is
    scaled by a power of two, so none overflows and none is rounded.
    """
    A, j1, transfers = lanes
    L, m = A.shape[0], A.shape[-1]
    lanes_shape = (len(transfers), len(q))
    # each phase's weight of starting a service: its same-level moves into
    # phase 0 and all its moves up
    starts = A[:, :, :, 1, 0] + A[:, :, :, 2].sum(-1)
    moves = A.any((0, 1))
    moves[j1] |= moves[m]   # row m: ("pend", 1) transferring
    # terms[j, i]: phase j > 0 reads the same level's visits z[i], or the
    # level below's π, z[i] for i >= m, times the move from phase i % m
    terms = moves[:m, 1:].transpose(2, 1, 0).reshape(m, 2 * m)
    terms[range(1, m), range(m - 1)] = True   # no phase without a term
    terms[range(m), range(m)] = terms[0] = False
    into, src = np.nonzero(terms)
    ends = np.cumsum(np.bincount(into, minlength=m)).tolist()
    steps = [(src[a:b], slice(2 * m + a, 2 * m + b)) for a, b in zip(ends, ends[1:])]
    # the entries weighed, from a level's rows A[w, b].reshape(m + 1, 3 m)
    # (column d m + j: to phase j, w - 1 + d waiting) and `starts` after
    # them: first each phase's escape, all of it into phase 0 below, and its
    # weight of starting a service, then the terms
    er = np.concatenate([np.repeat(np.arange(m), 2), src % m])
    ec = np.concatenate([np.tile([0, 3 * m], m), np.where(src < m, m + into, 2 * m + into)])
    rows = A.reshape(L, 2, m + 1, 3 * m)

    def entries(r, c) -> np.ndarray:
        # (L, 2, n, 1): entries (r, c) of every level's rows, column 3 m being `starts`
        return np.where(c == 3 * m, starts[:, :, r], rows[:, :, r, c % (3 * m)])[..., None]

    # every entry but those of row j1 is the same for all policies, so each
    # level weighs it by q once; row j1's entries, continuing or
    # transferring, are weighed per policy
    weights = entries(er, ec)
    own = np.flatnonzero(er == j1)
    cont, moved = weights[:, :, own], entries(np.full(len(own), m), ec[own])
    up = np.concatenate([np.zeros(2 * m, dtype=bool), src >= m])
    carried = np.zeros((np.count_nonzero(up),) + lanes_shape)   # no move up into level 0
    levels = np.empty((L, m) + lanes_shape)
    shifts = np.empty((L,) + lanes_shape, dtype=int)
    shift = np.zeros(lanes_shape, dtype=int)
    z = np.zeros((2 * m, 2) + lanes_shape)   # (y_e, y_c) of each phase, then (0, π) of the level below
    z[0, 0] = 1.0
    for w in range(L):
        # (n_entries, n_policies, n_q), row j1 from row m where a policy transfers
        e = (weights[w, 1] * q + weights[w, 0] * (1.0 - q))[:, None].repeat(len(transfers), 1)
        both = np.where(transfers[:, w].T[:, None], moved[w], cont[w])
        e[own] = both[1, ..., None] * q + both[0, ..., None] * (1.0 - q)
        e[up], carried = carried, e[up]   # a move up is weighed as it leaves the level below
        out = e[:2 * m].reshape((m, 2) + lanes_shape)   # (escape, v) of each phase
        for j, (srcs, at) in enumerate(steps, 1):
            z[j] = (z[srcs] * e[at, None]).sum(0)
        z[m - 1] /= out[m - 1].sum(0)   # idle: its other outflow
        escape, inflow = (z[:m] * out).sum(0)
        closed = ~(escape * 2.0**1000 > inflow)
        with np.errstate(divide="ignore", invalid="ignore"):
            x0 = np.where(closed, 1.0, inflow / escape)
        x = z[:m, 1] * ~closed + x0 * z[:m, 0]
        exp = np.frexp(x.max(0))[1]
        np.ldexp(x, -exp, out=x)
        shift = shift + exp
        levels[:w, :, closed] = 0.0
        shifts[:w, closed] = shift[closed]
        levels[w], shifts[w] = x, shift
        z[m:, 1] = x
    np.ldexp(levels, (shifts - shifts.max(0))[:, None], out=levels)
    pi = levels.transpose(2, 3, 1, 0).reshape(lanes_shape + (m * L,))
    pi /= pi.sum(-1, keepdims=True)
    return pi


def _check_stationary(pi: np.ndarray, lanes: _Lanes, q: np.ndarray,
                      states: tuple[tuple, ...], labels: list[str]) -> None:
    """Raise EvaluationError unless every pi[p, i] is stationary for q[i]
    under policy p's level blocks, naming the first failed check, its state,
    q and the policy (a NaN fails them all).  One policy at a time, so that
    the flows take little memory."""
    A, j1, transfers = lanes
    L, m = A.shape[0], A.shape[-1]
    # (to, from) the levels of each move d, from w to w - 1 + d
    moves = ((slice(None, -1), slice(1, None)), (slice(None), slice(None)), (slice(1, None), slice(None, -1)))
    for p, label in enumerate(labels):
        # (L, n_q, m + 1) by the rows of A, phase j1 again as row m
        by_row = np.ascontiguousarray(pi[p].reshape(len(q), m, L).transpose(2, 0, 1)[..., np.r_[:m, j1]])
        on_j1 = by_row[..., m].copy()
        net = -by_row[..., :m]
        for b, weight in enumerate((1.0 - q, q)):
            takes = transfers[p, :, b, None]
            by_row[..., j1] = on_j1 * ~takes
            by_row[..., m] = on_j1 * takes
            for d, (to, fro) in enumerate(moves):
                flow = by_row[fro] @ A[fro, b, :, d]
                flow *= weight[:, None]
                net[to] += flow
        resid = np.abs(net)
        total = np.abs(pi[p].sum(-1) - 1.0)
        ok = (resid.max((0, 2)) <= _RESIDUAL_TOL) & (total <= _RESIDUAL_TOL)
        if ok.all():
            continue
        i = int(np.argmin(ok))
        lane = resid[:, i].T.ravel()   # by state, as in `states`
        # a NaN in pi makes NaN every residual its level's flows reach: name
        # the first state that holds one
        nan = np.isnan(pi[p, i])
        worst = int(np.argmax(nan if nan.any() else lane))
        if not lane[worst] <= _RESIDUAL_TOL:
            act, w = states[worst]
            failed = (f"stationary distribution residual {lane[worst]:.2e} at "
                      f"{act}/{w} exceeds {_RESIDUAL_TOL:.0e}")
        else:
            failed = f"stationary probabilities sum to 1 {total[i]:+.2e}"
        raise EvaluationError(f"{failed} at q={float(q[i])!r} under policy {label}")


def _saturated(model: QueueModel, pol: QueuePolicy, states: tuple) -> np.ndarray:
    """π at q = 1, where every period brings an arrival and the room never
    shortens: it grows to N, or, when τ₁ = 1, by τ₂ per continued failure
    until a level w where the policy transfers at Q = w + 1 (or ρ₁ = 1).
    There π is the visits per cycle: 1 per attempt-1 phase, and 1 − ρ₁ per
    attempt-2 phase if the policy continues at w."""
    w = model.N if model.tau1 > 1 else 0
    while w < model.N and model.rho1 < 1 and not pol.transfers(w + 1):
        w = min(w + model.tau2, model.N)
    cont = 0.0 if pol.transfers(w + 1) else 1.0 - model.rho1
    visits = np.array([0.0 if act == IDLE or n_wait != w else 1.0 if act[1] == 1 else cont
                       for act, n_wait in states])
    return visits / visits.sum()


def _evaluate_on_grid(model: QueueModel, pols: list[QueuePolicy],
                      q_grid: tuple[float, ...]) -> tuple[tuple, np.ndarray, np.ndarray]:
    """The states, every policy's π across q, (n_policies, n_q, n), and its
    five rates as in QueueEvaluation, (n_policies, n_q, 5), from one build of
    the blocks: a policy takes their transferring ("pend", 1) row, in A and
    in the rates, where it transfers at Q = w + b, and the continuing one
    elsewhere.  Only a policy's `transfers` and `label` are read, so any set
    of Q will do.  Every interior q of every policy is a lane of one solve.
    The rate rows are weighted by every q at once for all policies, and each
    policy puts in its own row j1 before its product with π."""
    phases, A, rates = _level_blocks(model)
    L, m, j1 = model.N + 1, len(phases), model.tau1 - 1
    transfers = np.array([[[pol.transfers(w + b) for b in (0, 1)] for w in range(L)] for pol in pols])
    lanes = _Lanes(A, j1, transfers)
    states = tuple((phase, w) for phase in phases for w in range(L))
    grid = np.array(q_grid, dtype=float)
    inner = (grid > 0.0) & (grid < 1.0)
    pi = np.zeros((len(pols), len(grid), len(states)))
    if inner.any():
        pi[:, inner] = _level_solve(lanes, grid[inner])
    pi[:, grid == 0.0, states.index((IDLE, 0))] = 1.0   # no arrival ever comes
    if (grid == 1.0).any():
        pi[:, grid == 1.0] = np.array([_saturated(model, pol, states) for pol in pols])[:, None]
    _check_stationary(pi, lanes, grid, states, [pol.label for pol in pols])
    out = np.empty((len(pols), len(grid), 5))
    # each policy's ("pend", 1) rate rows, (n_policies, 2, 5, L): row m where it transfers
    own = np.where(transfers.transpose(0, 2, 1)[:, :, None], rates[:, :, m], rates[:, :, j1])
    q = grid[:, None, None, None]
    # (n_q, 5, m, L), the rows every policy shares, and (n_q, n_policies, 5, L), row j1
    weighted = q * rates[1, :, :m] + (1.0 - q) * rates[0, :, :m]
    weighted_own = q * own[:, 1] + (1.0 - q) * own[:, 0]
    for p in range(len(pols)):
        weighted[:, :, j1] = weighted_own[:, p]
        out[p] = np.matmul(weighted.reshape(-1, 5, m * L), pi[p, :, :, None])[..., 0]
    return states, pi, out


def evaluate_queue_policy(model: QueueModel, pol: QueuePolicy) -> QueueEvaluation:
    """Stationary per-period profit and rates of one admissible policy."""
    if pol.n is not None and pol.n > model.N:
        raise ValueError(f"threshold n={pol.n} exceeds N={model.N}")
    states, pi, rates = _evaluate_on_grid(model, [pol], (model.q,))
    return QueueEvaluation(pi[0, 0], states, *rates[0, 0].tolist())


@dataclass(frozen=True)
class SweepResult:
    """Every policy's rates across the grid, as the array `_evaluate_on_grid`
    returns; `queue-sweep` writes sweep.csv from it, a policy's rows in grid
    order, policy by policy."""

    policies: tuple[str, ...]
    q_grid: tuple[float, ...]
    rates: np.ndarray   # (n_policies, n_q, 5), the five rates as in QueueEvaluation

    @property
    def profit(self) -> np.ndarray:   # (n_policies, n_q)
        return self.rates[..., 0]

    def profit_for(self, label: str) -> np.ndarray:
        return self.profit[self.policies.index(label)]


def sweep_queue_policies(model: QueueModel, q_grid: Iterable[float]) -> SweepResult:
    """Evaluate every admissible policy across an arrival-intensity grid."""
    grid = tuple(float(v) for v in q_grid)
    seen = set()
    for v in grid:
        if not 0.0 < v <= 1.0:
            raise ValueError(f"q_grid values must lie in (0, 1], got {v}")
        if v in seen:
            raise ValueError(f"q_grid lists {v} twice")
        seen.add(v)
    pols = admissible_queue_policies(model)
    _, _, rates = _evaluate_on_grid(model, pols, grid)
    return SweepResult(policies=tuple(p.label for p in pols), q_grid=grid, rates=rates)
