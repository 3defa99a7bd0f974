"""Finite-waiting-room variant: two attempts, cold transfers only.

Arrivals that find the agent busy join a waiting room of capacity N (and are
blocked when it is full); after a failed first attempt the agent may cold
transfer, with the decision allowed to depend on Q, the number waiting plus
any same-period arrival.  Each admissible policy induces a per-period
discrete-time Markov chain whose stationary distribution yields profit per
period.  With N = 0 the chain reduces exactly to the no-waiting-room channel
restricted to the never/always-transfer rules.

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
step down lands in the phase that starts a first attempt.  So every interior
q of a grid is solved at once, level by level, by state reduction that
subtracts nothing (`_level_solve`).  At q = 0 no arrival comes and the empty
system keeps all the mass; at q = 1 the queue never shortens, and the agent
ends up repeating one service cycle at one level (`_saturated`).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

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
    """Admissible queue policies: never, always, or transfer when Q >= n."""

    kind: str               # "never" | "always" | "qge"
    n: int = 0

    def __post_init__(self):
        if self.kind not in ("never", "always", "qge"):
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.kind == "qge" and self.n < 1:
            raise ValueError("threshold n must be >= 1")

    @classmethod
    def never(cls) -> "QueuePolicy":
        return cls("never")

    @classmethod
    def always(cls) -> "QueuePolicy":
        return cls("always")

    @classmethod
    def when_queue_at_least(cls, n: int) -> "QueuePolicy":
        return cls("qge", n)

    def transfers(self, q_obs: int) -> bool:
        if self.kind == "never":
            return False
        if self.kind == "always":
            return True
        return q_obs >= self.n

    @property
    def label(self) -> str:
        return self.kind if self.kind != "qge" else f"qge{self.n}"


def queue_policy_from_label(label: str) -> QueuePolicy:
    if label in ("never", "always"):
        return QueuePolicy(label)
    if re.fullmatch("qge[1-9][0-9]*", label):
        return QueuePolicy.when_queue_at_least(int(label[3:]))
    raise ValueError(f"queue policy must be never, always or qge<n> with n >= 1, got {label!r}")


def admissible_queue_policies(model: QueueModel) -> list[QueuePolicy]:
    """never, always, and one threshold policy per 1 <= n <= N."""
    pols = [QueuePolicy.never(), QueuePolicy.always()]
    pols += [QueuePolicy.when_queue_at_least(n) for n in range(1, model.N + 1)]
    return pols


def _start_service(tau: int, attempt: int) -> tuple:
    return ("pend", attempt) if tau == 1 else ("busy", attempt, tau - 1)


@dataclass(frozen=True)
class QueueEvaluation:
    pi: np.ndarray
    states: tuple[tuple, ...]
    profit: float          # per period, wage excluded
    throughput: float      # admissions per period
    transfer_rate: float
    blocking_rate: float
    resolve_rate: float


def _level_blocks(model: QueueModel, pol: QueuePolicy) -> tuple[list[tuple], np.ndarray, np.ndarray]:
    """Activities, level blocks and rates of a period with (b = 1) and
    without (b = 0) an arrival.

    An activity is idle, ("pend", k) with the completion decision due, or
    ("busy", k, j) with j work periods remaining.  A[w, b, i, d, j] is the
    probability of going from activity i with w waiting to activity j with
    w - 1 + d waiting.  The rate rows follow QueueEvaluation (reward,
    admissions, transfers, blocked arrivals and resolutions per period) over
    its states, activity-major.
    """
    if pol.kind == "qge" and pol.n > model.N:
        raise ValueError(f"threshold n={pol.n} outside 1..N={model.N}")
    r, c_c = model.econ.r, model.econ.c_c
    rho1, tau1, tau2 = model.rho1, model.tau1, model.tau2
    acts: list[tuple] = [IDLE, ("pend", 1), ("pend", 2)]
    acts += [("busy", 1, j) for j in range(1, tau1)]
    acts += [("busy", 2, j) for j in range(1, tau2)]
    slot = {act: a for a, act in enumerate(acts)}
    L, m = model.N + 1, len(acts)
    A = np.zeros((L, 2, m, 3, m))
    rates = [[[0.0] * (m * L) for _ in range(5)] for _ in range(2)]   # plain floats: cheap to update

    def apply(p: float, activity: tuple, arrival: bool, rew: float, res: int, tra: int) -> None:
        # leaves activity i with w waiting, the state the loop below is at
        branch = int(arrival)   # fixed before the arrival is consumed below
        n_wait = w
        adm = blk = 0
        if activity == IDLE:
            if n_wait > 0:
                n_wait -= 1
                activity = _start_service(tau1, 1)
            elif arrival:
                arrival = False
                adm = 1
                activity = _start_service(tau1, 1)
        if arrival:
            if n_wait < model.N:
                n_wait += 1
                adm = 1
            else:
                blk = 1
        A[w, branch, i, n_wait - w + 1, slot[activity]] += p
        for row, v in zip(rates[branch], (rew, adm, tra, blk, res)):
            row[i * L + w] += p * v

    for i, activity in enumerate(acts):
        for w in range(L):
            for arrival in (True, False):
                if activity == IDLE:
                    apply(1.0, IDLE, arrival, 0.0, 0, 0)
                elif activity[0] == "pend" and activity[1] == 1:
                    if rho1 > 0:
                        apply(rho1, IDLE, arrival, r, 1, 0)
                    if rho1 < 1:
                        q_obs = w + (1 if arrival else 0)
                        if pol.transfers(q_obs):
                            apply(1 - rho1, IDLE, arrival, r - c_c, 0, 1)
                        else:
                            apply(1 - rho1, _start_service(tau2, 2), arrival, 0.0, 0, 0)
                elif activity[0] == "pend":
                    apply(1.0, IDLE, arrival, r, 1, 0)
                else:
                    _, k, j = activity
                    nxt = ("pend", k) if j == 1 else ("busy", k, j - 1)
                    apply(1.0, nxt, arrival, 0.0, 0, 0)
    return acts, A, np.array(rates)


def _removal_steps(pattern: np.ndarray) -> list[tuple]:
    """Phases k = m, ..., 2 of an (m + 1)-square level matrix in the order
    `_reduce_level` removes them, each with the rows and columns of the
    entries its removal reads and updates, fill-in included, given which
    entries may be nonzero.  Row 0 and column 0 always take part, so that no
    sum is empty."""
    pattern = pattern.copy()
    pattern[0] = pattern[:, 0] = True
    steps = []
    for k in range(len(pattern) - 1, 1, -1):
        rows, cols = np.flatnonzero(pattern[:k, k]), np.flatnonzero(pattern[k, :k])
        fill = (rows[:, None], cols)
        pattern[fill] = True
        steps.append((k, rows, cols, fill))
    return steps


def _reduce_level(M: np.ndarray, steps: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """Solve one level for each q by state reduction, and say where the
    level counts as closed.

    M is (m + 1, m + 1, n_q): M[1 + i, 1 + j] is the mass moving from phase i
    to phase j, M[1 + i, 0] the mass leaving the level from i, and M[0, 1 + j]
    the inflow b to j; M is overwritten.  The result x (m, n_q) solves
    x = b + x T.  Phases leave in the order m - 1, ..., 1 (`steps`, which
    skips entries that are zero for every q).  Removing phase k sends its
    inflow on along its outflow, M[i, j] += M[i, k] M[k, j] / s_k, and each
    pivot s_k is summed from k's remaining outflow, escape included, rather
    than taken as 1 - T[k, k], so nothing is subtracted (Grassmann, Taksar &
    Heyman 1985).  The diagonal is never read.

    Where the escape left to phase 0 is below 2⁻¹⁰⁰⁰ of its inflow (always on
    level 0, which has neither), the level counts as closed: x[0] = 1 and b is
    dropped, since whatever lies below holds no probability that float64 can
    carry.  Sums run in a fixed order (`np.add.accumulate`), so a column's
    result does not depend on n_q.
    """
    into = {}
    for k, rows, cols, fill in steps:
        out = M[k, cols]
        into[k] = M[rows, k] / np.add.accumulate(out)[-1]
        M[fill] += into[k][:, None] * out
    inflow, escape = M[0, 1], M[1, 0]
    closed = ~(escape * 2.0**1000 > inflow)
    x = np.empty(M.shape[1:])
    x[0] = ~closed   # weight of the inflow
    with np.errstate(divide="ignore", invalid="ignore"):
        x[1] = np.where(closed, 1.0, inflow / escape)
    for k, rows, _, _ in reversed(steps):
        x[k] = np.add.accumulate(x[rows] * into[k])[-1]
    return x[1:], closed


def _level_solve(A: np.ndarray, j0: int, q: np.ndarray) -> np.ndarray:
    """Stationary vectors (one row per q, 0 < q < 1; states activity-major)
    of the chain with level blocks A, its arrival branch weighted q.

    A[w, :, :, d] holds both branches' A_{w,w-1+d}, from w waiting to
    w - 1 + d waiting.  Every step down is a freed agent pulling the head of
    the queue into phase j0, and with q < 1 the queue always drains, so the
    chain watched at level w until it drops below w moves by
    T_w = A_{w,w} + (A_{w,w+1} 1) e_j0ᵀ and drops with probability
    esc_w = A_{w,w-1} 1 (linear level reduction; Gaver, Jacobs & Latouche
    1984).  Then π_0 = π_0 T_0 and π_w = π_{w-1} A_{w-1,w} (I - T_w)⁻¹.
    Phase j0, where each level is entered from above, is moved to the front
    so that every level's reduction keeps it to the last, which loses the
    fewest digits.  Each level is scaled by a power of two, so none
    overflows and none is rounded.
    """
    L, _, m = A.shape[:3]
    order = [j0] + [a for a in range(m) if a != j0]
    A = A[:, :, order][..., order]
    augs = np.zeros((L, 2, m + 1, m + 1))
    augs[:, :, 1:, 1:] = A[:, :, :, 1]
    augs[:, :, 1:, 1] += A[:, :, :, 2].sum(-1)
    augs[:, :, 1:, 0] = A[:, :, :, 0].sum(-1)
    steps = _removal_steps(augs.any((0, 1)))   # one pattern covering every level
    levels, shifts = [], []
    shift = np.zeros(len(q), dtype=int)
    x = np.zeros((m, len(q)))
    for w, aug in enumerate(augs):
        M = np.multiply.outer(aug[1], q)
        M += np.multiply.outer(aug[0], 1.0 - q)
        # at w = 0 this reads level N, whose arrivals are blocked: no inflow
        for up, weight in zip(A[w - 1, :, :, 2], (1.0 - q, q)):
            src, dst = np.nonzero(up)
            np.add.at(M[0], 1 + dst, up[src, dst][:, None] * x[src] * weight)
        x, closed = _reduce_level(M, steps)
        exp = np.frexp(x.max(0))[1]
        x = np.ldexp(x, -exp)
        shift = shift + exp
        for below, below_shift in zip(levels, shifts):
            below[:, closed] = 0.0
            below_shift[closed] = shift[closed]
        levels.append(x)
        shifts.append(shift)
    shifts = np.array(shifts)
    pi = np.empty((L, m, len(q)))
    pi[:, order] = np.ldexp(np.array(levels), (shifts - shifts.max(0))[:, None])
    pi = pi.transpose(2, 1, 0).reshape(len(q), m * L)
    return pi / pi.sum(-1, keepdims=True)


def _check_stationary(pi: np.ndarray, A: np.ndarray, q: np.ndarray,
                      states: tuple[tuple, ...]) -> None:
    """Raise EvaluationError unless every row of pi is stationary for its q
    under the level blocks A, naming the first failed check, its state and q
    (a NaN fails them all)."""
    L, _, m = A.shape[:3]
    by_level = pi.reshape(len(q), m, L).transpose(2, 0, 1)   # (L, n_q, m)
    flow = q[:, None] * (by_level @ A[:, 1].reshape(L, m, 3 * m))
    flow += (1.0 - q[:, None]) * (by_level @ A[:, 0].reshape(L, m, 3 * m))
    flow = flow.reshape(L, len(q), 3, m)
    net = flow[:, :, 1] - by_level
    net[:-1] += flow[1:, :, 0]
    net[1:] += flow[:-1, :, 2]
    resid = np.abs(net).transpose(1, 2, 0).reshape(len(q), m * L)
    total = np.abs(pi.sum(-1) - 1.0)
    ok = (resid.max(-1) <= _RESIDUAL_TOL) & (total <= _RESIDUAL_TOL)
    if ok.all():
        return
    i = int(np.argmin(ok))
    worst = int(np.argmax(resid[i]))
    if not resid[i, worst] <= _RESIDUAL_TOL:
        act, w = states[worst]
        failed = (f"stationary distribution residual {resid[i, worst]:.2e} at "
                  f"{act}/{w} exceeds {_RESIDUAL_TOL:.0e}")
    else:
        failed = f"stationary probabilities sum to 1 {total[i]:+.2e}"
    raise EvaluationError(f"{failed} at q={float(q[i])!r}")


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


def _evaluate_on_grid(model: QueueModel, pol: QueuePolicy,
                      q_grid: tuple[float, ...]) -> list[QueueEvaluation]:
    """One policy's evaluations across q, from one assembly of its branches;
    every interior q is solved in one level solve."""
    acts, A, rates = _level_blocks(model, pol)
    states = tuple((act, w) for act in acts for w in range(model.N + 1))
    grid = np.array(q_grid, dtype=float)
    inner = (grid > 0.0) & (grid < 1.0)
    pi = np.zeros((len(grid), len(states)))
    if inner.any():
        pi[inner] = _level_solve(A, acts.index(_start_service(model.tau1, 1)), grid[inner])
    pi[grid == 0.0, states.index((IDLE, 0))] = 1.0   # no arrival ever comes
    if (grid == 1.0).any():
        pi[grid == 1.0] = _saturated(model, pol, states)
    _check_stationary(pi, A, grid, states)
    return [QueueEvaluation(pi[i], states, *((q * rates[1] + (1 - q) * rates[0]) @ pi[i]).tolist())
            for i, q in enumerate(q_grid)]


def evaluate_queue_policy(model: QueueModel, pol: QueuePolicy) -> QueueEvaluation:
    """Stationary per-period profit and rates of one admissible policy."""
    return _evaluate_on_grid(model, pol, (model.q,))[0]


@dataclass(frozen=True)
class SweepResult:
    policies: tuple[str, ...]
    q_grid: tuple[float, ...]
    profit: np.ndarray        # (n_policies, n_q)
    records: tuple[dict, ...]  # flat rows for CSV export

    def profit_for(self, label: str) -> np.ndarray:
        return self.profit[self.policies.index(label)]


def sweep_queue_policies(model: QueueModel, q_grid: Iterable[float]) -> SweepResult:
    """Evaluate every admissible policy across an arrival-intensity grid."""
    grid = tuple(float(v) for v in q_grid)
    if any(not 0.0 < v <= 1.0 for v in grid):
        raise ValueError("q_grid values must lie in (0, 1]")
    pols = admissible_queue_policies(model)
    records = tuple(
        {"policy": pol.label, "q": qv, "profit": ev.profit, "throughput": ev.throughput,
         "transfer_rate": ev.transfer_rate, "blocking_rate": ev.blocking_rate}
        for pol in pols for qv, ev in zip(grid, _evaluate_on_grid(model, pol, grid))
    )
    return SweepResult(
        policies=tuple(p.label for p in pols),
        q_grid=grid,
        profit=np.array([rec["profit"] for rec in records]).reshape(len(pols), len(grid)),
        records=records,
    )
