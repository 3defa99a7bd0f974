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
step down lands in the phase that starts a first attempt.  Policies differ
only in what a failed first attempt does, so the blocks are built once, with
that row both ways, and each policy picks one at each level.  Every interior
q of a grid, for every policy, is then one lane of a single solve, level by
level, by state reduction that subtracts nothing and stores only the entries
it touches (`_level_solve`).  At q = 0 no arrival comes and the empty system
keeps all the mass; at q = 1 the queue never shortens, and the agent ends up
repeating one service cycle at one level (`_saturated`).
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


def _level_blocks(model: QueueModel) -> tuple[list[tuple], list[int], np.ndarray, np.ndarray]:
    """Activities, phase order, level blocks and rates of a period with
    (b = 1) and without (b = 0) an arrival.

    An activity is idle, ("pend", k) with the completion decision due, or
    ("busy", k, j) with j work periods remaining; `acts` lists them in the
    order of QueueEvaluation's states.  The blocks list them as phases in
    `order`, A's phase i being acts[order[i]]: first the one that starts a
    first attempt, where every level is entered from above, then the rest.
    A[w, b, i, d, j] is the probability of going from phase i with w waiting
    to phase j with w - 1 + d waiting.  The rate rows follow QueueEvaluation
    (reward, admissions, transfers, blocked arrivals and resolutions per
    period) over its states, activity-major.  Both have ("pend", 1)
    continue after a failed first attempt; A's row m and the last N + 1 rate
    columns have it transfer instead, and a policy takes those at the levels
    and branches where it transfers.
    """
    r, c_c = model.econ.r, model.econ.c_c
    rho1, tau1, tau2 = model.rho1, model.tau1, model.tau2
    acts: list[tuple] = [IDLE, ("pend", 1), ("pend", 2)]
    acts += [("busy", 1, j) for j in range(1, tau1)]
    acts += [("busy", 2, j) for j in range(1, tau2)]
    j0 = acts.index(_start_service(tau1, 1))
    order = [j0] + [a for a in range(len(acts)) if a != j0]
    slot = {acts[a]: i for i, a in enumerate(order)}
    L, m = model.N + 1, len(acts)
    A = np.zeros((L, 2, m + 1, 3, m))
    rates = [[[0.0] * ((m + 1) * L) for _ in range(5)] for _ in range(2)]   # plain floats: cheap to update

    def apply(p: float, activity: tuple, arrival: bool, rew: float, res: int, tra: int) -> None:
        # leaves row a (phase i) with w waiting, the state the loop below is at
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
            row[a * L + w] += p * v

    for a, activity in enumerate(acts + [("pend", 1)]):
        i = slot[activity] if a < m else m
        for w in range(L):
            for arrival in (True, False):
                if activity == IDLE:
                    apply(1.0, IDLE, arrival, 0.0, 0, 0)
                elif activity[0] == "pend" and activity[1] == 1:
                    if rho1 > 0:
                        apply(rho1, IDLE, arrival, r, 1, 0)
                    if rho1 < 1:
                        if a == m:
                            apply(1 - rho1, IDLE, arrival, r - c_c, 0, 1)
                        else:
                            apply(1 - rho1, _start_service(tau2, 2), arrival, 0.0, 0, 0)
                elif activity[0] == "pend":
                    apply(1.0, IDLE, arrival, r, 1, 0)
                else:
                    _, k, j = activity
                    nxt = ("pend", k) if j == 1 else ("busy", k, j - 1)
                    apply(1.0, nxt, arrival, 0.0, 0, 0)
    return acts, order, A, np.array(rates)


class _Lanes(NamedTuple):
    """The level blocks of a set of policies (`_level_blocks`).  Policy p's
    A[w, b] has as row j1, the phase ("pend", 1), A[w, b, m] where
    transfers[p, w, b], that is where p transfers at Q = w + b."""

    order: list[int]
    A: np.ndarray          # (N + 1, 2, m + 1, 3, m)
    j1: int
    transfers: np.ndarray  # (n_policies, N + 1, 2)


class _Step(NamedTuple):
    """Removing phase k from a stored level (`_removal_steps`)."""

    head: int            # where column k's row 0 is stored,
    below: slice         # and its rows 0 < r < k, right after
    row: slice           # where row k's columns c < k are stored, 0 first
    tops: np.ndarray     # where row 0 is stored in row k's columns c > 0
    fill: np.ndarray     # where each M[r, c] += M[r, k] M[k, c] / s_k with r > 0 lands,
    fill_r: np.ndarray   # its r, counted in `below`,
    fill_c: np.ndarray   # and its c, counted in `row`


def _removal_steps(pattern: np.ndarray) -> tuple[np.ndarray, list[_Step], list[tuple]]:
    """Where a level is stored, and phases k = m, ..., 2 of it in the order
    `_reduce_level` removes them, given which entries of the (m + 1)-square
    level matrix may be nonzero.

    Only the entries that the removals read or update, fill-in included, are
    stored, as a flat list: for each k in turn, column k above the diagonal,
    then row k left of it; last the inflow (0, 1), the escape (1, 0), and
    (0, 0), which stays zero.  The rest of the diagonal is never read.  Row 0
    and column 0 always take part, so that no sum is empty, and come first
    in each column and row.  Returns each entry's (row, column), the steps,
    and the back-substitution in waves (ks, rows, where): the phases ks are
    found at once from x[rows] and the entries at `where`, M[r, k] / s_k,
    both (width, len(ks)) and padded at the end with x[0] and the zero.
    """
    pattern = pattern.copy()
    pattern[0] = pattern[:, 0] = True
    in_col, in_row = [set() for _ in pattern], [set() for _ in pattern]
    for r, c in np.argwhere(pattern).tolist():
        in_col[c].add(r)
        in_row[r].add(c)
    removed, entries = [], []
    for k in range(len(pattern) - 1, 1, -1):
        rows, cols = sorted(r for r in in_col[k] if r < k), sorted(c for c in in_row[k] if c < k)
        for r in rows:
            in_row[r].update(cols)
        for c in cols:
            in_col[c].update(rows)
        removed.append((k, rows, cols))
        entries += [(r, k) for r in rows] + [(k, c) for c in cols]
    entries += [(0, 1), (1, 0), (0, 0)]
    at = {rc: e for e, rc in enumerate(entries)}
    steps, depth = [], {0: 0, 1: 0}
    for k, rows, cols in removed:
        fill = [(at[r, c], i, j) for i, r in enumerate(rows[1:]) for j, c in enumerate(cols) if r != c]
        steps.append(_Step(at[0, k], slice(at[0, k] + 1, at[k, 0]), slice(at[k, 0], at[k, 0] + len(cols)),
                           np.array([at[0, c] for c in cols[1:]], dtype=int),
                           *np.array(fill, dtype=int).reshape(-1, 3).T))
    for k, rows, _ in reversed(removed):
        depth[k] = 1 + max(depth[r] for r in rows)
    waves = []
    for d in range(1, max(depth.values()) + 1):
        wave = [(k, rows) for k, rows, _ in reversed(removed) if depth[k] == d]
        width = max(len(rows) for _, rows in wave)
        x_rows = np.zeros((width, len(wave)), dtype=int)
        where = np.full((width, len(wave)), len(entries) - 1)
        for n, (k, rows) in enumerate(wave):
            x_rows[:len(rows), n] = rows
            where[:len(rows), n] = [at[r, k] for r in rows]
        waves.append((np.array([k for k, _ in wave]), x_rows, where))
    return np.array(entries).T, steps, waves


def _add_in_order(terms: np.ndarray) -> np.ndarray:
    """terms[0] + terms[1] + ... in that order, lane by lane, as
    `np.add.accumulate` adds them, but one add per term for all lanes."""
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def _reduce_level(M: np.ndarray, steps: list[_Step]) -> np.ndarray:
    """Remove phases m, ..., 2 from rows 1..m of the stored level matrices
    M (n_entries, ...), of several levels and every lane at once, and return
    each step's pivot.

    M[1 + i, 1 + j] is the mass moving from phase i to phase j and
    M[1 + i, 0] the mass leaving the level from i.  Row 0, the inflow, is the
    only row that depends on the level below, and no other row reads it, so
    it is left to `_solve_level`.  Removing phase k sends its inflow on along
    its outflow, M[i, j] += M[i, k] M[k, j] / s_k, and each pivot s_k is
    summed from k's remaining outflow, escape included, rather than taken as
    1 - T[k, k], so nothing is subtracted (Grassmann, Taksar & Heyman 1985).
    Column k is left holding M[i, k] / s_k.  Sums run in a fixed order
    (`_add_in_order`), so a lane's result does not depend on the others.
    """
    pivots = np.empty((len(steps),) + M.shape[1:])
    for s, step in zip(pivots, steps):
        out = M[step.row]
        s[...] = _add_in_order(out)
        into = M[step.below]
        into /= s
        M[step.fill] += into[step.fill_r] * out[step.fill_c]
    return pivots


def _solve_level(M: np.ndarray, steps: list[_Step], waves: list[tuple],
                 pivots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve x = b + x T, each lane at once, for one level reduced by
    `_reduce_level` whose row 0 holds the inflow b, first removing its
    phases from row 0; say where the level counts as closed.

    Where the escape left to phase 0 is below 2⁻¹⁰⁰⁰ of its inflow (always on
    level 0, which has neither), the level counts as closed: x[0] = 1 and b is
    dropped, since whatever lies below holds no probability that float64 can
    carry.
    """
    for s, step in zip(pivots, steps):
        into = M[step.head]
        into /= s
        M[step.tops] += into * M[step.row][1:]
    inflow, escape = M[-3], M[-2]
    closed = ~(escape * 2.0**1000 > inflow)
    x = np.empty((len(steps) + 2,) + M.shape[1:])
    x[0] = ~closed   # weight of the inflow
    with np.errstate(divide="ignore", invalid="ignore"):
        x[1] = np.where(closed, 1.0, inflow / escape)
    for ks, rows, where in waves:
        terms = x[rows]
        terms *= M[where]
        x[ks] = _add_in_order(terms)
    return x[1:], closed


# at most this many stored entries of level matrices are reduced together:
# all levels of one policy at a few q, one or two levels of a wide sweep
_REDUCED_TOGETHER = 1 << 17


def _level_matrices(aug: np.ndarray, j1: int, transfers: np.ndarray, entries: np.ndarray,
                    q: np.ndarray) -> np.ndarray:
    """The stored level matrices (n_entries, levels, n_policies, n_q) of some
    levels, from their rows `aug` (levels, 2, m + 2, m + 1): row 1 + i from
    phase i and, last, the row of ("pend", 1) when it transfers, which a
    policy takes as row 1 + j1 where transfers[p, w, b]."""
    er, ec = entries
    branches = aug[:, :, er, ec].T[..., None, None]
    M = np.broadcast_to(branches[:, 1] * q + branches[:, 0] * (1.0 - q),
                        (len(er), len(aug), len(transfers), len(q))).copy()
    j1_row = er == 1 + j1
    branches = np.where(transfers[..., None], aug[:, :, -1, ec[j1_row]], aug[:, :, 1 + j1, ec[j1_row]])
    branches = branches.transpose(3, 2, 1, 0)[..., None]
    M[j1_row] = branches[:, 1] * q + branches[:, 0] * (1.0 - q)
    return M


def _level_solve(lanes: _Lanes, q: np.ndarray) -> np.ndarray:
    """Stationary vectors, (n_policies, n_q, n) with states as in
    QueueEvaluation, for every policy of `lanes` and every q (0 < q < 1),
    the arrival branch weighted q.

    A[w, :, :, d] holds both branches' A_{w,w-1+d}, from w waiting to
    w - 1 + d waiting.  Every step down is a freed agent pulling the head of
    the queue into phase 0, and with q < 1 the queue always drains, so the
    chain watched at level w until it drops below w moves by
    T_w = A_{w,w} + (A_{w,w+1} 1) e_0ᵀ and drops with probability
    esc_w = A_{w,w-1} 1 (linear level reduction; Gaver, Jacobs & Latouche
    1984).  Then π_0 = π_0 T_0 and π_w = π_{w-1} A_{w-1,w} (I - T_w)⁻¹.
    Phase 0, where each level is entered from above, comes first, so every
    level's reduction keeps it to the last, which loses the fewest digits.

    Each (policy, q) pair is one lane, on trailing axes that are only ever
    broadcast.  A level is stored as the entries that some policy's
    reduction touches (`_removal_steps`); an entry that is zero for one
    policy adds exact zeros to its sums.  Rows 1..m of several levels are
    reduced at once (`_REDUCED_TOGETHER`); then each level takes its inflow
    from the level below.  Each level is scaled by a power of two, so none
    overflows and none is rounded.
    """
    order, A, j1, transfers = lanes
    L, m = A.shape[0], A.shape[-1]
    lanes_shape = (len(transfers), len(q))
    # the rows of the level matrices: 1 + i from phase i, and m + 1 from A's
    # row m; each move up counts as one into phase 0
    aug = np.zeros((L, 2, m + 2, m + 1))
    aug[:, :, 1:, 1:] = A[:, :, :, 1]
    aug[:, :, 1:, 1] += A[:, :, :, 2].sum(-1)
    aug[:, :, 1:, 0] = A[:, :, :, 0].sum(-1)
    pattern = aug[:, :, :-1].any((0, 1))
    pattern[1 + j1] |= aug[:, :, -1].any((0, 1))
    entries, steps, waves = _removal_steps(pattern)
    moves_up = A[:, :, :-1, 2].any((0, 1))
    moves_up[j1] |= A[:, :, -1, 2].any((0, 1))
    src, dst = np.nonzero(moves_up)
    # np.add.at's order as plain adds: each phase's first source, then its second, ...
    nth = np.array([np.count_nonzero(dst[:e] == d) for e, d in enumerate(dst)], dtype=int)
    by_nth = np.argsort(nth, kind="stable")
    src, dst, ends = src[by_nth], dst[by_nth], np.cumsum(np.bincount(nth)).tolist()
    top = np.empty(m + 1, dtype=int)   # where row 0 is stored
    top[entries[1][entries[0] == 0]] = np.flatnonzero(entries[0] == 0)
    rounds = [(top[1 + dst[a:b]], slice(a, b)) for a, b in zip([0] + ends, ends)]
    # (L, 2, n_moves, n_policies, 1), from row m where the policy transfers
    ups = np.where((src == j1)[:, None] & transfers.transpose(1, 2, 0)[:, :, None],
                   A[:, :, -1, 2, dst][..., None], A[:, :, src, 2, dst][..., None])[..., None]
    levels = np.empty((L, m) + lanes_shape)
    shifts = np.empty((L,) + lanes_shape, dtype=int)
    shift = np.zeros(lanes_shape, dtype=int)
    x = np.zeros((m,) + lanes_shape)
    chunk = max(1, _REDUCED_TOGETHER // (len(entries[0]) * len(transfers) * len(q)))
    for lo in range(0, L, chunk):
        M = _level_matrices(aug[lo:lo + chunk], j1, transfers[:, lo:lo + chunk], entries, q)
        pivots = _reduce_level(M, steps)
        for w, level, pivot in zip(range(lo, L), M.swapaxes(0, 1), pivots.swapaxes(0, 1)):
            # at w = 0 this reads level N, whose arrivals are blocked: no inflow
            for up, weight in zip(ups[w - 1], (1.0 - q, q)):
                flow = up * x[src] * weight
                for into, sources in rounds:
                    level[into] += flow[sources]
            x, closed = _solve_level(level, steps, waves, pivot)
            exp = np.frexp(x.max(0))[1]
            np.ldexp(x, -exp, out=x)
            shift = shift + exp
            levels[:w, :, closed] = 0.0
            shifts[:w, closed] = shift[closed]
            levels[w, order], shifts[w] = x, shift
        del M, pivots, level, pivot   # before the next chunk is built
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
    order, A, j1, transfers = lanes
    L, m = A.shape[0], A.shape[-1]
    # (to, from) the levels of each move d, from w to w - 1 + d
    moves = ((slice(None, -1), slice(1, None)), (slice(None), slice(None)), (slice(1, None), slice(None, -1)))
    for p, label in enumerate(labels):
        # (L, n_q, m + 1) by the rows of A, phase j1 again as row m
        by_row = np.ascontiguousarray(pi[p].reshape(len(q), m, L).transpose(2, 0, 1)[..., order + [order[j1]]])
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
        lane = np.empty((m, L))
        lane[order] = resid[:, i].T   # by state, as in `states`
        worst = int(np.argmax(lane))
        if not lane.flat[worst] <= _RESIDUAL_TOL:
            act, w = states[worst]
            failed = (f"stationary distribution residual {lane.flat[worst]:.2e} at "
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
                      q_grid: tuple[float, ...]) -> list[list[QueueEvaluation]]:
    """Every policy's evaluations across q, from one build of the blocks: a
    policy takes their transferring ("pend", 1) row, and its rate columns,
    where it transfers at Q = w + b, and the continuing one elsewhere.
    Every interior q of every policy is a lane of one level solve."""
    for pol in pols:
        if pol.kind == "qge" and pol.n > model.N:
            raise ValueError(f"threshold n={pol.n} outside 1..N={model.N}")
    acts, order, A, rates = _level_blocks(model)
    L, m, pend1 = model.N + 1, len(acts), acts.index(("pend", 1))
    transfers = np.array([[[pol.transfers(w + b) for b in (0, 1)] for w in range(L)] for pol in pols])
    j1 = order.index(pend1)
    lanes = _Lanes(order, A, j1, transfers)
    # the rate column each state reads, per policy and branch
    cols = np.broadcast_to(np.arange(m * L), (len(pols), 2, 1, m * L)).copy()
    cols[..., pend1 * L:(pend1 + 1) * L] += (m - pend1) * L * transfers.transpose(0, 2, 1)[:, :, None]
    states = tuple((act, w) for act in acts for w in range(L))
    grid = np.array(q_grid, dtype=float)
    inner = (grid > 0.0) & (grid < 1.0)
    pi = np.zeros((len(pols), len(grid), len(states)))
    if inner.any():
        pi[:, inner] = _level_solve(lanes, grid[inner])
    pi[:, grid == 0.0, states.index((IDLE, 0))] = 1.0   # no arrival ever comes
    if (grid == 1.0).any():
        pi[:, grid == 1.0] = np.array([_saturated(model, pol, states) for pol in pols])[:, None]
    _check_stationary(pi, lanes, grid, states, [pol.label for pol in pols])
    evs = []
    for p in range(len(pols)):
        pr = np.take_along_axis(rates, cols[p], -1)
        evs.append([QueueEvaluation(pi[p, i], states, *((q * pr[1] + (1 - q) * pr[0]) @ pi[p, i]).tolist())
                    for i, q in enumerate(q_grid)])
    return evs


def evaluate_queue_policy(model: QueueModel, pol: QueuePolicy) -> QueueEvaluation:
    """Stationary per-period profit and rates of one admissible policy."""
    return _evaluate_on_grid(model, [pol], (model.q,))[0][0]


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
        for pol, evs in zip(pols, _evaluate_on_grid(model, pols, grid)) for qv, ev in zip(grid, evs)
    )
    return SweepResult(
        policies=tuple(p.label for p in pols),
        q_grid=grid,
        profit=np.array([rec["profit"] for rec in records]).reshape(len(pols), len(grid)),
        records=records,
    )
