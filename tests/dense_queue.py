"""Dense chains and solves, the oracles for the package's state reduction
and substitution.

`gatekeeper.waiting_room` keeps the chain as level blocks, solves each
interior q level by level, q = 0 as the empty system and q = 1 by the
closed form of its saturated cycle.  `_branch_chains` builds the whole chain
instead, straight from the event order, as two dense (n, n) matrices over
the states of `queue_states`: P[1] for a period with an arrival and P[0] for
one without, the builder the package used before it kept the blocks.  These
routes solve q P[1] + (1 - q) P[0], one q at a time:

- `dense_rates` by one LU solve of the balance equations on the states the
  empty system reaches (`reachable`, `lu_stationary`), the route the package
  took before it solved the chain's structure;
- `gth_rates` by Grassmann-Taksar-Heyman state reduction in long double.
  GTH subtracts nothing, so it keeps every small probability to round-off;
  the wider type keeps the reference's own round-off (and its ratios of
  probabilities, up to 1e±4932) out of any comparison with float64 results.

Both return the five rates of `QueueEvaluation`: profit, throughput,
transfer, blocking and resolve rate per period.  `gth_stationary` is also
the oracle for `evaluate.stationary_distribution`, which reads the embedded
service chain's π off in cycle order; GTH on the closed class the start
reaches was that chain's solver before.

`lu_relative_values` solves the embedded service chain's evaluation
equations for R and G as one bordered LU system, the route
`evaluate.evaluate_policy` took before it found G by substitution in cycle
order.  Its G is accurate only relative to max|G|, so it checks the small
differences of G only where G spans little (q, a not small).

`level_evaluations` solves the same levels as the package, one policy at a
time, by subtraction-free state reduction of each level as a dense
(m + 1, m + 1, n_q) array (`level_solve`), on that policy's own blocks
(`policy_blocks`): the package's route before it read each level off by one
forward pass in cycle order.  The two agree to round-off, not bit for bit.

Every oracle here lists the states as `queue_states` does, idle first; the
package lists them along a service cycle, idle last.  `at_states` takes an
oracle's π into the package's order, state label by state label.
"""
import numpy as np

from gatekeeper.evaluate import I0, EmbeddedChain
from gatekeeper.waiting_room import IDLE, QueueModel, QueuePolicy, _level_blocks, _saturated

# x86 long double carries 64 mantissa bits; where it is plain double,
# `gth_rates` is no more exact than the solve it checks
EXTENDED = np.finfo(np.longdouble).nmant > np.finfo(np.float64).nmant


def queue_states(model: QueueModel) -> list[tuple]:
    """States (activity, n_wait) at a period boundary.

    activity is idle, ("pend", k) with the completion decision due, or
    ("busy", k, j) with j work periods remaining.
    """
    acts: list[tuple] = [IDLE, ("pend", 1), ("pend", 2)]
    acts += [("busy", 1, j) for j in range(1, model.tau1)]
    acts += [("busy", 2, j) for j in range(1, model.tau2)]
    return [(act, w) for act in acts for w in range(model.N + 1)]


def at_states(model: QueueModel, states: tuple) -> list[int]:
    """Where each of `states`, as labelled by the package, sits in
    `queue_states`: pi[at_states(model, ev.states)] takes an oracle's pi
    state by state in the package's order."""
    index = {s: i for i, s in enumerate(queue_states(model))}
    return [index[s] for s in states]


def _start_service(tau: int, attempt: int) -> tuple:
    return ("pend", attempt) if tau == 1 else ("busy", attempt, tau - 1)


def _branch_chains(model: QueueModel, pol: QueuePolicy) -> tuple[tuple, np.ndarray, np.ndarray]:
    """States, transition matrices and rates of a period with (index 1) and
    without (index 0) an arrival; the chain at q is q P[1] + (1 - q) P[0].

    The rate rows follow QueueEvaluation: reward, admissions, transfers,
    blocked arrivals and resolutions per period.
    """
    if pol.n is not None and pol.n > model.N:
        raise ValueError(f"threshold n={pol.n} exceeds N={model.N}")
    states = tuple(queue_states(model))
    index = {s: i for i, s in enumerate(states)}
    n = len(states)
    r, c_c = model.econ.r, model.econ.c_c
    rho1, tau1, tau2 = model.rho1, model.tau1, model.tau2
    P = np.zeros((2, n, n))
    rates = [[[0.0] * n for _ in range(5)] for _ in range(2)]   # plain floats: cheap to update

    def apply(i: int, p: float, activity: tuple, n_wait: int, arrival: bool,
              rew: float, res: int, tra: int) -> None:
        branch = int(arrival)   # fixed before the arrival is consumed below
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
        P[branch, i, index[(activity, n_wait)]] += p
        for row, v in zip(rates[branch], (rew, adm, tra, blk, res)):
            row[i] += p * v

    for i, (activity, n_wait) in enumerate(states):
        for arrival in (True, False):
            if activity == IDLE:
                apply(i, 1.0, IDLE, n_wait, arrival, 0.0, 0, 0)
            elif activity[0] == "pend" and activity[1] == 1:
                if rho1 > 0:
                    apply(i, rho1, IDLE, n_wait, arrival, r, 1, 0)
                if rho1 < 1:
                    q_obs = n_wait + (1 if arrival else 0)
                    if pol.transfers(q_obs):
                        apply(i, 1 - rho1, IDLE, n_wait, arrival, r - c_c, 0, 1)
                    else:
                        apply(i, 1 - rho1, _start_service(tau2, 2), n_wait,
                              arrival, 0.0, 0, 0)
            elif activity[0] == "pend":
                apply(i, 1.0, IDLE, n_wait, arrival, r, 1, 0)
            else:
                _, k, j = activity
                nxt = ("pend", k) if j == 1 else ("busy", k, j - 1)
                apply(i, 1.0, nxt, n_wait, arrival, 0.0, 0, 0)
    return states, P, np.array(rates)


def reachable(P: np.ndarray, start: int) -> np.ndarray:
    """Boolean mask of the states reachable from `start`, itself included."""
    seen = np.zeros(P.shape[0], dtype=bool)
    stack = [start]
    seen[start] = True
    while stack:
        i = stack.pop()
        for j in np.nonzero(P[i] > 0)[0]:
            if not seen[j]:
                seen[j] = True
                stack.append(int(j))
    return seen


def lu_stationary(P: np.ndarray) -> np.ndarray:
    """pi P = pi, sum(pi) = 1 by one LU solve, for a chain with one closed
    class; values that round below 0 are clipped to 0.

    The balance matrix is P's off-diagonal part, transposed, with minus each
    row's off-diagonal sum on the diagonal, so a state left with probability
    q keeps exactly q, not (1 - q) - 1; sum(pi) = 1 replaces its last
    equation.
    """
    A = P.T.copy()
    np.fill_diagonal(A, 0.0)
    np.fill_diagonal(A, -A.sum(axis=0))
    A[-1] = 1.0
    b = np.zeros(len(P))
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    assert np.abs(pi @ P - pi).max() <= 1e-10
    return np.clip(pi, 0.0, None)


def dense_stationary(model: QueueModel, pol: QueuePolicy) -> tuple[np.ndarray, np.ndarray]:
    """π and the rate rows of the chain at model.q, for 0 <= q <= 1; every
    state reaches the empty idle system (state 0) only for 0 < q < 1, so the
    solve runs on what state 0 reaches."""
    states, P, rates = _branch_chains(model, pol)
    assert states[0] == (("idle",), 0)
    q = model.q
    Pq = q * P[1] + (1 - q) * P[0]
    live = reachable(Pq, 0)
    pi = np.zeros(len(states))
    pi[live] = lu_stationary(Pq[np.ix_(live, live)])
    return pi, q * rates[1] + (1 - q) * rates[0]


def dense_rates(model: QueueModel, pol: QueuePolicy) -> np.ndarray:
    pi, rates = dense_stationary(model, pol)
    return rates @ pi


def gth_stationary(P: np.ndarray) -> np.ndarray:
    """Stationary vector of a chain in which every state reaches state 0.

    States n - 1, ..., 1 are removed in turn; each pivot is the removed
    state's outflow to the states still kept, summed, not 1 - P[k, k].
    """
    A = P.copy()
    n = len(A)
    for k in range(n - 1, 0, -1):
        A[:k, k] /= A[k, :k].sum()
        A[:k, :k] += np.outer(A[:k, k], A[k, :k])
    x = np.zeros(n, dtype=A.dtype)
    x[0] = 1
    for k in range(1, n):
        x[k] = x[:k] @ A[:k, k]
    return x / x.sum()


def gth_rates(model: QueueModel, pol: QueuePolicy) -> np.ndarray:
    """For 0 < q < 1, where every state reaches the empty idle system (state
    0).  The branch weights are the float64 q and 1 - q that the package
    uses, so both solve the same chain."""
    states, P, rates = _branch_chains(model, pol)
    assert states[0] == (("idle",), 0)
    ld = np.longdouble
    q, p = ld(model.q), ld(1.0 - model.q)
    pi = gth_stationary(q * P[1].astype(ld) + p * P[0].astype(ld))
    return (q * rates[1].astype(ld) + p * rates[0].astype(ld)) @ pi


def lu_relative_values(chain: EmbeddedChain) -> tuple[float, np.ndarray]:
    """R and G from (I - P) G + R duration = reward with G(I0) = 0, square
    in (G, R): R takes G(I0)'s column, and I - P has each row's off-diagonal
    sum on its diagonal, so a holding probability a keeps exactly a, not
    1 - (1 - a)."""
    A = -chain.P
    np.fill_diagonal(A, 0.0)
    np.fill_diagonal(A, -A.sum(axis=1))
    A[:, I0] = chain.duration
    G = np.linalg.solve(A, chain.reward)
    assert np.abs(A @ G - chain.reward).max() <= 1e-10 * max(1.0, np.abs(G).max())
    R, G[I0] = float(G[I0]), 0.0
    return R, G


def policy_blocks(model: QueueModel, pol: QueuePolicy) -> tuple[list[tuple], np.ndarray, np.ndarray]:
    """One policy's activities, level blocks and rate rows over the states of
    `queue_states`: A[w, b, i, d, j] from activity i with w waiting to
    activity j with w - 1 + d waiting.  Picked from `_level_blocks` as the
    package picks them: ("pend", 1) takes the blocks' and the rates' last
    row where the policy transfers at Q = w + b; then each phase is moved to
    its activity's place, found by label."""
    phases, A, rates = _level_blocks(model)
    L, m, j1 = model.N + 1, len(phases), model.tau1 - 1
    A, rates = A.copy(), rates.copy()
    for w in range(L):
        for b in (0, 1):
            if pol.transfers(w + b):
                A[w, b, j1] = A[w, b, m]
                rates[b, :, j1, w] = rates[b, :, m, w]
    acts = [act for act, w in queue_states(model) if w == 0]
    at = [phases.index(act) for act in acts]
    return acts, A[:, :, at][..., at], rates[:, :, at].reshape(2, 5, m * L)


def removal_steps(pattern: np.ndarray) -> list[tuple]:
    """Phases k = m, ..., 2 of an (m + 1)-square level matrix in the order
    `reduce_level` removes them, each with the rows and columns of the
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


def reduce_level(M: np.ndarray, steps: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
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


def level_solve(A: np.ndarray, j0: int, q: np.ndarray) -> np.ndarray:
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
    steps = removal_steps(augs.any((0, 1)))   # one pattern covering every level
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
        x, closed = reduce_level(M, steps)
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




def level_evaluations(model: QueueModel, pol: QueuePolicy,
                      q_grid: tuple[float, ...]) -> list[tuple[np.ndarray, np.ndarray]]:
    """π and the five rates of QueueEvaluation at each q of the grid, for
    0 <= q <= 1: q = 0 as the empty system, q = 1 by the package's
    `_saturated`, and the interior by `level_solve`."""
    acts, A, rates = policy_blocks(model, pol)
    states = tuple((act, w) for act in acts for w in range(model.N + 1))
    grid = np.array(q_grid, dtype=float)
    inner = (grid > 0.0) & (grid < 1.0)
    pi = np.zeros((len(grid), len(states)))
    if inner.any():
        pi[inner] = level_solve(A, acts.index(_start_service(model.tau1, 1)), grid[inner])
    pi[grid == 0.0, states.index((IDLE, 0))] = 1.0
    if (grid == 1.0).any():
        pi[grid == 1.0] = _saturated(model, pol, states)
    return [(pi[i], (q * rates[1] + (1 - q) * rates[0]) @ pi[i]) for i, q in enumerate(q_grid)]
