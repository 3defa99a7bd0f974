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
"""
import numpy as np

from gatekeeper.evaluate import I0, EmbeddedChain
from gatekeeper.waiting_room import IDLE, QueueModel, QueuePolicy, _start_service

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


def _branch_chains(model: QueueModel, pol: QueuePolicy) -> tuple[tuple, np.ndarray, np.ndarray]:
    """States, transition matrices and rates of a period with (index 1) and
    without (index 0) an arrival; the chain at q is q P[1] + (1 - q) P[0].

    The rate rows follow QueueEvaluation: reward, admissions, transfers,
    blocked arrivals and resolutions per period.
    """
    if pol.kind == "qge" and pol.n > model.N:
        raise ValueError(f"threshold n={pol.n} outside 1..N={model.N}")
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
