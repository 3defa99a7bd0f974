"""Exact evaluation of stationary policies on the embedded service chain.

The per-period service process embeds into a semi-Markov chain with
4 + 4S states: I0/I1 (agent idle, without/with an arrival), W0/W1 (agent
holding a warm transfer, expert unavailable/available) and C(X, Q, A)
(attempt X just completed under congestion (Q, A)).  Resolution and transfer
nodes have zero duration; every cycle passes through positive-duration
states, so the renewal-reward ratio over the embedded stationary distribution
gives the long-run average reward R, and the evaluation (Poisson) equations
anchored at G(I0) = 0 give the relative state values G.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .model import (
    Action,
    CONGESTION_STATES,
    ProblemInstance,
    StationaryPolicy,
    validate_instance,
)

I0, I1, W0, W1 = 0, 1, 2, 3

_RESIDUAL_TOL = 1e-10
_MIN_PI = -1e-12   # most negative stationary probability accepted as round-off


class EvaluationError(RuntimeError):
    """Raised when the chain's linear systems cannot be solved reliably."""


def n_states(S: int) -> int:
    return 4 + 4 * S


def c_index(x: int, qa: int) -> int:
    """Index of C(x, (Q,A)) with qa the CONGESTION_STATES position."""
    return 4 + 4 * (x - 1) + qa


def state_labels(S: int) -> tuple[str, ...]:
    labels = ["I0", "I1", "W0", "W1"]
    for x in range(1, S + 1):
        for q, a in CONGESTION_STATES:
            labels.append(f"C({x},{q},{a})")
    return tuple(labels)


def congestion_probs(q: float, a: float) -> np.ndarray:
    """Fresh-draw probabilities of the four (Q, A) states, canonical order."""
    return np.array([(1 - q) * (1 - a), q * (1 - a), (1 - q) * a, q * a])


@dataclass(frozen=True)
class EmbeddedChain:
    P: np.ndarray          # (n, n) transition matrix
    reward: np.ndarray     # per-state expected reward
    duration: np.ndarray   # per-state expected duration (periods)
    labels: tuple[str, ...]


def _check_policy(inst: ProblemInstance, pol: StationaryPolicy) -> None:
    S = inst.S
    if pol.n_decisions != S - 1:
        raise ValueError(
            f"policy must define rules for attempts 1..{S - 1}; "
            f"got {pol.n_decisions} rules (a rule at attempt {S} would allow an "
            f"unreachable Continue branch, since the final attempt always resolves)"
        )


def build_chain(inst: ProblemInstance, pol: StationaryPolicy) -> EmbeddedChain:
    """Embedded chain of the per-period process under a stationary policy."""
    bad = validate_instance(inst)
    if bad:
        raise ValueError("invalid instance: " + "; ".join(bad))
    _check_policy(inst, pol)

    S = inst.S
    q, a = inst.traffic.q, inst.traffic.a
    tau, rho = inst.profile.tau, inst.profile.rho
    r, c_w, c_c, tau_w = inst.econ.r, inst.econ.c_w, inst.econ.c_c, inst.econ.tau_w
    p_qa = congestion_probs(q, a)

    n = n_states(S)
    P = np.zeros((n, n))
    reward = np.zeros(n)
    duration = np.zeros(n)

    # Idle, no arrival: wait one period, redraw the arrival.
    P[I0, I0] = 1 - q
    P[I0, I1] = q
    duration[I0] = 1.0
    # Idle with an arrival: attempt 1 runs tau_1 periods, fresh (Q, A) after.
    for j in range(4):
        P[I1, c_index(1, j)] = p_qa[j]
    duration[I1] = tau[0]
    # Holding a warm transfer, expert unavailable: wait one period.
    P[W0, W0] = 1 - a
    P[W0, W1] = a
    duration[W0] = 1.0
    # Expert available: handoff runs tau_w periods, then idle with fresh arrival.
    P[W1, I0] = 1 - q
    P[W1, I1] = q
    duration[W1] = tau_w

    for x in range(1, S + 1):
        for j, (qf, af) in enumerate(CONGESTION_STATES):
            i = c_index(x, j)
            idle = I1 if qf else I0
            p_res = rho[x - 1]
            P[i, idle] += p_res
            reward[i] += p_res * r
            if x == S:
                continue  # final attempt always resolves
            p_fail = 1 - p_res
            act = pol.rule_after(x).action(qf, af)
            if act is Action.CONTINUE:
                for jj in range(4):
                    P[i, c_index(x + 1, jj)] += p_fail * p_qa[jj]
                duration[i] += p_fail * tau[x]
            elif act is Action.WARM:
                P[i, W1 if af else W0] += p_fail
                reward[i] += p_fail * (r - c_w)
            else:
                P[i, idle] += p_fail
                reward[i] += p_fail * (r - c_c)

    return EmbeddedChain(P=P, reward=reward, duration=duration, labels=state_labels(S))


def _reachable(P: np.ndarray, start: int) -> np.ndarray:
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


def _unreachable_states(P: np.ndarray, labels: tuple[str, ...], start: int = I0) -> list[str]:
    return [lbl for lbl, ok in zip(labels, _reachable(P, start)) if not ok]


def _solve_stationary(P: np.ndarray) -> tuple[Optional[np.ndarray], str]:
    """pi P = pi, sum(pi) = 1 by one LU solve, and the check that failed ("" if none).

    The balance matrix is P's off-diagonal part, transposed, with minus each
    row's off-diagonal sum on the diagonal, so a state left with probability
    q keeps exactly q, not (1 - q) - 1; sum(pi) = 1 replaces its last
    equation.  The residual is taken on P itself.
    """
    n = P.shape[0]
    A = P.T.copy()
    np.fill_diagonal(A, 0.0)
    np.fill_diagonal(A, -A.sum(axis=0))
    A[-1] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        return None, "singular balance matrix (more than one closed class)"
    resid = max(float(np.max(np.abs(pi @ P - pi))), abs(float(pi.sum()) - 1.0))
    if resid > _RESIDUAL_TOL:
        return pi, f"stationary distribution residual {resid:.2e} exceeds {_RESIDUAL_TOL:.0e}"
    return pi, ""


def stationary_distribution(P: np.ndarray, labels: Optional[tuple[str, ...]] = None) -> np.ndarray:
    """Stationary distribution of a unichain transition matrix.

    Transient states can take small negative values; when that guard fires,
    the system is solved again on the closed class (the states reachable
    from the most probable one), and every other state gets probability
    exactly 0.
    """
    lbl = labels or tuple(str(i) for i in range(P.shape[0]))
    pi, failed = _solve_stationary(P)
    if not failed:
        low = int(np.argmin(pi))
        if pi[low] >= _MIN_PI:
            return np.clip(pi, 0.0, None)
        failed = f"stationary probability of {lbl[low]} is {pi[low]:.2e}, below {_MIN_PI:.0e}"
        cls = _reachable(P, int(np.argmax(pi)))
        sub, sub_failed = _solve_stationary(P[np.ix_(cls, cls)])
        if not sub_failed and sub.min() >= _MIN_PI:
            pi = np.zeros_like(pi)
            pi[cls] = np.clip(sub, 0.0, None)
            return pi
    raise EvaluationError(
        f"{failed}; states unreachable from {lbl[I0]}: {_unreachable_states(P, lbl)}"
    )


@dataclass(frozen=True)
class PerformanceMeasures:
    """Customer-facing measures of a policy, per the embedded chain (floats)
    or per lane of the renewal recursion (arrays, see `cycle_performance`)."""

    throughput: float   # admitted customers per period
    p_admit: float      # fraction of arrivals admitted
    p_resolve: float    # per-admitted-customer outcome probabilities ...
    p_warm: float
    p_cold: float
    t_channel: float    # expected periods an admitted customer spends in channel

    def to_json_dict(self) -> dict:
        return {
            "throughput": self.throughput,
            "p_admit": self.p_admit,
            "p_resolve": self.p_resolve,
            "p_warm": self.p_warm,
            "p_cold": self.p_cold,
            "t_channel": self.t_channel,
        }


@dataclass(frozen=True)
class PolicyEvaluation:
    R: float                  # average reward per period (wage excluded)
    G: np.ndarray             # relative state values, anchored G(I0) = 0
    pi: np.ndarray            # embedded-chain stationary distribution
    perf: PerformanceMeasures
    labels: tuple[str, ...]

    def g(self, label: str) -> float:
        return float(self.G[self.labels.index(label)])

    def to_json_dict(self) -> dict:
        return {
            "R": self.R,
            "G": {lbl: float(g) for lbl, g in zip(self.labels, self.G)},
            "pi": {lbl: float(p) for lbl, p in zip(self.labels, self.pi)},
            "perf": self.perf.to_json_dict(),
        }

    def state_rows(self) -> list[tuple[str, float, float]]:
        """(state, pi, G) rows for CSV export."""
        return [(lbl, float(p), float(g)) for lbl, p, g in zip(self.labels, self.pi, self.G)]


def _performance(inst: ProblemInstance, pol: StationaryPolicy, pi: np.ndarray,
                 duration: np.ndarray) -> PerformanceMeasures:
    S = inst.S
    rho = inst.profile.rho
    mean_dur = float(pi @ duration)
    admit_per_step = float(pi[I1])  # every admission enters I1 exactly once
    throughput = admit_per_step / mean_dur
    p_admit = throughput / inst.traffic.q

    res = warm = cold = 0.0
    for x in range(1, S + 1):
        for j, (qf, af) in enumerate(CONGESTION_STATES):
            p = float(pi[c_index(x, j)])
            res += p * rho[x - 1]
            if x < S:
                act = pol.rule_after(x).action(qf, af)
                if act is Action.WARM:
                    warm += p * (1 - rho[x - 1])
                elif act is Action.COLD:
                    cold += p * (1 - rho[x - 1])
    total = res + warm + cold
    if total <= 0:
        p_res = p_wrm = p_cld = 0.0
        t_channel = 0.0
    else:
        p_res, p_wrm, p_cld = res / total, warm / total, cold / total
        # Occupied time: everything except I0 idling (decision nodes have
        # zero duration; attempt/wait/handoff periods all carry the customer).
        occupied = mean_dur - float(pi[I0]) * duration[I0]
        t_channel = occupied / admit_per_step
    return PerformanceMeasures(
        throughput=throughput,
        p_admit=p_admit,
        p_resolve=p_res,
        p_warm=p_wrm,
        p_cold=p_cld,
        t_channel=t_channel,
    )


def evaluate_policy(inst: ProblemInstance, pol: StationaryPolicy) -> PolicyEvaluation:
    """Average reward, relative values, and performance of a stationary policy.

    R is the ratio of expected reward to expected duration under the embedded
    stationary distribution; G solves G = reward - R * duration + P G with
    G(I0) = 0, by one LU solve in which R is an unknown too.  Decisions depend
    only on differences of G, so the anchor is arbitrary; this one makes the
    idle/holding identities G(I1) - G(I0) = R/q and G(W1) - G(W0) = R/a read
    directly off the vector.
    """
    chain = build_chain(inst, pol)
    pi = stationary_distribution(chain.P, chain.labels)
    mean_dur = float(pi @ chain.duration)
    if mean_dur <= 0:
        raise EvaluationError("chain has zero mean duration; no recurrent time-consuming state")
    R = float(pi @ chain.reward) / mean_dur

    # (I - P) G + R' duration = reward with G(I0) = 0, square in (G, R'): R'
    # takes G(I0)'s column, and I - P has each row's off-diagonal sum on its
    # diagonal, so a holding probability a keeps exactly a, not 1 - (1 - a).
    A = -chain.P
    np.fill_diagonal(A, 0.0)
    np.fill_diagonal(A, -A.sum(axis=1))
    A[:, I0] = chain.duration
    G = np.linalg.solve(A, chain.reward)
    resid = np.max(np.abs(A @ G - chain.reward))
    G[I0] = 0.0
    if resid > _RESIDUAL_TOL * max(1.0, float(np.max(np.abs(G)))):
        raise EvaluationError(
            f"relative-value system residual {resid:.2e}; "
            f"states unreachable from I0: {_unreachable_states(chain.P, chain.labels)}"
        )

    perf = _performance(inst, pol, pi, chain.duration)
    return PolicyEvaluation(R=R, G=G, pi=pi, perf=perf, labels=chain.labels)


# ---------------------------------------------------------------------------
# Fast renewal-cycle evaluator.
#
# Anchoring cycles at entries into I1 gives a closed recursion over attempts:
# starting attempt X earns expected reward W_X in expected time D_X until the
# next admission.  R = W_1 / D_1 exactly equals the chain ratio above; it
# serves the optimisers, bulk enumeration and, with the performance measures
# carried along (`cycle_performance`), the design layer, where chains would
# be slow.
# ---------------------------------------------------------------------------

def policy_actions(pol: StationaryPolicy) -> np.ndarray:
    """(S-1, 4) int array of actions, congestion states in canonical order."""
    return np.array([[int(act) for act in rule.actions] for rule in pol.rules], dtype=np.int8)


class RenewalTerms(NamedTuple):
    """Renewal-recursion inputs of N instances with one S, instance axis last:
    (W, D) of attempt x's own part (rho_x r, tau_x + rho_x E[idle]) and of a
    warm / cold transfer per observed (Q, A); fail[x-1] = (1 - rho_x) p(Q, A)."""

    r_never: np.ndarray   # (N,) average reward of never transferring
    head: np.ndarray      # (S, 2, N)
    fail: np.ndarray      # (S, 4, N)
    trans: np.ndarray     # (2, 2, 4, N): W/D, warm/cold, (Q, A), instance


def _terms(tau, rho, r, c_w, c_c, tau_w, q, a) -> RenewalTerms:
    """Renewal terms from per-lane parameters: tau and rho (S, N), the rest (N,)."""
    idle = (1 - q) / q                       # E[idle periods after release]
    head = np.stack([rho * r, tau + rho * idle], axis=1)
    d_never = np.zeros_like(q)
    for d_x, rho_x in zip(head[::-1, 1], rho[::-1]):
        d_never = d_x + (1 - rho_x) * d_never
    warm_d, cold_d = [1 / a + tau_w + idle] * 2 + [tau_w + idle] * 2, [1 / q, 0 * q] * 2   # given A, Q
    trans = np.array([[[r - c_w] * 4, [r - c_c] * 4], [warm_d, cold_d]])
    return RenewalTerms(r / d_never, head, (1 - rho)[:, None] * congestion_probs(q, a), trans)


def renewal_terms(insts: Sequence[ProblemInstance]) -> RenewalTerms:
    """Validated inputs of instances with one S, each lane's the same IEEE
    operations, bit for bit, whatever the block."""
    S = insts[0].S
    for inst in insts:
        bad = validate_instance(inst) or ([] if inst.S == S else [f"S = {inst.S} in a block of S = {S}"])
        if bad:
            raise ValueError("invalid instance: " + "; ".join(bad))
    tau = np.array([inst.profile.tau for inst in insts], dtype=float).T
    rho = np.array([inst.profile.rho for inst in insts]).T
    econ = np.array([(i.econ.r, i.econ.c_w, i.econ.c_c, i.econ.tau_w, i.traffic.q, i.traffic.a)
                     for i in insts]).T
    return _terms(tau, rho, *econ)


def lane_terms(inst: ProblemInstance, q: np.ndarray) -> RenewalTerms:
    """Renewal terms of `inst` at each arrival probability in q: `inst` passes
    every check of validate_instance but the one on q, made on each lane."""
    q = np.asarray(q, dtype=float)
    bad = validate_instance(inst.with_q(1.0))
    if not np.all((0.0 < q) & (q <= 1.0)):
        bad.append("q must lie in (0, 1]")
    if bad:
        raise ValueError("invalid instance: " + "; ".join(bad))
    lane = np.ones_like(q)
    tau, rho = (np.array(v, dtype=float)[:, None] * lane for v in (inst.profile.tau, inst.profile.rho))
    econ = inst.econ
    return _terms(tau, rho, *(v * lane for v in (econ.r, econ.c_w, econ.c_c, econ.tau_w)),
                  q, inst.traffic.a * lane)


def renewal_step(head, fail, cont, nxt, trans) -> np.ndarray:
    """(W, D) from an attempt's start: head + sum_j fail_j (nxt if cont_j else trans_j),
    summed in state order without BLAS, so no lane depends on the others."""
    return head + np.add.accumulate(np.where(cont, nxt[:, None], trans) * fail, axis=1)[:, 3]


def _policy_pass(head, fail, trans, actions) -> np.ndarray:
    """Per-cycle expectations, one row per row of head and trans, of each
    lane's (S-1, 4) actions: the recursion from attempt S back to attempt 1."""
    out = np.broadcast_to(head[-1], (head.shape[1], len(actions)))
    for act, h, f in zip(actions.transpose(1, 2, 0)[::-1], head[-2::-1], fail[-2::-1]):
        out = renewal_step(h, f, act == Action.CONTINUE, out,
                           np.where(act == Action.WARM, trans[:, 0], trans[:, 1]))
    return out


def average_reward_batch(inst: ProblemInstance, actions: np.ndarray) -> np.ndarray:
    """Average reward for a batch of policies given as an (P, S-1, 4) action array."""
    if actions.ndim != 3 or actions.shape[1:] != (inst.S - 1, 4):
        raise ValueError(f"actions array must have shape (n, {inst.S - 1}, 4)")
    t = renewal_terms([inst])
    W, D = _policy_pass(t.head, t.fail, t.trans, actions)
    return W / D


def cycle_performance(inst: ProblemInstance, q: np.ndarray,
                      actions: np.ndarray) -> tuple[np.ndarray, PerformanceMeasures]:
    """Average reward and performance measures per lane, without a chain.

    Lane i runs `inst` at arrival probability q[i] under the (S-1, 4) actions
    actions[i]; the measures' fields are arrays over lanes.  Along with W and
    D the recursion carries each cycle's busy time and the probabilities that
    its one admitted customer is resolved, warm or cold transferred.  A cycle
    is one admission, so R = W_1/D_1, throughput = 1/D_1, p_admit = 1/(q D_1),
    the outcome probabilities are the per-cycle ones and t_channel is the busy
    time, carried directly because D_1 - E[idle] cancels at small q.
    """
    t = lane_terms(inst, q)
    S, N, tau_w, a = inst.S, len(q), inst.econ.tau_w, inst.traffic.a
    # rows: busy, resolve, warm, cold; an attempt's own part, then a transfer's given (Q, A)
    head = [[tau_x, rho_x, 0.0, 0.0] for tau_x, rho_x in zip(inst.profile.tau, inst.profile.rho)]
    trans = [[[1 / a + tau_w] * 2 + [tau_w] * 2, [0.0] * 4], [[0.0] * 4] * 2,
             [[1.0] * 4, [0.0] * 4], [[0.0] * 4, [1.0] * 4]]
    W, D, busy, res, warm, cold = _policy_pass(
        np.concatenate([t.head, np.broadcast_to(np.array(head)[..., None], (S, 4, N))], axis=1),
        t.fail,
        np.concatenate([t.trans, np.broadcast_to(np.array(trans)[..., None], (4, 2, 4, N))]),
        actions,
    )
    return W / D, PerformanceMeasures(throughput=1 / D, p_admit=1 / (q * D), p_resolve=res,
                                      p_warm=warm, p_cold=cold, t_channel=busy)


def average_reward(inst: ProblemInstance, pol: StationaryPolicy) -> float:
    """Scalar renewal-cycle average reward of one policy."""
    _check_policy(inst, pol)
    return float(average_reward_batch(inst, policy_actions(pol).reshape(1, -1, 4))[0])
