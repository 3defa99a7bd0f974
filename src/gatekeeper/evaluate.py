"""Exact evaluation of stationary policies on the embedded service chain.

The per-period service process embeds into a semi-Markov chain with
4 + 4S states: I0/I1 (agent idle, without/with an arrival), W0/W1 (agent
holding a warm transfer, expert unavailable/available) and C(X, Q, A)
(attempt X just completed under congestion (Q, A)).  Resolution and transfer
nodes have zero duration; every cycle passes through positive-duration
states, so the renewal-reward ratio over the embedded stationary distribution
gives the long-run average reward R, and the evaluation (Poisson) equations
anchored at G(I0) = 0 give the relative state values G.

Every admission starts a new cycle at I1, so π is read off forward in cycle
order as the expected visits per admission, and G backward in the same
order.  No linear solve is taken, and π is formed without a subtraction, so
even the mass of a state left once in 10⁸ periods is right to round-off.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .model import (
    Action,
    CONGESTION_STATES,
    InstanceBlock,
    ProblemInstance,
    StationaryPolicy,
)

I0, I1, W0, W1 = 0, 1, 2, 3

_RESIDUAL_TOL = 1e-10


class EvaluationError(RuntimeError):
    """Raised when the chain's equations cannot be solved reliably."""


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
    outcome: np.ndarray    # (n, 3) per state: P(resolve), P(warm), P(cold) on leaving it
    labels: tuple[str, ...]


def check_policy(inst: ProblemInstance, pol: StationaryPolicy) -> None:
    """Reject a policy whose rule count does not fit the instance's S."""
    S = inst.S
    if pol.n_decisions != S - 1:
        raise ValueError(
            f"policy must define rules for attempts 1..{S - 1}; "
            f"got {pol.n_decisions} rules (a rule at attempt {S} would allow an "
            f"unreachable Continue branch, since the final attempt always resolves)"
        )


def build_chain(inst: ProblemInstance, pol: StationaryPolicy) -> EmbeddedChain:
    """Embedded chain of the per-period process under a stationary policy."""
    check_policy(inst, pol)

    S = inst.S
    q, a = inst.traffic.q, inst.traffic.a
    tau, rho = inst.profile.tau, inst.profile.rho
    r, c_w, c_c, tau_w = inst.econ.r, inst.econ.c_w, inst.econ.c_c, inst.econ.tau_w
    p_qa = congestion_probs(q, a)

    n = n_states(S)
    P = np.zeros((n, n))
    reward = np.zeros(n)
    duration = np.zeros(n)
    outcome = np.zeros((n, 3))

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
            outcome[i, 0] = p_res
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
                outcome[i, 1] = p_fail
            else:
                P[i, idle] += p_fail
                reward[i] += p_fail * (r - c_c)
                outcome[i, 2] = p_fail

    return EmbeddedChain(P=P, reward=reward, duration=duration, outcome=outcome,
                         labels=state_labels(S))


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Stationary distribution of an embedded chain P: the expected visits
    per admission (Kemeny & Snell 1960, ch. 4), found forward in cycle order.

    v(I1) = 1, attempt x + 1 takes the flow out of attempt x, W0 its inflow
    over a, W1 its inflow and I0 its inflow over q, so nothing is subtracted
    and a state no cycle enters gets exactly 0.  The residual is taken on P
    itself, so a matrix whose rows do not sum to one fails it.
    """
    v = np.zeros(len(P))
    v[I1] = 1.0
    for c in range(c_index(1, 0), len(P), 4):   # attempt by attempt
        v[c:c + 4] = v @ P[:, c:c + 4]
    v[W0] = v @ P[:, W0] / P[W0, W1]
    v[W1] = v @ P[:, W1]
    v[I0] = v @ P[:, I0] / P[I0, I1]
    pi = v / v.sum()
    resid = float(np.max(np.abs(pi @ P - pi)))
    if not resid <= _RESIDUAL_TOL:
        raise EvaluationError(f"stationary distribution residual {resid:.2e} exceeds {_RESIDUAL_TOL:.0e}")
    return pi


@dataclass(frozen=True)
class PerformanceMeasures:
    """Customer-facing measures of a policy, per the embedded chain (floats)
    or per lane of the renewal recursion (arrays, see `LaneEvaluator`)."""

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


def _performance(chain: EmbeddedChain, pi: np.ndarray, mean_dur: float,
                 q: float) -> PerformanceMeasures:
    admit_per_step = float(pi[I1])  # every admission enters I1 exactly once
    throughput = admit_per_step / mean_dur
    # Each admission ends in exactly one outcome, so total > 0; the flows are
    # summed in state order, not by a dot product, whose order would differ.
    res, warm, cold = np.add.accumulate(pi[:, None] * chain.outcome)[-1].tolist()
    total = res + warm + cold
    # Occupied time: every state but I0 (decision nodes have zero duration;
    # attempt/wait/handoff periods all carry the customer), summed directly
    # rather than as mean_dur - pi(I0) d(I0), which cancels at small q.
    occupied = float(pi[1:] @ chain.duration[1:])   # I0 is state 0
    return PerformanceMeasures(
        throughput=throughput,
        p_admit=throughput / q,
        p_resolve=res / total,
        p_warm=warm / total,
        p_cold=cold / total,
        t_channel=occupied / admit_per_step,
    )


def evaluate_policy(inst: ProblemInstance, pol: StationaryPolicy) -> PolicyEvaluation:
    """Average reward, relative values, and performance of a stationary policy.

    R is the ratio of expected reward to expected duration under the embedded
    stationary distribution; G solves G = reward - R * duration + P G with
    G(I0) = 0, by substitution in cycle order rather than a linear solve.
    Decisions depend only on differences of G, so the anchor is arbitrary;
    this one makes the idle/holding identities G(I1) - G(I0) = R/q and
    G(W1) - G(W0) = R/a read directly off the vector.
    """
    chain = build_chain(inst, pol)
    pi = stationary_distribution(chain.P)
    mean_dur = float(pi @ chain.duration)   # > 0: pi(I1) > 0 and I1 lasts tau_1 >= 1
    R = float(pi @ chain.reward) / mean_dur

    # Back-substitution in cycle order: I0's row gives G(I1), W1's reads only
    # I0 and I1, W0's gives G(W0) from G(W1), and each attempt's rows read only
    # idle and holding states and the next attempt's, which are already set.
    G = np.zeros(len(chain.P))
    G[I1] = R / inst.traffic.q
    G[W1] = chain.reward[W1] - R * chain.duration[W1] + chain.P[W1] @ G
    G[W0] = G[W1] - R / inst.traffic.a
    for x in range(inst.S, 0, -1):
        rows = slice(c_index(x, 0), c_index(x + 1, 0))
        G[rows] = chain.reward[rows] - R * chain.duration[rows] + chain.P[rows] @ G
    resid = np.max(np.abs(chain.reward - R * chain.duration + chain.P @ G - G))
    if resid > _RESIDUAL_TOL * max(1.0, float(np.max(np.abs(G)))):
        raise EvaluationError(f"relative-value system residual {resid:.2e}")

    perf = _performance(chain, pi, mean_dur, inst.traffic.q)
    return PolicyEvaluation(R=R, G=G, pi=pi, perf=perf, labels=chain.labels)


# ---------------------------------------------------------------------------
# Fast renewal-cycle evaluator.
#
# Anchoring cycles at entries into I1 gives a closed recursion over attempts:
# starting attempt X earns expected reward W_X in expected time D_X until the
# next admission.  R = W_1 / D_1 exactly equals the chain ratio above; it
# serves the optimisers, bulk enumeration and, with the performance measures
# carried along (`LaneEvaluator`), the design layer, where chains would
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


def block_terms(tau, rho, r, c_w, c_c, tau_w, q, a) -> RenewalTerms:
    """Renewal terms from per-lane parameters (a `model.InstanceBlock`'s
    fields): tau and rho (S, N), the rest (N,)."""
    idle = (1 - q) / q                       # E[idle periods after release]
    head = np.stack([rho * r, tau + rho * idle], axis=1)
    d_never = np.zeros_like(q)
    for d_x, rho_x in zip(head[::-1, 1], rho[::-1]):
        d_never = d_x + (1 - rho_x) * d_never
    warm_d, cold_d = [1 / a + tau_w + idle] * 2 + [tau_w + idle] * 2, [1 / q, 0 * q] * 2   # given A, Q
    trans = np.array([[[r - c_w] * 4, [r - c_c] * 4], [warm_d, cold_d]])
    return RenewalTerms(r / d_never, head, (1 - rho)[:, None] * congestion_probs(q, a), trans)


def renewal_terms(insts: Sequence[ProblemInstance]) -> RenewalTerms:
    """Inputs of instances with one S, each lane's the same IEEE operations,
    bit for bit, whatever the block."""
    return block_terms(*InstanceBlock.of(insts))


def renewal_step(head, fail, cont, nxt, trans) -> np.ndarray:
    """(W, D) from an attempt's start: head + sum_j fail_j (nxt if cont_j else trans_j),
    the four state terms added left to right, ((x_0 + x_1) + x_2) + x_3, as
    element-wise adds without BLAS, so no lane depends on the others."""
    x = np.where(cont, nxt[:, None], trans) * fail
    return head + (((x[:, 0] + x[:, 1]) + x[:, 2]) + x[:, 3])


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


class LaneEvaluator:
    """The renewal recursion of lanes of one instance, at many q in turn.

    Next to W and D it carries a cycle's busy time and the chances that its
    one admitted customer is resolved, warm or cold transferred, so R =
    W_1/D_1, throughput = 1/D_1, p_admit = 1/(q D_1), and t_channel is the
    busy time (D_1 - E[idle] cancels at small q).  The q-free rows are built
    once, per lane and decision those of the transfer its action picks;
    `at(q)` fills a pass's q terms (idle, fail, the D rows), `terms` gives
    some lanes' `RenewalTerms` to the optimiser and `measures` runs the
    recursion.  A lane takes the IEEE operations of `block_terms` and
    `_policy_pass` in their order, so its bits do not depend on the others.
    """

    def __init__(self, inst: ProblemInstance, actions: np.ndarray):
        tau, rho = (np.array(v, dtype=float) for v in (inst.profile.tau, inst.profile.rho))
        econ, a, S, N = inst.econ, inst.traffic.a, len(tau), len(actions)
        self._tau, self._rho, self._r, self._a = tau[:, None], rho[:, None], econ.r, a
        # rows W, D, busy, resolve, warm, cold of each attempt's own part and
        # of a warm / cold transfer per (Q, A); D is filled per pass
        busy, zero = [1 / a + econ.tau_w] * 2 + [econ.tau_w] * 2, 0 * tau
        self._head = np.repeat(np.stack([rho * econ.r, zero, tau, rho, zero, zero], 1)[..., None], N, 2)
        self._trans = np.array([[[econ.r - econ.c_w, 0.0, b, 0.0, 1.0, 0.0] for b in busy],
                                [[econ.r - econ.c_c, 0.0, 0.0, 0.0, 0.0, 1.0]] * 4])[..., None]
        self._fail, self._d = np.empty((S, 4, N)), np.zeros((2, 4, N))   # per (Q, A)
        self._T, self._cont = np.empty((S - 1, 4, 6, N)), np.empty((S - 1, 4, 1, N), dtype=bool)
        self.actions = np.full(np.shape(actions), -1, dtype=np.int8)
        self.set_actions(slice(None), actions)

    def set_actions(self, lanes, actions: np.ndarray) -> None:
        """Give the lanes `lanes` the (n, S-1, 4) actions `actions`."""
        if not np.array_equal(self.actions[lanes], actions):
            self.actions[lanes] = actions
            act = self.actions[lanes].transpose(1, 2, 0)[:, :, None]
            self._cont[..., lanes] = act == Action.CONTINUE
            self._T[..., lanes] = np.where(act == Action.WARM, self._trans[0], self._trans[1])

    def keep(self, lanes: np.ndarray) -> None:
        """Keep only the lanes `lanes`, in their order."""
        self._T, self._cont = self._T.take(lanes, axis=-1), self._cont.take(lanes, axis=-1)
        self.actions = self.actions.take(lanes, axis=0)

    def at(self, q: np.ndarray) -> LaneEvaluator:
        """The q terms of a pass, lane i at q[i], which must lie in (0, 1]."""
        q = self._q = np.asarray(q, dtype=float)
        if not 0.0 < q.min(initial=1.0) <= q.max(initial=1.0) <= 1.0:
            raise ValueError("invalid instance: q must lie in (0, 1]")
        n, idle = len(q), (1 - q) / q
        head, fail, d = self._head[..., :n], self._fail[..., :n], self._d[..., :n]
        np.add(self._tau, np.multiply(self._rho, idle, out=head[:, 1]), out=head[:, 1])
        np.multiply(1 - self._rho[:, None], congestion_probs(q, self._a), out=fail)
        np.add(self._trans[0, :, 2], idle, out=d[0])
        d[1, 0::2] = 1 / q   # a cold transfer waits for the next arrival if Q = 0
        self._pass = head, fail, d
        return self

    def terms(self, lanes: np.ndarray) -> RenewalTerms:
        """`block_terms` of the lanes `lanes` at this pass's q."""
        head, fail, d = (a.take(lanes, axis=-1) for a in (self._pass[0][:, :2], *self._pass[1:]))
        d_never = np.zeros(len(lanes))
        for d_x, rho_x in zip(head[::-1, 1], self._rho[::-1]):
            d_never = d_x + (1 - rho_x) * d_never
        trans = np.stack([np.broadcast_to(self._trans[:, :, 0], d.shape), d])
        return RenewalTerms(self._r / d_never, head, fail, trans)

    def measures(self) -> tuple[np.ndarray, PerformanceMeasures]:
        """Each lane's average reward and measures at this pass's q, by the
        steps of `renewal_step` over (Q, A)-major arrays."""
        (head, fail, d), T = self._pass, self._T
        T[:, :, 1] = np.where(T[:, :, 4] == 1.0, d[0], d[1])   # warm or cold
        out = head[-1]
        for x in range(len(T) - 1, -1, -1):
            v = np.where(self._cont[x], out, T[x])
            v *= fail[x, :, None]
            out = head[x] + (((v[0] + v[1]) + v[2]) + v[3])
        W, D, busy, res, warm, cold = out
        return W / D, PerformanceMeasures(throughput=1 / D, p_admit=1 / (self._q * D), p_resolve=res,
                                          p_warm=warm, p_cold=cold, t_channel=busy)


def average_reward(inst: ProblemInstance, pol: StationaryPolicy) -> float:
    """Scalar renewal-cycle average reward of one policy."""
    check_policy(inst, pol)
    return float(average_reward_batch(inst, policy_actions(pol).reshape(1, -1, 4))[0])
