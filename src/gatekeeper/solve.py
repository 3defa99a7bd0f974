"""Optimal stationary policies and the finite-horizon recursion.

Dinkelbach's ratio iteration over a backward DP on the renewal recursion
finds, for a block of instances at once, the stationary (or threshold)
policy with the largest long-run average reward R*.  Its exact chain
evaluation gives R* and the relative values G, which also provide
horizon-closing terminal values, affine in R*, under which the
finite-horizon optimal action at every decision node is the stationary one
for all t: the shift effectively hands unfinished work to the next shift at a
pro-rated value R*(T+1-t) + G(state).  Exhaustive enumeration is kept as the
oracle.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .evaluate import (
    I0,
    I1,
    W0,
    W1,
    PolicyEvaluation,
    RenewalTerms,
    average_reward_batch,
    congestion_probs,
    evaluate_policy,
    n_states,
    renewal_step,
    renewal_terms,
    state_labels,
)
from .model import (
    CONGESTION_STATES,
    DecisionRule,
    InstanceBlock,
    ProblemInstance,
    StationaryPolicy,
    all_decision_rules,
    policy_from_actions,
    rules_table,
)


class EnumerationCapError(RuntimeError):
    """Raised when an exhaustive enumeration would exceed the configured cap."""


_MEMBER = (np.arange(16) >> np.arange(4)[:, None]) & 1 == 1   # [j, C]: state j in set C


def _subset_argmax(f: np.ndarray) -> np.ndarray:
    """Per set C (bit j = state j) and lane of a (16, N) array, the subset of C
    with the largest f; only a strictly better set wins, so ties go to the largest."""
    f, arg = f.copy(), np.repeat(np.arange(16)[:, None], f.shape[1], axis=1)
    for j in range(4):
        shape = (8 >> j, 2, 1 << j, f.shape[1])   # axis 1 is bit j of the set
        fv, av = f.reshape(shape), arg.reshape(shape)
        np.copyto(av[:, 1], av[:, 0], where=fv[:, 0] > fv[:, 1])
        np.maximum(fv[:, 1], fv[:, 0], out=fv[:, 1])
    return arg


def _free_pass(t: RenewalTerms, R, value, trans):
    """Continue where the next attempt's W - R D is at least the transfer's."""
    WD, cont = t.head[-1], []
    for head, fail in zip(t.head[-2::-1], t.fail[-2::-1]):
        cont.append(WD[0] - R * WD[1] >= value)
        WD = renewal_step(head, fail, cont[-1], WD, trans)
    return WD, np.array(cont[::-1], dtype=bool).reshape(len(t.head) - 1, *value.shape)


def _nested_pass(t: RenewalTerms, R, value, trans):
    """Attempt x's (W, D) per set C the previous attempt continued in: the
    best over subsets C' of C of continuing in C' at attempt x."""
    lanes, WD, args = np.arange(len(R)), t.head[-1][:, None], []   # attempt S decides nothing
    for head, fail in zip(t.head[-2::-1], t.fail[-2::-1]):
        WD = renewal_step(head[:, None], fail[:, None], _MEMBER[..., None], WD, trans[:, :, None])
        args.append(_subset_argmax(WD[0] - R * WD[1]))
        WD = WD[:, args[-1], lanes]
    C, cont = np.full(len(R), 15), []   # attempt 1 may continue in any set
    for arg in reversed(args):
        C = arg[C, lanes]
        cont.append(_MEMBER[:, C])
    return WD[:, -1], np.array(cont, dtype=bool).reshape(len(t.head) - 1, *value.shape)


def dinkelbach(t: RenewalTerms, nested: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Largest average reward per instance and its (S-1, 4) actions, over all
    stationary policies or, if `nested`, over threshold policies.

    Dinkelbach (1967): at a fixed R one backward pass maximizes W_1 - R D_1
    (see `average_reward_batch`), and its maximizer's W_1 / D_1 is the next R.
    A transfer's W - R D does not depend on the attempt, so each state's mode
    is the better of warm and cold (warm on ties).  Over all policies
    continuing wins ties (Continue > Warm > Cold).  A threshold policy
    continues in shrinking sets C_1 >= C_2 >= ..., taken as subset maxima
    with ties to the largest bitmask (bit j = state j of CONGESTION_STATES).
    R starts at never transferring (the maximizer at R = 0) and rises until
    the actions repeat.  An instance leaves the block in the pass where its
    ratio stops rising: a further pass at the same R would give the same
    bits, so that pass's ratio and actions are its answer, and the later
    passes run over the instances still rising.  No lane reads another, so
    each result is bit-identical alone or in a block.
    """
    run, N = _nested_pass if nested else _free_pass, len(t.r_never)
    lanes, R, R_out = np.arange(N), t.r_never, np.empty(N)
    cont_out, cold_out = np.empty((N, len(t.head) - 1, 4), dtype=bool), np.empty((N, 4), dtype=bool)
    while True:
        v = t.trans[0] - R * t.trans[1]
        cold = v[1] > v[0]
        WD, cont = run(t, R, np.maximum(v[0], v[1]), np.where(cold, t.trans[:, 1], t.trans[:, 0]))
        ratio = WD[0] / WD[1]
        # a lane's last write is from the pass where its ratio stops rising
        R_out[lanes], cont_out[lanes], cold_out[lanes] = ratio, cont.transpose(2, 0, 1), cold.T
        rising = np.flatnonzero(ratio > R)
        if not len(rising):
            break
        lanes, R, t = lanes[rising], ratio[rising], t._make(a.take(rising, axis=-1) for a in t)
    # Action codes: continue, warm, cold
    return R_out, np.where(cont_out, 0, cold_out[:, None] + 1).astype(np.int8)


def optimal_policy(inst: ProblemInstance) -> tuple[StationaryPolicy, float]:
    """Optimal stationary policy and its average reward (see `dinkelbach`)."""
    R, acts = dinkelbach(renewal_terms([inst]))
    return policy_from_actions(acts[0].tolist()), float(R[0])


def solve_average_reward(inst: ProblemInstance) -> tuple[StationaryPolicy, PolicyEvaluation]:
    """Optimal stationary policy (see `optimal_policy`) and its exact chain evaluation."""
    pol, _ = optimal_policy(inst)
    return pol, evaluate_policy(inst, pol)


def policy_grid(rules: list[DecisionRule], S: int) -> tuple[np.ndarray, np.ndarray]:
    """Every policy over a rule list: (P, S-1) rule indices and (P, S-1, 4) actions."""
    rule_acts = np.array([[int(a) for a in rule.actions] for rule in rules], dtype=np.int8)
    combos = np.indices((len(rules),) * (S - 1)).reshape(S - 1, len(rules) ** (S - 1)).T
    return combos, rule_acts[combos]


class RankedPolicies(Sequence):
    """Read-only (policy, R) pairs in rank order; a pair is built when read."""

    def __init__(self, rules: list[DecisionRule], combos: np.ndarray, R: np.ndarray):
        self._rules, self._combos, self._R = rules, combos, R

    def __len__(self) -> int:
        return len(self._R)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return RankedPolicies(self._rules, self._combos[i], self._R[i])
        return StationaryPolicy(tuple(self._rules[j] for j in self._combos[i])), float(self._R[i])


def enumerate_policies(
    inst: ProblemInstance, ruleset: str = "table-1", cap: int = 10_000_000
) -> RankedPolicies:
    """Exhaustively evaluate every stationary policy over a rule set.

    ruleset "table-1" uses the 11 dominance-admissible rules; "all-81" uses
    every action vector.  Returns (policy, R) pairs, built when read, ranked
    by R descending, ties broken lexicographically on the per-attempt rule names.
    """
    if ruleset == "table-1":
        rules = list(rules_table().values())
    elif ruleset == "all-81":
        rules = all_decision_rules()
    else:
        raise ValueError(f"unknown ruleset {ruleset!r}; use 'table-1' or 'all-81'")

    S = inst.S
    n_pol = len(rules) ** (S - 1)
    if n_pol > cap:
        raise EnumerationCapError(
            f"enumeration needs {n_pol} policy evaluations, above the cap {cap}; "
            f"raise the cap to at least {n_pol} to proceed"
        )

    combos, acts = policy_grid(rules, S)
    R = average_reward_batch(inst, acts)

    names = [rule.name for rule in rules]
    name_rank = np.argsort(sorted(range(len(rules)), key=names.__getitem__))
    # lexsort's last key is the primary one: -R, then the rule names by attempt
    order = np.lexsort(tuple(name_rank[combos[:, x]] for x in reversed(range(S - 1))) + (-R,))
    return RankedPolicies(rules, combos[order], R[order])


@dataclass(frozen=True)
class TerminalConditions:
    """Horizon-closing values, affine in the reference rate r_ref.

    A lookup at any epoch t evaluates to r_ref*(T+1-t) + v_end[state]; beyond
    T+1 this prices actions that would overrun the horizon as a pro-rated
    handoff to the next shift rather than truncating them.
    """

    v_end: np.ndarray
    r_ref: float

    def value(self, t: int, T: int) -> np.ndarray:
        return self.r_ref * (T + 1 - t) + self.v_end


def stationary_terminals(ev: PolicyEvaluation) -> TerminalConditions:
    """Terminal conditions that make the finite-horizon optimum stationary.

    v_end is the relative-value vector of the optimal stationary policy and
    r_ref its average reward, so the horizon recursion reproduces the
    stationary decisions at every t.
    """
    return TerminalConditions(v_end=ev.G.copy(), r_ref=ev.R)


def zero_terminals(inst: ProblemInstance) -> TerminalConditions:
    """All-zero terminal values (no credit for handed-off work)."""
    return TerminalConditions(v_end=np.zeros(n_states(inst.S)), r_ref=0.0)


@dataclass(frozen=True)
class FiniteHorizonSolution:
    """Backward-induction values V[t][state] for t = 1..T+1 and the chosen
    action at every decision node (t, X, (Q, A)) for t = 1..T."""

    V: np.ndarray        # (T+2, n); row 0 unused, row T+1 = terminal values
    argmax: np.ndarray   # (T+1, S-1, 4) int; row 0 unused
    T: int
    labels: tuple[str, ...]


_IDLE, _HOLD = np.array([I0, I1, I0, I1]), np.array([W0, W0, W1, W1])


def backward_induction(insts: Sequence[ProblemInstance], T: int,
                       terms: Sequence[TerminalConditions]) -> list[FiniteHorizonSolution]:
    """Finite-horizon optimal values of instances with one S, each under its
    terminal conditions, as views into one block's arrays.

    Implements the per-state recursion of the service process: idle and
    holding states advance one period (or tau_1 / tau_w on admission and
    handoff); completed-attempt states resolve with probability rho_X and
    otherwise take the best of continue / warm / cold, where continuing
    prices the next attempt at a fresh congestion draw.  Chosen actions are
    recorded with tie-break order Continue > Warm > Cold (ties resolved
    within a relative tolerance so equal-valued nodes pick consistently).
    Each epoch is one array step over the instances; a lane takes the IEEE
    operations of a state-by-state loop (each fresh-draw expectation a dot
    of unit-stride rows), so its bits do not depend on the block.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    b = InstanceBlock.of(insts)
    S, L = b.tau.shape
    # Block 0 holds I0, I1, W0, W1 and block x the C(x, (Q, A)); epoch t reads
    # block 0 at t + tau_w and block x at t + tau_x, a lag cut to T + 1, with
    # the terminal values of the uncut rows past T + 1.
    lag = np.vstack([b.tau_w, b.tau]).T
    cut = np.minimum(lag, T + 1).astype(int)
    V = np.zeros((L, T + 1 + int(cut.max()), n_states(S)))
    V[:, T + 1] = [tc.v_end for tc in terms]
    uncut = T + 1 + np.arange(1, cut.max())[:, None] + np.repeat(lag - cut, 4, axis=1)[:, None]
    V[:, T + 2:] = [tc.value(rows, T) for tc, rows in zip(terms, uncut)]
    B = V.reshape(L, -1, S + 1, 4)
    argmax = np.zeros((L, T + 1, S - 1, 4), dtype=np.int8)
    lanes, blocks = np.arange(L)[:, None], np.arange(S + 1)
    p = np.ascontiguousarray(np.broadcast_to(congestion_probs(b.q, b.a).T[:, None, None], (L, S, 1, 4)))
    go, q, r = np.stack([b.q, b.a], axis=1), b.q, b.r[:, None]   # I0 -> I1 w.p. q, W0 -> W1 w.p. a
    stay_go, stay_q = 1 - go, 1 - q
    rho = b.rho.T[:, :-1, None]
    keep, warm_r, cold_r = 1 - rho, (b.r - b.c_w)[:, None, None], (b.r - b.c_c)[:, None, None]
    for t in range(T, 0, -1):
        seen = B[lanes, t + cut, blocks]
        fresh = (p @ seen[:, 1:, :, None])[..., 0, 0]   # a fresh (Q, A) draw after each attempt
        now, nxt = B[:, t, 0], B[:, t + 1, 0]
        now[:, 0::2] = stay_go * nxt[:, 0::2] + go * nxt[:, 1::2]   # I0 and W0
        now[:, I1] = fresh[:, 0]
        now[:, W1] = stay_q * seen[:, 0, I0] + q * seen[:, 0, I1]
        idle, hold = now.take(_IDLE, axis=1), now.take(_HOLD, axis=1)   # per (Q, A)
        cont, warm, cold = fresh[:, 1:, None], warm_r + hold[:, None], cold_r + idle[:, None]
        best = np.where(warm > cont, warm, cont)   # the first maximum, as max() keeps it
        best = np.where(cold > best, cold, best)
        near = best - 1e-9 * np.maximum(1.0, abs(best))
        argmax[:, t] = np.where(cont >= near, 0, np.where(warm >= near, 1, 2))
        resolve = r + idle
        B[:, t, 1:S] = rho * resolve[:, None] + keep * best
        B[:, t, S] = resolve

    labels = state_labels(S)
    return [FiniteHorizonSolution(V=V[i, :T + 2], argmax=argmax[i], T=T, labels=labels) for i in range(L)]


def verify_stationarity(sol: FiniteHorizonSolution) -> tuple[bool, Optional[tuple[int, int, int, int]]]:
    """True iff the chosen action at each (X, Q, A) is identical for every t.

    On failure returns the first (t, X, Q, A), scanning t ascending, then X,
    then (Q, A) in CONGESTION_STATES order, whose action differs from the
    t = 1 choice.
    """
    diff = np.argwhere(sol.argmax[2:] != sol.argmax[1])
    if not len(diff):
        return True, None
    t, x, qa = diff[0].tolist()
    return False, (t + 2, x + 1, *CONGESTION_STATES[qa])
