"""Structural analysis of optimal transfer behavior.

The warm-vs-cold choice in congestion state (Q, A) reduces to comparing the
channel's average reward against a per-state threshold
(c_c - c_w) / [tau_w - 1 + (1-A)/a + Q/q]: below the threshold a warm
transfer is preferred, at or above it a cold transfer.  Sorting the four
thresholds partitions instances into five cases, each with a small set of
admissible decision rules.  This module also provides the threshold-policy
heuristic (continue up to a per-state attempt index, then transfer with a
per-state mode; its best policy comes from a polynomial DP over nested sets
of continuing states), a sufficient optimality condition with a risk-adjusted
shortest-processing-time flavor, and the study harness measuring the
heuristic's optimality gap on random instances, one array block per S.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .evaluate import RenewalTerms, block_terms, renewal_terms
from .model import (
    Action,
    CONGESTION_STATES,
    GeneratorConfig,
    InstanceBlock,
    ProblemInstance,
    StationaryPolicy,
    as_seed,
    generate_block,
    policy_from_actions,
    rules_table,
)
from .solve import dinkelbach

GAP_TOL = 1e-9  # relative gap below which an uncertified lane counts as threshold-optimal


@dataclass(frozen=True)
class TransferThresholds:
    """Per-congestion-state reward thresholds for preferring a cold transfer."""

    values: tuple[float, float, float, float]  # canonical (Q, A) order

    def value(self, q: int, a: int) -> float:
        return self.values[CONGESTION_STATES.index((q, a))]

    @property
    def ordering(self) -> tuple[tuple[int, int], ...]:
        """Congestion states sorted by ascending threshold (stable)."""
        order = sorted(range(4), key=lambda i: self.values[i])
        return tuple(CONGESTION_STATES[i] for i in order)


def compute_thresholds(inst: ProblemInstance) -> TransferThresholds:
    """Thresholds (c_c - c_w)/[tau_w - 1 + (1-A)/a + Q/q] per (Q, A).

    A zero denominator (tau_w = 1 observed with Q = 0, A = 1) means a warm
    transfer costs the agent no time at all, so the threshold is +inf: warm
    is preferred in that state at any reward level.
    """
    econ, tr = inst.econ, inst.traffic
    savings = econ.c_c - econ.c_w
    vals = []
    for qf, af in CONGESTION_STATES:
        denom = econ.tau_w - 1 + (1 - af) / tr.a + qf / tr.q
        vals.append(savings / denom if denom > 0 else math.inf)
    return TransferThresholds(tuple(vals))


@dataclass(frozen=True)
class CaseClassification:
    """Where the average reward falls among the four transfer thresholds."""

    case_label: str                                  # "1", "2", "3w"/"3c", "4", "5"
    preferred_mode: tuple[str, str, str, str]        # "warm"/"cold", canonical order
    admissible: tuple[str, ...]                      # rule labels, quality order

    def mode(self, q: int, a: int) -> str:
        return self.preferred_mode[CONGESTION_STATES.index((q, a))]


def classify_case(inst: ProblemInstance, r_star: float) -> CaseClassification:
    """Preferred transfer mode per state and the surviving decision rules.

    Cold is preferred in (Q, A) iff r_star >= threshold(Q, A).  A rule is
    admissible iff each of its transfer actions uses the preferred mode for
    that state (its continue entries are unconstrained).  The case label
    counts crossed thresholds; the middle case is tagged by which pure
    transfer rule survives (T3w when the (0,0) threshold is crossed first,
    T3c when (1,1) is), which flips with the sign of 1/q - 1/a.
    """
    if r_star < 0:
        raise ValueError("r_star must be nonnegative")
    th = compute_thresholds(inst)
    modes = tuple("cold" if r_star >= v else "warm" for v in th.values)
    crossed = sum(1 for v in th.values if r_star >= v)
    if crossed == 2:
        label = "3w" if th.value(0, 0) <= th.value(1, 1) else "3c"
    else:
        label = {0: "1", 1: "2", 3: "4", 4: "5"}[crossed]

    admissible = []
    for lbl, rule in rules_table().items():
        ok = True
        for qa, act in enumerate(rule.actions):
            if act is Action.WARM and modes[qa] != "warm":
                ok = False
            elif act is Action.COLD and modes[qa] != "cold":
                ok = False
        if ok:
            admissible.append(lbl)
    return CaseClassification(case_label=label, preferred_mode=modes, admissible=tuple(admissible))


@dataclass(frozen=True)
class WsptCheck:
    """Outcome of the risk-adjusted shortest-processing-time condition."""

    condition: str                 # "a" or "q" depending on which side binds
    holds: bool
    first_violation: Optional[int]  # attempt index X of the first failure

    @property
    def status(self) -> str:
        return f"holds-{self.condition}" if self.holds else "fails"


class WsptBlock(NamedTuple):
    """`WsptCheck` per lane of a block, with first_violation 0 where it holds."""

    condition: np.ndarray
    holds: np.ndarray
    first_violation: np.ndarray


def check_wspt_block(b: InstanceBlock) -> WsptBlock:
    """Sufficient condition for a threshold policy to be optimal, per lane.

    Requires the risk-adjusted processing times tau_X/rho_X to be
    nondecreasing in X, with each step bounded above:
    0 <= tau_X/rho_X - tau_{X-1}/rho_{X-1} <= (1/p)/rho_X
    + ((1-p)/p)(1-rho_{X-1})/rho_{X-1}, where p = a when 1/a > 1/q and p = q
    otherwise.  Later attempts may be neither sharply better (a falling ratio
    makes deferring transfers attractive, breaking the threshold shape) nor
    too much worse than the congestion-adjusted slack allows.  The weights
    depend on uncertainty only through conditional probabilities.
    """
    on_a = 1 / b.a > 1 / b.q
    p = np.where(on_a, b.a, b.q)
    ratio = b.tau / b.rho
    step = ratio[1:] - ratio[:-1]
    slack = (1 / p) / b.rho[1:] + ((1 - p) / p) * (1 - b.rho[:-1]) / b.rho[:-1]
    passed = np.logical_and.accumulate((step >= 0.0) & (step <= slack), axis=0)
    holds = passed.all(axis=0)
    return WsptBlock(np.where(on_a, "a", "q"), holds, np.where(holds, 0, 2 + passed.sum(axis=0)))


def check_wspt(inst: ProblemInstance) -> WsptCheck:
    """`check_wspt_block` on a block of one instance."""
    (cond,), (holds,), (first,) = check_wspt_block(InstanceBlock.of([inst]))
    return WsptCheck(condition=str(cond), holds=bool(holds), first_violation=int(first) or None)


def is_threshold_policy(pol: StationaryPolicy) -> bool:
    """True iff per state the actions are Continue then a single fixed mode."""
    for acts in zip(*(rule.actions for rule in pol.rules)):   # one state's actions by attempt
        first = next((x for x, act in enumerate(acts) if act is not Action.CONTINUE), len(acts))
        if len(set(acts[first:])) > 1:
            return False
    return True


def search_threshold_policies(inst: ProblemInstance) -> tuple[StationaryPolicy, float]:
    """Best threshold policy and its average reward, by `solve.dinkelbach`: per
    (Q, A) continue through attempt n - 1, then transfer in one mode (n = S
    never does).  Each pass is a DP over the 16 sets of states still
    continuing, so the search is polynomial in S, unlike full enumeration."""
    R, acts = dinkelbach(renewal_terms([inst]), nested=True)
    return policy_from_actions(acts[0].tolist()), float(R[0])


def _certified(acts: np.ndarray) -> np.ndarray:
    """Per lane of (N, S-1, 4) unrestricted optimal actions, True where they
    match a threshold policy at every attempt the policy reaches: no state
    continues after it transferred at an earlier attempt.  Attempt x + 1 is
    reached iff some state continues at every attempt up to x; W and D never
    read the actions of an unreached attempt, and the free pass gives each
    state one transfer mode, so a certified optimum is worth a threshold
    policy's R and the lane's gap is 0."""
    cont = acts == 0
    reached = np.logical_and.accumulate(cont.any(axis=2), axis=1)[:, :-1, None]
    transferred = np.logical_or.accumulate(~cont, axis=1)[:, :-1]
    return ~(cont[:, 1:] & transferred & reached).any(axis=(1, 2))


def _study_gaps(terms: RenewalTerms) -> np.ndarray:
    """Relative gap of the best threshold policy to the optimum, per instance
    of a block: 0 on the lanes `_certified` proves threshold-optimal, and on
    the rest the nested search's gap, 0 within GAP_TOL (the two maximizations
    round apart)."""
    r_opt, acts = dinkelbach(terms)
    gaps, todo = np.zeros(len(r_opt)), np.flatnonzero(~_certified(acts))
    r_thr, _ = dinkelbach(terms._make(a.take(todo, axis=-1) for a in terms), nested=True)
    gap = (r_opt[todo] - r_thr) / r_opt[todo]
    gaps[todo] = np.where(gap <= GAP_TOL, 0.0, gap)
    return gaps


@dataclass(frozen=True)
class StudyRow:
    S: int
    n_instances: int
    frac_threshold_opt: float
    mean_gap_pct: float
    max_gap_pct: float
    seed_lo: int
    seed_hi: int


@dataclass(frozen=True)
class StudyReport:
    rows: tuple[StudyRow, ...]

    def row_for(self, S: int) -> StudyRow:
        return next(r for r in self.rows if r.S == S)


def run_heuristic_study(
    cfg: GeneratorConfig, n_instances: int, S_list: list[int]
) -> StudyReport:
    """Threshold-heuristic quality over random instances, per attempt count.

    For each S, draws n_instances instances on consecutive seeds as one
    block of arrays, solves the block for the best threshold and the optimal
    stationary policy, and reports the optimal fraction plus mean and max
    relative gap in percent.  Seed blocks are disjoint across S values.
    """
    if n_instances < 1:
        raise ValueError("n_instances must be >= 1")
    if S_list:   # before any block is drawn or solved
        as_seed(cfg.seed + len(S_list) * n_instances - 1,
                f"generator.seed + len(S_list) * n_instances - 1 = {cfg.seed} + {len(S_list)} * "
                f"{n_instances} - 1, the study's last seed")
    rows = []
    for si, S in enumerate(S_list):
        seed_lo = cfg.seed + si * n_instances
        block = generate_block(replace(cfg, S=S), range(seed_lo, seed_lo + n_instances))
        gaps = _study_gaps(block_terms(*block))
        rows.append(
            StudyRow(
                S=S,
                n_instances=n_instances,
                frac_threshold_opt=int(np.count_nonzero(gaps == 0.0)) / n_instances,
                # a running sum in seed order, as one instance at a time would give
                mean_gap_pct=100.0 * float(np.add.accumulate(gaps)[-1]) / n_instances,
                max_gap_pct=100.0 * float(gaps.max()),
                seed_lo=seed_lo,
                seed_hi=seed_lo + n_instances - 1,
            )
        )
    return StudyReport(rows=tuple(rows))
