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
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .evaluate import reachable, stationary_distribution
from .model import EconomicParams, ResolutionProfile, as_int

IDLE = ("idle",)


@dataclass(frozen=True)
class QueueModel:
    N: int
    profile: ResolutionProfile
    econ: EconomicParams
    q: float

    def __post_init__(self):
        object.__setattr__(self, "N", as_int(self.N, "N"))
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
    if label == "never":
        return QueuePolicy.never()
    if label == "always":
        return QueuePolicy.always()
    if label.startswith("qge"):
        return QueuePolicy.when_queue_at_least(int(label[3:]))
    raise ValueError(f"unknown queue policy {label!r}")


def admissible_queue_policies(model: QueueModel) -> list[QueuePolicy]:
    """never, always, and one threshold policy per 1 <= n <= N."""
    pols = [QueuePolicy.never(), QueuePolicy.always()]
    pols += [QueuePolicy.when_queue_at_least(n) for n in range(1, model.N + 1)]
    return pols


def queue_states(model: QueueModel) -> list[tuple]:
    """States (activity, n_wait) at a period boundary.

    activity is idle, ("pend", k) with the completion decision due, or
    ("busy", k, j) with j work periods remaining.
    """
    acts: list[tuple] = [IDLE, ("pend", 1), ("pend", 2)]
    acts += [("busy", 1, j) for j in range(1, model.tau1)]
    acts += [("busy", 2, j) for j in range(1, model.tau2)]
    return [(act, w) for act in acts for w in range(model.N + 1)]


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
    rates = np.zeros((2, 5, n))

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
        rates[branch, :, i] += p * np.array([rew, adm, tra, blk, res])

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
    return states, P, rates


def _evaluate_on_grid(model: QueueModel, pol: QueuePolicy,
                      q_grid: tuple[float, ...]) -> list[QueueEvaluation]:
    """One policy's evaluations across q, from one assembly of its branches."""
    states, P, rates = _branch_chains(model, pol)
    labels = tuple(f"{act}/{w}" for act, w in states)
    empty = states.index((IDLE, 0))
    out = []
    for q in q_grid:
        if 0.0 < q < 1.0:
            pi = stationary_distribution(q * P[1] + (1 - q) * P[0], labels)
        else:
            # At q = 0 or 1 every period takes the same branch, so the queue
            # never grows or never shortens and several lengths may each
            # close a class: solve on the states the empty system reaches.
            live = reachable(P[int(q)], empty)
            pi = np.zeros(len(states))
            pi[live] = stationary_distribution(P[int(q)][np.ix_(live, live)],
                                               tuple(lbl for lbl, ok in zip(labels, live) if ok))
        out.append(QueueEvaluation(pi, states, *((q * rates[1] + (1 - q) * rates[0]) @ pi).tolist()))
    return out


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
