"""Monte Carlo oracles for the analytic evaluators.

Both simulators replay the per-period narrative literally (arrival and
expert-availability draws every period, integer service clocks, instantaneous
decisions) rather than sampling the embedded chains, so they exercise the
model semantics independently of the linear-algebra evaluators.  Runs start
with a short uncounted warm-up so the empty-system start does not bias the
estimates; standard errors come from batch means over at least 30 equal
batches.  All randomness
flows through the shared counter-based RNG family keyed by (seed, stream),
so seeds are portable across modules and parallel targets never collide.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .evaluate import PerformanceMeasures, check_policy, evaluate_policy
from .model import ProblemInstance, StationaryPolicy, rng_stream
from .waiting_room import QueueModel, QueuePolicy, evaluate_queue_policy

N_BATCHES = 32
WARMUP = 1024  # periods run before counting, to shed the empty-system start
_CHUNK = 1 << 15

# agent modes
_IDLE, _SERV, _PEND, _WWAIT, _WHAND = range(5)


@dataclass(frozen=True)
class SimReport:
    """Empirical mean reward/profit per period with batch-means uncertainty."""

    mean: float
    se: float
    n_batches: int
    horizon: int
    seed: int
    counts: dict[str, int]
    perf: Optional[PerformanceMeasures] = None


def _batch_se(per_period: np.ndarray) -> tuple[float, int]:
    batches = np.array_split(per_period, N_BATCHES)
    means = np.array([b.mean() for b in batches])
    return float(means.std(ddof=1) / np.sqrt(len(means))), len(means)


def simulate_policy(
    inst: ProblemInstance, pol: StationaryPolicy, horizon: int, seed: int,
    stream: int = 0,
) -> SimReport:
    """Simulate the channel period by period and report the empirical rate.

    Horizons of at least 10^4 periods are recommended; below 32 periods the
    batch-means estimate is undefined and the call is rejected.
    """
    check_policy(inst, pol)
    if horizon < N_BATCHES:
        raise ValueError(f"horizon must be at least {N_BATCHES}")

    q, a = inst.traffic.q, inst.traffic.a
    tau = inst.profile.tau
    rho = inst.profile.rho
    r, c_w, c_c = inst.econ.r, inst.econ.c_w, inst.econ.c_c
    tau_w = inst.econ.tau_w
    # acts[x-1][arrival + 2*avail] = action int (congestion states in canonical order)
    acts = [[int(act) for act in rule.actions] for rule in pol.rules]

    rng = rng_stream(seed, stream)
    rewards = np.zeros(horizon)
    mode, x, left = _IDLE, 0, 0
    arrivals = admitted = resolved = warm = cold = occupied = 0

    t = -WARMUP
    while t < horizon:
        m = min(_CHUNK, horizon - t)
        u = rng.random((m, 3))
        for i in range(m):
            live = t + i >= 0  # warm-up periods are simulated but not counted
            arrival = u[i, 0] < q
            avail = u[i, 1] < a
            if arrival and live:
                arrivals += 1
            freed = False
            if mode == _PEND:
                if u[i, 2] < rho[x - 1]:
                    if live:
                        rewards[t + i] = r
                        resolved += 1
                    freed = True
                else:
                    act = acts[x - 1][(1 if arrival else 0) + (2 if avail else 0)]
                    if act == 0:
                        x += 1
                        left = tau[x - 1]
                        mode = _SERV
                    elif act == 1:
                        if live:
                            rewards[t + i] = r - c_w
                            warm += 1
                        if avail:
                            mode = _WHAND
                            left = tau_w
                        else:
                            mode = _WWAIT
                    else:
                        if live:
                            rewards[t + i] = r - c_c
                            cold += 1
                        freed = True
            elif mode == _IDLE:
                freed = True
            elif mode == _WWAIT:
                if avail:
                    mode = _WHAND
                    left = tau_w
            if freed:
                if arrival:
                    if live:
                        admitted += 1
                    x = 1
                    left = tau[0]
                    mode = _SERV
                else:
                    mode = _IDLE
            if mode == _SERV or mode == _WHAND:
                if live:
                    occupied += 1
                left -= 1
                if left == 0:
                    mode = _PEND if mode == _SERV else _IDLE
            elif mode == _WWAIT and live:
                occupied += 1
        t += m

    se, nb = _batch_se(rewards)
    outcomes = resolved + warm + cold
    perf = PerformanceMeasures(
        throughput=admitted / horizon,
        p_admit=admitted / arrivals if arrivals else 0.0,
        p_resolve=resolved / outcomes if outcomes else 0.0,
        p_warm=warm / outcomes if outcomes else 0.0,
        p_cold=cold / outcomes if outcomes else 0.0,
        t_channel=occupied / admitted if admitted else 0.0,
    )
    counts = {
        "arrivals": arrivals,
        "admitted": admitted,
        "resolved": resolved,
        "warm": warm,
        "cold": cold,
        "occupied_periods": occupied,
    }
    return SimReport(
        mean=float(rewards.mean()), se=se, n_batches=nb, horizon=horizon, seed=seed,
        counts=counts, perf=perf,
    )


# queue modes
_QIDLE, _QSERV1, _QSERV2, _QPEND1, _QPEND2 = range(5)


def simulate_queue(
    model: QueueModel, pol: QueuePolicy, horizon: int, seed: int,
    stream: int = 0,
) -> SimReport:
    """Per-period simulation of the waiting-room channel."""
    if horizon < N_BATCHES:
        raise ValueError(f"horizon must be at least {N_BATCHES}")

    q, r, c_c = model.q, model.econ.r, model.econ.c_c
    rho1, tau1, tau2, N = model.rho1, model.tau1, model.tau2, model.N

    rng = rng_stream(seed, stream)
    rewards = np.zeros(horizon)
    mode, left, n_wait = _QIDLE, 0, 0
    arrivals = admitted = blocked = resolved = transferred = 0
    max_queue = 0

    t = -WARMUP
    while t < horizon:
        m = min(_CHUNK, horizon - t)
        u = rng.random((m, 2))
        for i in range(m):
            live = t + i >= 0
            arrival = u[i, 0] < q
            if arrival and live:
                arrivals += 1
            free = False
            if mode == _QPEND1:
                if u[i, 1] < rho1:
                    if live:
                        rewards[t + i] = r
                        resolved += 1
                    free = True
                elif pol.transfers(n_wait + (1 if arrival else 0)):
                    if live:
                        rewards[t + i] = r - c_c
                        transferred += 1
                    free = True
                else:
                    mode = _QSERV2
                    left = tau2
            elif mode == _QPEND2:
                if live:
                    rewards[t + i] = r
                    resolved += 1
                free = True
            elif mode == _QIDLE:
                free = True
            if free:
                if n_wait > 0:
                    n_wait -= 1
                    mode = _QSERV1
                    left = tau1
                elif arrival:
                    arrival = False
                    if live:
                        admitted += 1
                    mode = _QSERV1
                    left = tau1
                else:
                    mode = _QIDLE
            if arrival:
                if n_wait < N:
                    n_wait += 1
                    if live:
                        admitted += 1
                        if n_wait > max_queue:
                            max_queue = n_wait
                else:
                    if live:
                        blocked += 1
            if mode == _QSERV1 or mode == _QSERV2:
                left -= 1
                if left == 0:
                    mode = _QPEND1 if mode == _QSERV1 else _QPEND2
        t += m

    se, nb = _batch_se(rewards)
    counts = {
        "arrivals": arrivals,
        "admitted": admitted,
        "blocked": blocked,
        "resolved": resolved,
        "transferred": transferred,
        "max_queue": max_queue,
    }
    return SimReport(
        mean=float(rewards.mean()), se=se, n_batches=nb, horizon=horizon, seed=seed,
        counts=counts,
    )


Target = Union[
    tuple[ProblemInstance, StationaryPolicy],
    tuple[QueueModel, QueuePolicy],
]


@dataclass(frozen=True)
class CrossValidation:
    index: int
    kind: str            # "channel" | "queue"
    analytic: float
    mean: float
    se: float
    passed: bool


def cross_validate(
    targets: Sequence[Target], horizon: int, seed: int
) -> list[CrossValidation]:
    """Check each analytic rate against its simulator at three sigma.

    Target i simulates on the independent stream (seed, i).  A target with
    zero standard error passes only on exact agreement.
    """
    out = []
    for i, (subject, pol) in enumerate(targets):
        if isinstance(subject, ProblemInstance):
            analytic = evaluate_policy(subject, pol).R
            rep = simulate_policy(subject, pol, horizon, seed, stream=i)
            kind = "channel"
        elif isinstance(subject, QueueModel):
            analytic = evaluate_queue_policy(subject, pol).profit
            rep = simulate_queue(subject, pol, horizon, seed, stream=i)
            kind = "queue"
        else:
            raise TypeError(f"unsupported target type {type(subject)!r}")
        passed = abs(analytic - rep.mean) <= 3.0 * rep.se
        out.append(
            CrossValidation(index=i, kind=kind, analytic=analytic,
                            mean=rep.mean, se=rep.se, passed=passed)
        )
    return out
