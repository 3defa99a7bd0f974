"""Monte Carlo oracles for the analytic evaluators.

Both simulators draw what the per-period narrative draws (an arrival and a
resolution uniform every period, and for the channel an expert-availability
one; integer service clocks; instantaneous decisions) rather than sampling the
embedded chains, so they exercise the model semantics independently of the
linear-algebra evaluators.  They replay those draws from event to event: for
each chunk of draws numpy finds every period's next arrival and next free
expert, and the Python loop visits only the periods where something happens
(an admission, the end of an attempt, the end of a warm wait or handoff).
Idle runs, services, warm waits and the waiting room filling during a service
are counted from segment lengths, so every report equals, bit for bit, that
of a loop over every period.  Runs start with a short uncounted warm-up so
the empty-system start does not bias the estimates; standard errors come
from batch means over at least 30 equal batches.  All randomness flows
through the shared counter-based RNG family keyed by (seed, stream), so seeds
are portable across modules and parallel targets never collide.
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

# what the agent waits for from period `due` on
_FREE, _WAIT, _PEND, _PEND2 = range(4)
# outcome of a decision period: the action taken, or resolution
_RESOLVED = 3


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


def _report(rewards: np.ndarray, seed: int, counts: dict[str, int],
            perf: Optional[PerformanceMeasures] = None) -> SimReport:
    se, nb = _batch_se(rewards)
    return SimReport(mean=float(rewards.mean()), se=se, n_batches=nb,
                     horizon=len(rewards), seed=seed, counts=counts, perf=perf)


def _next_true(flags: np.ndarray) -> memoryview:
    """Per period of a chunk, the first period at or after it whose flag is
    set, or the chunk length if none is."""
    m = len(flags)
    first = np.where(flags, np.arange(m, dtype=np.int32), np.int32(m))
    return memoryview(np.minimum.accumulate(first[::-1])[::-1])


def simulate_policy(
    inst: ProblemInstance, pol: StationaryPolicy, horizon: int, seed: int,
    stream: int = 0,
) -> SimReport:
    """Simulate the channel over its per-period draws and report the empirical rate.

    Horizons of at least 10^4 periods are recommended; below 32 periods the
    batch-means estimate is undefined and the call is rejected.
    """
    check_policy(inst, pol)
    if horizon < N_BATCHES:
        raise ValueError(f"horizon must be at least {N_BATCHES}")

    q, a = inst.traffic.q, inst.traffic.a
    tau = inst.profile.tau
    tau_w = inst.econ.tau_w
    r, c_w, c_c = inst.econ.r, inst.econ.c_w, inst.econ.c_c
    pay = (None, r - c_w, r - c_c, r)  # reward by outcome
    # A decision period's code is 4k + arrival + 2*avail, where k counts the
    # distinct success probabilities at or below its resolution draw; attempt
    # x resolves iff k is at most the rank of rho[x-1] (the top one is 1).
    levels = sorted(set(inst.profile.rho))
    outcome = [
        [_RESOLVED if k <= levels.index(rho) else int(pol.rules[x].actions[qa])
         for k in range(len(levels)) for qa in range(4)]
        for x, rho in enumerate(inst.profile.rho)
    ]

    rng = rng_stream(seed, stream)
    rewards = np.zeros(horizon)
    tally = [0, 0, 0, 0]  # live decision periods by outcome
    arrivals = admitted = idle = 0
    wait, due, x = _FREE, -WARMUP, 0

    t = -WARMUP
    while t < horizon:
        m = min(_CHUNK, horizon - t)
        end = t + m
        u = rng.random((m, 3))
        arrival = u[:, 0] < q
        avail = u[:, 1] < a
        code = 4 * np.searchsorted(levels, u[:, 2], "right")
        del u
        code += arrival
        code[avail] += 2
        code = code.tolist()
        arrivals += int(np.count_nonzero(arrival[max(0, -t):]))
        next_arrival = _next_true(arrival)
        next_avail = _next_true(avail)
        while due < end:
            if wait == _FREE:  # idle until an arrival, admitted at once
                j = t + next_arrival[due - t]
                idle += j - due if due >= 0 else max(j, 0)
                if j == end:
                    due = end
                else:
                    admitted += j >= 0
                    x, due, wait = 1, j + tau[0], _PEND
            elif wait == _WAIT:  # a warm transfer held until an expert is free
                j = t + next_avail[due - t]
                if j == end:
                    due = end
                else:
                    due, wait = j + tau_w, _FREE
            else:  # attempt x ends; the customer stays if it continues
                out = outcome[x - 1][code[due - t]]
                if out == 0:
                    due += tau[x]
                    x += 1
                else:
                    if due >= 0:
                        rewards[due] = pay[out]
                        tally[out] += 1
                    wait = _WAIT if out == 1 else _FREE
        t = end
        # drop the chunk's arrays before the next draw, so no two chunks' coexist
        del arrival, avail, next_arrival, next_avail, code

    _, warm, cold, resolved = tally
    outcomes = resolved + warm + cold
    occupied = horizon - idle
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
    return _report(rewards, seed, counts, perf)


def simulate_queue(
    model: QueueModel, pol: QueuePolicy, horizon: int, seed: int,
    stream: int = 0,
) -> SimReport:
    """Simulate the waiting-room channel over its per-period draws."""
    if horizon < N_BATCHES:
        raise ValueError(f"horizon must be at least {N_BATCHES}")

    q, r, c_c = model.q, model.econ.r, model.econ.c_c
    rho1, tau1, tau2, N = model.rho1, model.tau1, model.tau2, model.N
    transfers = [pol.transfers(k) for k in range(N + 2)]

    rng = rng_stream(seed, stream)
    rewards = np.zeros(horizon)
    arrivals = admitted = blocked = resolved = transferred = max_queue = 0
    wait, due, n = _FREE, -WARMUP, 0
    grown = -WARMUP  # every arrival before this period has joined or been blocked

    t = -WARMUP
    while t < horizon:
        m = min(_CHUNK, horizon - t)
        end = t + m
        u = rng.random((m, 2))
        arrival = u[:, 0] < q
        code = (arrival + 2 * (u[:, 1] < rho1)).tolist()
        del u
        arrivals += int(np.count_nonzero(arrival[max(0, -t):]))
        next_arrival = _next_true(arrival)
        arrived = np.zeros(m + 1, dtype=np.int32)  # arrivals before each period
        np.cumsum(arrival, out=arrived[1:])
        arrived = memoryview(arrived)
        while True:
            # While the agent serves, the room only grows: arrivals join it
            # until it is full and are blocked after.
            stop = due if due < end else end
            while grown < stop:
                cut = 0 if grown < 0 < stop else stop  # counting starts at 0
                joining = arrived[cut - t] - arrived[grown - t]
                if joining:
                    room = n + joining if n + joining < N else N
                    if grown >= 0:
                        admitted += room - n
                        blocked += n + joining - room
                        if room > n and room > max_queue:
                            max_queue = room
                    n = room
                grown = cut
            if due >= end:
                break
            i = due - t
            if wait == _FREE:  # the room is empty: admit the next arrival at once
                j = t + next_arrival[i]
                if j == end:
                    due = grown = end
                    continue
                admitted += j >= 0
                due, grown, wait = j + tau1, j + 1, _PEND
                continue
            if wait == _PEND and code[i] < 2:  # attempt 1 failed
                if not transfers[n + code[i]]:
                    due, wait = due + tau2, _PEND2
                    continue
                if due >= 0:
                    rewards[due] = r - c_c
                    transferred += 1
            elif due >= 0:
                rewards[due] = r
                resolved += 1
            if n:  # the freed agent takes the head of the room
                n -= 1
                due, wait = due + tau1, _PEND
            else:
                wait = _FREE
        t = end
        del arrival, code, next_arrival, arrived

    counts = {
        "arrivals": arrivals,
        "admitted": admitted,
        "blocked": blocked,
        "resolved": resolved,
        "transferred": transferred,
        "max_queue": max_queue,
    }
    return _report(rewards, seed, counts)


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
