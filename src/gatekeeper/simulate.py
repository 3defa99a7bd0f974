"""Monte Carlo oracles for the analytic evaluators.

Both simulators draw what the per-period narrative draws (an arrival and a
resolution uniform every period, and for the channel an expert-availability
one; integer service clocks; instantaneous decisions) rather than sampling the
embedded chains, so they exercise the model semantics independently of the
linear-algebra evaluators.  An admitted channel customer's cycle is fixed by
the draws at its own decision periods, so for each chunk of draws numpy runs
every arrival's cycle as if admitted, to the period the agent is free again
and the arrival it admits next, and Python only walks from one admission to
the next.  A cycle that runs past the chunk is carried into the next as its
state, never as its draws, so memory stays within a chunk whatever q, a and
tau are.  The waiting-room simulator visits only admissions and attempt ends.
Both count idle runs, services, warm waits and the room filling during a
service from segment lengths, so every report equals, bit for bit, that of a
loop over every period.  Runs start with a short uncounted warm-up so the
empty-system start does not bias the estimates; standard errors come from
batch means over at least 30 equal batches.  All randomness flows through the
shared counter-based RNG family keyed by (seed, stream), so seeds are portable
across modules and parallel targets never collide.
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

# what the waiting-room agent waits for from period `due` on
_FREE, _PEND, _PEND2 = range(3)
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
    tau = np.array(inst.profile.tau)
    r, c_w, c_c, tau_w = inst.econ.r, inst.econ.c_w, inst.econ.c_c, inst.econ.tau_w
    pay = np.array([0.0, r - c_w, r - c_c, r])  # reward by outcome
    # A decision period's code is 4k + arrival + 2*avail, where k counts the
    # distinct success probabilities at or below its resolution draw; attempt
    # x resolves iff k is at most the rank of rho[x-1] (the top one is 1).
    levels = sorted(set(inst.profile.rho))
    small = np.min_scalar_type(4 * len(levels) - 1)  # holds every code
    outcome = np.array([
        [_RESOLVED if k <= levels.index(rho) else int(pol.rules[x].actions[qa])
         for k in range(len(levels)) for qa in range(4)]
        for x, rho in enumerate(inst.profile.rho)
    ], dtype=np.int8)

    rng = rng_stream(seed, stream)
    rewards = np.zeros(horizon)
    tally = np.zeros(4, dtype=np.int64)  # live decision periods by outcome
    arrivals = admitted = occupied = 0
    # The customer carried into a chunk, by the code of its last outcome: in
    # service, with attempt x's decision in period `due` (0, continue); held
    # for an expert, its warm outcome recorded (1); or gone, the agent free
    # from `due` on (2).
    o, x, due = 2, 0, -WARMUP

    t = -WARMUP
    while t < horizon:
        m = min(_CHUNK, horizon - t)
        lo = max(0, -t)  # the chunk's first counted period
        u = rng.random((m, 3))
        arrival = u[:, 0] < q
        avail = u[:, 1] < a
        resolution = u[:, 2].copy()
        del u
        code = np.zeros(m, dtype=small)
        for level in levels[:-1]:
            code += resolution >= level
        code = 4 * code + 2 * avail.view(np.uint8) + arrival
        arrivals += int(np.count_nonzero(arrival[lo:]))
        J = np.flatnonzero(arrival)
        arrived = np.zeros(m + 1, dtype=np.intp)  # arrivals before each period
        np.cumsum(arrival, out=arrived[1:])
        experts = np.append(np.flatnonzero(avail), m)
        freed = np.zeros(m + 1, dtype=np.intp)  # free experts before each period
        np.cumsum(avail, out=freed[1:])

        # Lane 0 is the carried customer, lane i + 1 the arrival at J[i] as if
        # admitted.  Every lane runs attempt by attempt (X) to its outcome (O)
        # in decision period D, or stops where its next decision (D) falls
        # past the chunk (O = 0).
        L = len(J) + 1
        X = np.zeros(L, dtype=np.intp)
        D = np.empty(L, dtype=np.intp)
        O = np.zeros(L, dtype=np.int8)
        X[0], D[0], O[0] = x, due - t, o
        D[1:] = J + tau[0]
        lanes = np.arange(1 if o else 0, L)
        while lanes.size:
            lanes = lanes[D[lanes] < m]
            O[lanes] = outcome[X[lanes], code[D[lanes]]]
            lanes = lanes[O[lanes] == 0]
            X[lanes] += 1
            D[lanes] += tau[X[lanes]]
        # The agent is free from F on: at the outcome, or after the first free
        # expert and the warm handoff.  Its next admission is the first
        # arrival from F on, the lane the walk goes to.
        F = D.copy()
        held = np.flatnonzero(O == 1)
        F[held] = experts[freed[D[held]]] + tau_w
        F[O == 0] = m
        nxt = memoryview(arrived[np.minimum(F, m)] + 1)
        path, k = [], 0
        while k < L:
            path.append(k)
            k = nxt[k]
        path = np.fromiter(path, np.intp, len(path))

        # the agent is busy from each admission (lane 0: the chunk's start) to F
        starts = J[path[1:] - 1]
        admitted += int(np.count_nonzero(starts >= lo))
        occupied += int(np.maximum(np.minimum(F[path], m), lo).sum()
                        - np.maximum(starts, lo).sum() - lo)
        # a carried outcome was recorded in its own chunk
        ended = path[O[path] != 0][1 if o else 0:]
        ended = ended[D[ended] >= lo]
        rewards[t + D[ended]] = pay[O[ended]]
        tally += np.bincount(O[ended], minlength=4)

        k = path[-1]
        o, x, due = int(O[k]), int(X[k]), t + int(D[k])
        if o == 1 and F[k] == m + tau_w:  # no expert free by the chunk's end
            due = t + m
        elif o:
            o, due = 2, t + max(int(F[k]), m)
        t += m
        # drop the chunk's arrays before the next draw, so no two chunks' coexist
        del arrival, avail, resolution, code, J, arrived, experts, freed
        del X, D, O, F, nxt, path, starts, ended

    _, warm, cold, resolved = tally.tolist()
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
        code = memoryview(arrival.view(np.int8) + 2 * (u[:, 1] < rho1).view(np.int8))
        del u
        arrivals += int(np.count_nonzero(arrival[max(0, -t):]))
        at = memoryview(np.append(np.flatnonzero(arrival), m))  # arrival periods, then m
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
                j = t + at[arrived[i]]
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
        del arrival, code, at, arrived

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
