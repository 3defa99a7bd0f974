"""Monte Carlo oracles for the analytic evaluators.

Both simulators draw what the per-period narrative draws (arrival, expert and
resolution uniforms; integer service clocks; instantaneous decisions) rather
than sampling the embedded chains, so they exercise the model semantics
independently of the linear-algebra evaluators.  The channel is regenerative:
each admission starts a cycle fixed by the draws at its own decision periods.
So the channel simulator draws a fixed-width row per cycle, each attempt's
arrival, expert and resolution uniforms and two more that set the warm wait
and the idle gap as geometric counts by inversion; a flag drawn at a decision
is the first trial of the wait or gap that follows it.  A batch of rows is
placed on the time line by one cumulative sum, its rewards written at their
outcome periods and its counts clipped to the counted window; the arrivals
blocked between decisions are one binomial draw a run.  The waiting-room
simulator steps from decision to decision, except while its room stays full:
a service that starts as the agent takes the head of a full room is fixed by
the draws, so numpy runs one from every period of a chunk and Python walks
from one to the next; its reports equal, bit for bit, those of a loop over
every period.  Runs start with a warm-up whose counts and rewards are
dropped, so the empty-system start does not bias the estimates; standard
errors come from batch means over at least 30 equal batches.  All randomness
comes from the counter-based RNG family keyed by (seed, stream) that every
module shares, so parallel targets never collide.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .evaluate import PerformanceMeasures, check_policy, evaluate_policy
from .model import ProblemInstance, StationaryPolicy, rng_stream
from .waiting_room import QueueModel, QueuePolicy, evaluate_queue_policy

N_BATCHES = 32
WARMUP = 1024  # periods run before counting, to shed the empty-system start
_CHUNK = 1 << 15
# A chunk walks full-room services once it and the last chunk have met this
# many.  On a 2-core x86 VM the row costs 0.14-0.29 ms a chunk and a walked
# service saves about 0.38 us of stepping, so the row pays from some 400-800
# walked services a chunk; built at a chunk's first full-room service, it made
# criterion 9's lightest rooms (50-130 full-room services a chunk) 8-11 %
# slower than stepping them (BENCH_33.json, "row_threshold").
_ROW_PAYS = _CHUNK >> 5

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
    # the batches of np.array_split: the first r of k + 1 periods, then k
    k, r = divmod(len(per_period), N_BATCHES)
    cut = r * (k + 1)
    means = np.concatenate([per_period[:cut].reshape(r, k + 1).mean(1),
                            per_period[cut:].reshape(N_BATCHES - r, k).mean(1)])
    return float(means.std(ddof=1) / np.sqrt(N_BATCHES)), N_BATCHES


def _report(rewards: np.ndarray, seed: int, counts: dict[str, int],
            perf: Optional[PerformanceMeasures] = None) -> SimReport:
    se, nb = _batch_se(rewards)
    return SimReport(mean=float(rewards.mean()), se=se, n_batches=nb,
                     horizon=len(rewards), seed=seed, counts=counts, perf=perf)


def simulate_policy(
    inst: ProblemInstance, pol: StationaryPolicy, horizon: int, seed: int,
    stream: int = 0,
) -> SimReport:
    """Simulate the channel one admission cycle at a time and report the empirical rate.

    Horizons of at least 10^4 periods are recommended; below 32 periods the
    batch-means estimate is undefined and the call is rejected.
    """
    return _simulate_channel(inst, pol, horizon, seed, stream, 3 * _CHUNK // (3 * inst.S + 2))


def _geometric(u, log_fail: float, cap: int):
    """Failures before the first success of Bernoulli trials with log(1 - p)
    = `log_fail`, by inversion of the uniforms `u`; past `cap` it reads cap
    (at least cap - 1), so no quotient overflows, however small p."""
    return np.floor(np.maximum(np.log1p(-u), cap * log_fail) / log_fail)


def _simulate_channel(inst: ProblemInstance, pol: StationaryPolicy, horizon: int, seed: int,
                      stream: int, rows: int) -> SimReport:
    """`simulate_policy`, drawing at most `rows` cycles a batch."""
    check_policy(inst, pol)
    if horizon < N_BATCHES:
        raise ValueError(f"horizon must be at least {N_BATCHES}")

    q, a, S = inst.traffic.q, inst.traffic.a, inst.S
    r, c_w, c_c = inst.econ.r, inst.econ.c_w, inst.econ.c_c
    end = WARMUP + horizon
    cap = 2 * end  # offsets past the run's end are clipped here, before any cast
    T = np.cumsum([min(t, cap) for t in inst.profile.tau])  # attempt x's decision, from admission
    tau_w = min(inst.econ.tau_w, cap)
    log_q, log_a = (math.log1p(-p) if p < 1 else -math.inf for p in (q, a))  # log(1 - p)
    pay = np.array([0.0, r - c_w, r - c_c, r])  # reward by outcome
    # the outcome of attempt x's decision by its code, arrival + 2*avail +
    # 4*resolved: the action taken, or resolution (the last attempt resolves);
    # bit c of stops[x] says whether code c ends the cycle
    outcome = np.array([[*map(int, rule.actions), *[_RESOLVED] * 4] for rule in pol.rules]
                       + [[_RESOLVED] * 8], dtype=np.int8)
    stops = np.array([sum(1 << c for c in range(8) if row[c]) for row in outcome], dtype=np.uint8)
    attempt = np.arange(S)

    rng = rng_stream(seed, stream)
    # the arrivals blocked between decisions come from a stream of their own,
    # one draw a run, so no batch boundary moves them
    blocked_rng = np.random.Generator(rng.bit_generator.jumped())
    rewards = np.zeros(end)
    tally = np.zeros(4, dtype=np.int64)  # outcomes
    admitted = occupied = decisions = flagged = cycles = 0
    first = nxt = int(_geometric(rng.random(), log_q, cap))  # the first admission
    while nxt < end:
        # Size the batch to the cycles left, at the mean length so far or, at
        # first, at a bound below it: the first service and the mean idle gap.
        mean = (nxt - first) / cycles if cycles else T[0] + (1 - q) / q
        b = min(rows, int((end - nxt) / mean * 1.05) + 32)
        # A row is a cycle: each attempt's decision draws its arrival, expert
        # and resolution uniforms; then the warm wait's and the idle gap's.
        u = rng.random((b, 3 * S + 2))
        arrival = u[:, :S] < q
        code = np.left_shift(u[:, S:2 * S] < a, 1, dtype=np.uint8)
        code |= arrival
        code |= np.left_shift(u[:, 2 * S:3 * S] < inst.profile.rho, 2, dtype=np.uint8)
        last = np.argmax(np.right_shift(stops, code) & 1, axis=1)
        c = code[np.arange(b), last]
        o = outcome[last, c]
        warm = o == 1
        # A flag drawn at a decision is the first trial of what follows it: a
        # warm transfer's expert wait, and after resolution or a cold transfer
        # the idle gap, whose success is the next admission.
        d = T[last]
        wait = np.where(c & 2, 0, 1 + _geometric(u[:, -2], log_a, cap).astype(np.int64))
        gap = _geometric(u[:, -1], log_q, cap).astype(np.int64)
        f = np.where(warm, d + wait + tau_w, d)  # the agent is free from f
        n = np.where(warm, f + gap, np.where(c & 1, d, d + 1 + gap))  # the next admission
        J = np.empty(b + 1, dtype=np.int64)
        J[0] = nxt
        np.cumsum(n, out=J[1:])
        J[1:] += nxt
        m = min(int(np.searchsorted(J, end)), b)  # cycles admitted within the run
        nxt, cycles = int(J[m]), cycles + m
        J, last, o, warm, arrival = J[:m], last[:m], o[:m], warm[:m], arrival[:m]
        # admissions, outcomes and frees all rise with the row
        D, F = J + d[:m], J + f[:m]
        lo, hi = np.searchsorted(D, (WARMUP, end))
        rewards[D[:hi]] = pay[o[:hi]]
        tally += np.bincount(o[lo:hi], minlength=4)
        admitted += m - int(np.searchsorted(J, WARMUP))
        occupied += int(np.clip(F, WARMUP, end).sum() - np.clip(J, WARMUP, end).sum())
        # decisions that blocked the arrival they drew: each before the last,
        # and a warm last; only cycles begun in the warm-up or ending past the
        # run meet the counting window's edges
        blocking = attempt < (last + warm)[:, None]
        cut = np.flatnonzero((J < WARMUP) | (F > end))
        at = J[cut, None] + T
        blocking[cut] &= (at >= WARMUP) & (at < end)
        decisions += int(np.count_nonzero(blocking))
        flagged += int(np.count_nonzero(blocking & arrival))
        # drop the batch's arrays before the next draw, so no two batches' coexist
        del u, arrival, code, last, c, o, warm, d, wait, gap, f, n, J, D, F, blocking, cut, at

    # the other periods of a service each block an arrival with probability q
    blocked = int(blocked_rng.binomial(occupied - admitted - decisions, q))
    _, warm, cold, resolved = tally.tolist()
    arrivals = admitted + flagged + blocked
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
    return _report(rewards[WARMUP:], seed, counts, perf)


def _full_room_row(codes: np.ndarray, count: np.ndarray, firsts: np.ndarray, N: int,
                   tau1: int, tau2: int, runs2: int) -> tuple[np.ndarray, ...]:
    """Run a full-room service from every period of a chunk.

    A full-room service starts with N - 1 waiting, as the agent takes the head
    of a full room (for N = 0: as it admits an arrival).  Its first decision
    sees N waiting if an arrival came in its first tau1 periods and N - 1 if
    not, so its outcome and its end are fixed by the draws.  The next service
    is full-room again iff an arrival came during it (N = 0: it is the first
    arrival from its end on).  Returns each start's key, 4 * (an arrival in
    the first tau1 periods) + the decision's code, whose bit in `runs2` says
    whether attempt 2 runs; its last decision period, or m (the chunk's
    length) if that falls past the chunk; and the next full-room start, or m
    where the room stops being full or the chunk ends first.
    """
    m = len(codes)
    n = max(m - tau1, 0)  # starts whose first decision falls in the chunk
    key = np.full(m, 4, dtype=np.uint8)  # N = 0: the admitted arrival
    if N:
        np.greater(count[tau1:m], count[:n], out=key[:n])
        key[:n] *= 4
    key[:n] += codes[tau1:]
    last = np.arange(tau1, m + tau1, dtype=np.int32)
    last += np.int32(tau2) * (np.right_shift(np.uint8(runs2), key) & 1)
    np.minimum(last, m, out=last)
    seen = count.take(last)  # arrivals before the last decision
    if N:  # the service ends at its last decision, unless no arrival came in it
        nxt = np.where(seen > count[:m], last, m)
    else:  # the first arrival at or after its last decision, m if none
        nxt = firsts.take(seen)
    return key, last, nxt


def simulate_queue(
    model: QueueModel, pol: QueuePolicy, horizon: int, seed: int,
    stream: int = 0,
) -> SimReport:
    """Simulate the waiting-room channel over its per-period draws."""
    return _simulate_queue(model, pol, horizon, seed, stream, _ROW_PAYS)


def _simulate_queue(model: QueueModel, pol: QueuePolicy, horizon: int, seed: int,
                    stream: int, row_pays: int) -> SimReport:
    """`simulate_queue`, walking full rooms once `row_pays` full-room services pay for the row."""
    if horizon < N_BATCHES:
        raise ValueError(f"horizon must be at least {N_BATCHES}")

    q, r, c_c = model.q, model.econ.r, model.econ.c_c
    rho1, tau1, tau2, N = model.rho1, model.tau1, model.tau2, model.N
    transfers = [pol.transfers(k) for k in range(N + 2)]
    # by the key k of a full-room service: whether it transfers after attempt
    # 1 fails, and bit k of runs2: whether attempt 2 runs (N = 0 has only keys
    # 4 to 7)
    xfer = np.array([c < 2 and transfers[max(N - 1 + f + c, 0)]
                     for f in (0, 1) for c in range(4)])
    runs2 = sum(1 << k for k in range(8) if k % 4 < 2 and not xfer[k])

    rng = rng_stream(seed, stream)
    rewards = np.zeros(WARMUP + horizon)
    wait, due, n = _FREE, 0, 0
    grown = 0  # every arrival before this period has joined or been blocked
    top = N - 1  # waiting as a full-room service starts
    met = 0  # full-room services met or walked in the last chunk

    t = 0
    while t < len(rewards):
        if t in (0, WARMUP):  # the counts start, and start again after the warm-up
            arrivals = admitted = resolved = transferred = max_queue = 0
        m = min(_CHUNK, len(rewards) - t) if t else WARMUP
        end = t + m
        u = rng.random((m, 2))
        arrival = u[:, 0] < q
        codes = arrival.view(np.uint8) + 2 * (u[:, 1] < rho1).view(np.uint8)
        del u
        arrivals += int(np.count_nonzero(arrival))
        firsts = np.append(np.flatnonzero(arrival), m).astype(np.int32)  # arrivals, then m
        count = np.zeros(m + 1, dtype=np.int32)  # arrivals before each period
        np.cumsum(arrival, out=count[1:])
        code, at, arrived = memoryview(codes), memoryview(firsts), memoryview(count)
        wanted, met, walked = row_pays - met, 0, []
        key = last = nxt = walk = None  # the full-room row, built once it pays
        while True:
            # While the agent serves, the room only grows: arrivals join it
            # until it is full and are blocked after.
            stop = due if due < end else end
            if grown < stop:
                joining = arrived[stop - t] - arrived[grown - t]
                if joining:
                    room = n + joining if n + joining < N else N
                    admitted += room - n
                    if room > n and room > max_queue:
                        max_queue = room
                    n = room
                grown = stop
            if due >= end:
                break
            i = due - t
            if wait == _FREE:  # the room is empty: admit the next arrival at once
                j = t + at[arrived[i]]
                if j == end:
                    due = grown = end
                    continue
                admitted += 1
                due, grown, wait = j + tau1, j + 1, _PEND
                if N:
                    continue
            else:
                if wait == _PEND and code[i] < 2:  # attempt 1 failed
                    if not transfers[n + code[i]]:
                        due, wait = due + tau2, _PEND2
                        continue
                    rewards[due] = r - c_c
                    transferred += 1
                else:
                    rewards[due] = r
                    resolved += 1
                if not n:
                    wait = _FREE
                    continue
                n -= 1  # the freed agent takes the head of the room
                due, wait = due + tau1, _PEND
                if n < top:
                    continue
            # A full-room service starts: walk from it while each successor
            # is full-room too; the last service, which leaves the full room
            # or the chunk, runs decision by decision.
            if walk is None:
                met += 1
                if met < wanted:
                    continue
                key, last, nxt = _full_room_row(codes, count, firsts, N, tau1, tau2, runs2)
                walk = memoryview(nxt)
            i = due - tau1 - t
            if i < 0:  # the service began in the last chunk
                continue
            k, j = i, walk[i]
            while j < m:
                walked.append(k)
                k, j = j, walk[j]
            due, grown = t + k + tau1, t + k + (not N)

        if walked:  # each walked service admits one arrival
            w = np.array(walked, dtype=np.int32)
            x = xfer[key[w]]
            rewards[t + last[w]] = np.where(x, r - c_c, r)
            nx = int(np.count_nonzero(x))
            transferred += nx
            resolved += len(w) - nx
            admitted += len(w)
            max_queue = max(max_queue, N)
            met += len(w)
            del w, x
        t = end
        # drop the chunk's arrays before the next draw, so no two chunks' coexist
        del arrival, codes, firsts, count, code, at, arrived, key, last, nxt, walk, walked

    counts = {
        "arrivals": arrivals,
        "admitted": admitted,
        "blocked": arrivals - admitted,
        "resolved": resolved,
        "transferred": transferred,
        "max_queue": max_queue,
    }
    return _report(rewards[WARMUP:], seed, counts)


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
    """Check each analytic rate against its simulator at three sigma, target
    i on the independent stream (seed, i): `validate_target`."""
    return [validate_target(i, target, horizon, seed) for i, target in enumerate(targets)]


def validate_target(index: int, target: Target, horizon: int, seed: int) -> CrossValidation:
    """Target `index` of `cross_validate`, simulated on the stream (seed,
    index).  A target with zero standard error passes only on exact agreement."""
    subject, pol = target
    if isinstance(subject, ProblemInstance):
        analytic = evaluate_policy(subject, pol).R
        rep = simulate_policy(subject, pol, horizon, seed, stream=index)
        kind = "channel"
    elif isinstance(subject, QueueModel):
        analytic = evaluate_queue_policy(subject, pol).profit
        rep = simulate_queue(subject, pol, horizon, seed, stream=index)
        kind = "queue"
    else:
        raise TypeError(f"unsupported target type {type(subject)!r}")
    return CrossValidation(index=index, kind=kind, analytic=analytic, mean=rep.mean, se=rep.se,
                           passed=abs(analytic - rep.mean) <= 3.0 * rep.se)
