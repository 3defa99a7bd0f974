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
simulator samples one service at a time: within a service the room only
grows, so a row of six uniforms fixes the service from its start level.  A
batch walks the level from service to service and places the services with
one cumulative sum; a service cut by an edge of the counted window splits
its arrivals by hypergeometric draws from a stream of its own.  Each
simulator's reports equal, bit for bit, those of a plain loop over its cycles
or services, and agree in distribution with a loop over every period.  Runs
start with a warm-up whose counts and rewards are dropped, so the
empty-system start does not bias the estimates; standard errors come from
batch means over at least 30 equal batches.  All randomness comes from the
counter-based RNG family keyed by (seed, stream) that every module shares, so
parallel targets never collide.
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
# outcome of a decision period: the action taken, or resolution
_RESOLVED = 3
_TABLE_N, _BLOCK = 16, 8  # rooms with N below _TABLE_N walk _BLOCK services a step: `_walk`


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


def _binomial_cdf(n: int, p: float) -> np.ndarray:
    """P(X <= k) for k < n, X ~ Binomial(n, p): the n points a uniform is
    inverted against (X = how many lie at or below it)."""
    if p in (0.0, 1.0):  # all the mass at 0 or at n
        return np.full(n, 1.0 - p)
    k = np.arange(n)
    log_choose = np.concatenate(([0.0], np.cumsum(np.log((n - k[:-1]) / k[1:]))))[:n]
    return np.cumsum(np.exp(log_choose + k * math.log(p) + (n - k) * math.log1p(-p)))


def _cut_service(rng: np.random.Generator, spans: list[tuple[int, int, int]], room: int, N: int,
                 lo: int, hi: int) -> tuple[int, int, int]:
    """Arrivals, blocked arrivals and the highest room a join reaches, in the
    periods [lo, hi), of a service whose arrivals come as `spans` (first
    period, end, count) to `room` waiting (-1: the free agent admits the
    first) and join until N wait; lo or hi splits a span hypergeometrically."""
    def before(k, a, b, c):  # of k arrivals spread at random over [a, b), those before c
        return 0 if c <= a else k if c >= b else int(rng.hypergeometric(k, b - a - k, c - a))

    arrivals = blocked = peak = 0
    for a, b, k in spans:
        pre = before(k, a, b, lo)
        live = before(k - pre, max(a, lo), b, hi)
        early, joined = min(pre, N - room), min(pre + live, N - room)
        arrivals += live
        blocked += live - (joined - early)
        if joined > early:
            peak = max(peak, room + joined)
        room += min(k, N - room)
    return arrivals, blocked, peak


def _walk(H, DS, DC, CS, CC, x: int, N: int) -> tuple[np.ndarray, int]:
    """The level each of a batch's services starts from (the first from x) and
    the level after the last: from y, service i goes to min(y + DS[i], CS[i])
    if y >= H[i], else to min(y + DC[i], CC[i]), and to 0 below that.  Below
    N = _TABLE_N Python steps through blocks of services by their composed
    tables of next levels, and numpy through every block; a wider room's
    tables cost more than they save, so Python steps one service at a time."""
    if N >= _TABLE_N:
        y = []
        for h, ds, dc, cs, cc in zip(*(v.tolist() for v in (H, DS, DC, CS, CC))):
            y.append(x)
            x = (x + ds if x + ds < cs else cs) if x >= h else (x + dc if x + dc < cc else cc)
            x = x if x > 0 else 0
        return np.array(y), x
    level = np.arange(N + 1, dtype=np.int32)[:, None]
    table = np.where(level >= H, np.minimum(level + DS, CS), np.minimum(level + DC, CC))
    np.maximum(table, 0, out=table)
    b, K = len(H), len(H) // _BLOCK
    flat, blocks = table.ravel(), np.arange(0, b, _BLOCK)
    ends = table[:, ::_BLOCK]  # ends[y, k]: the level after block k's first j + 1 services from y
    for j in range(1, _BLOCK):
        ends = flat.take(ends * b + (blocks + j))
    starts, step = [], memoryview(ends.ravel())
    for k in range(K):
        starts.append(x)
        x = step[x * K + k]
    y = np.empty((_BLOCK, K), dtype=table.dtype)
    y[0] = starts
    for j in range(1, _BLOCK):
        flat.take(y[j - 1] * b + (blocks + j - 1), out=y[j])
    return y.T.ravel(), x


def simulate_queue(
    model: QueueModel, pol: QueuePolicy, horizon: int, seed: int,
    stream: int = 0,
) -> SimReport:
    """Simulate the waiting-room channel one service at a time and report the empirical rate.

    A service starts as the agent takes the head of the room or admits an
    arrival, and within it the room only grows.  So a row of six uniforms
    fixes it from its start level: the arrivals strictly between its start
    and its first decision (a binomial, by inversion), that period's arrival
    flag and resolution uniform, attempt 2's arrivals and end-period flag, and
    the idle gap that follows if the room is empty as it ends.  Horizons of at
    least 10^4 periods are recommended; below 32 periods the batch-means
    estimate is undefined and the call is rejected.
    """
    if horizon < N_BATCHES:
        raise ValueError(f"horizon must be at least {N_BATCHES}")

    q, r, c_c, rho1, N = model.q, model.econ.r, model.econ.c_c, model.rho1, model.N
    end = WARMUP + horizon
    cap = 2 * end  # idle gaps past the run's end are clipped here, before any cast
    # a decision past the run's end matters only through the arrivals before it
    tau1, tau2 = min(model.tau1, end), min(model.tau2, end)
    cdf1, cdf2 = _binomial_cdf(tau1 - 1, q), _binomial_cdf(tau2 - 1, q)
    log_q = math.log1p(-q) if q < 1 else -math.inf
    n = N + 2 if pol.n is None else min(pol.n, N + 2)  # transfer iff Q >= n: never at N + 2
    # a batch's draws and int32 table take at most 12 * _CHUNK bytes; with its
    # row arrays, or a wide room's Python lists, it peaks below 6 times that
    rows = 3 * _CHUNK // (13 + min(N, _TABLE_N)) // _BLOCK * _BLOCK

    rng = rng_stream(seed, stream)
    # a service cut by an edge of the counted window splits its arrivals by
    # draws from a stream of their own, so no batch boundary moves them
    split_rng = np.random.Generator(rng.bit_generator.jumped())
    rewards = np.zeros(end)
    arrivals = blocked = resolved = transferred = max_queue = services = x = 0
    admits = True  # whether the next service's start period brings an arrival
    first = nxt = int(_geometric(rng.random(), log_q, cap)) if q else end  # the first admission
    while nxt < end:
        mean = (nxt - first) / services if services else tau1 + (1 - q) / q
        b = min(rows, -(-int((end - nxt) / mean * 1.05 + 32) // _BLOCK) * _BLOCK)
        u = rng.random((b, 6))
        A1 = np.searchsorted(cdf1, u[:, 0], "right")  # arrivals between start and decision
        f1 = u[:, 1] < q  # the decision period's arrival
        res = u[:, 2] < rho1
        A2 = np.searchsorted(cdf2, u[:, 3], "right")  # attempt 2's, then its end period's
        f2 = u[:, 4] < q
        # From y waiting after its start period's arrival joined, a service
        # ends at its first decision iff y >= h: attempt 1 resolves, or Q =
        # min(N, y + A1) + f1 >= n.  It ends with e = min(N, y + arrivals)
        # waiting; the freed agent takes the head before the end period's
        # arrival g joins, so the next service starts from max(0, e - 1 + g).
        h = np.where(res, 0, np.where(N + f1 >= n, n - f1 - A1, N + 1))
        H, DS, DC, CS, CC = (np.clip(v, -1, N + 1).astype(np.int32) for v in (
            h, A1 + f1 - 1, A1 + f1 + A2 + f2 - 1, N - 1 + f1, N - 1 + f2))
        y, x = _walk(H, DS, DC, CS, CC, x, N)
        stop = y >= h
        n1 = np.minimum(y + A1, N)
        e = np.where(stop, n1, np.minimum(n1 + f1 + A2, N))
        g = np.where(stop, f1, f2)
        dur = np.where(stop, tau1, tau1 + tau2)  # start to last decision
        lengths = dur.copy()  # start to next start
        idle = np.flatnonzero((e == 0) & ~g)  # ends empty and with no arrival: a gap follows
        lengths[idle] += 1 + _geometric(u[idle, 5], log_q, cap).astype(np.int64)
        S = np.cumsum(np.append(nxt, lengths))  # starts
        m = min(int(np.searchsorted(S, end)), b)  # services started within the run
        nxt, services = int(S[m]), services + m
        y, A1, f1, res, A2, n1, e, g, stop = (v[:m] for v in (y, A1, f1, res, A2, n1, e, g, stop))
        D = S[:m] + dur[:m]
        xfer = stop & ~res
        lo, hi = np.searchsorted(D, (WARMUP, end))
        rewards[D[:hi]] = np.where(xfer[:hi], r - c_c, r)
        nx = int(np.count_nonzero(xfer[lo:hi]))
        transferred += nx
        resolved += int(hi - lo) - nx
        # A service's arrivals are those of its periods [start, D).  The start
        # period brings one unless the agent took the head and none came; it
        # joins iff the agent took the head (y counts it).  What would pass N
        # before D is blocked.
        a0 = np.append(admits, (g | (e == 0))[:m - 1])
        admits = bool(g[m - 1] or e[m - 1] == 0)
        arr = a0 + A1 + ~stop * (f1 + A2)
        blk = np.maximum(y + A1 - N, 0) + ~stop * np.maximum(n1 + f1 + A2 - N, 0)
        # the services wholly in the counted window in numpy, the (at most
        # two) that its edges cut one by one
        a, z = np.searchsorted(S[:m], WARMUP), np.searchsorted(D, end, "right")
        arrivals += int(arr[a:z].sum())
        blocked += int(blk[a:z].sum())
        max_queue = max(max_queue, int(np.where(e > y - a0, e, 0)[a:z].max(initial=0)))
        for i in sorted({a - 1, z}):
            if 0 <= i < m and (S[i] < WARMUP < D[i] or S[i] < end < D[i]):
                s, d = int(S[i]), int(S[i]) + tau1
                spans = [(s, s + 1, int(a0[i])), (s + 1, d, int(A1[i]))]
                if not stop[i]:
                    spans += [(d, d + 1, int(f1[i])), (d + 1, d + tau2, int(A2[i]))]
                cut = _cut_service(split_rng, spans, int(y[i] - a0[i]), N, WARMUP, end)
                arrivals, blocked = arrivals + cut[0], blocked + cut[1]
                max_queue = max(max_queue, cut[2])
        # drop the batch's arrays before the next draw, so no two batches' coexist
        del u, A1, f1, res, A2, f2, h, H, DS, DC, CS, CC, lengths, idle
        del y, stop, n1, e, g, dur, S, D, xfer, a0, arr, blk

    counts = dict(arrivals=arrivals, admitted=arrivals - blocked, blocked=blocked,
                  resolved=resolved, transferred=transferred, max_queue=max_queue)
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
