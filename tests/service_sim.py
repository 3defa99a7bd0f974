"""A loop over services, the bit-for-bit oracle for the waiting-room simulator.

It draws what `gatekeeper.simulate.simulate_queue` draws, in the same order,
one service at a time: the first admission's idle gap, then per service a row
of six uniforms (attempt 1's arrivals as a binomial by inversion, the
decision period's arrival flag, the resolution uniform, attempt 2's arrivals
and its end period's flag, the idle gap).  A service cut by the counted
window's edges splits each span of arrivals it cuts by a hypergeometric draw
from the stream jumped ahead.  It follows the room with Python integers and
the policy's own `transfers`, so the simulator's tables, walk, cumulative sums
and clipping must give an equal `SimReport`.  `tests/period_sim.py` holds the
meaning of the draws.
"""
import math
from bisect import bisect_right

import numpy as np

from gatekeeper.model import rng_stream
from gatekeeper.simulate import N_BATCHES, WARMUP, SimReport, _batch_se, _binomial_cdf
from gatekeeper.waiting_room import QueueModel, QueuePolicy


def simulate_queue_services(
    model: QueueModel, pol: QueuePolicy, horizon: int, seed: int,
    stream: int = 0,
) -> SimReport:
    if horizon < N_BATCHES:
        raise ValueError(f"horizon must be at least {N_BATCHES}")

    q, r, c_c, rho1, N = model.q, model.econ.r, model.econ.c_c, model.rho1, model.N
    end = WARMUP + horizon
    tau1, tau2 = min(model.tau1, end), min(model.tau2, end)
    cdf1, cdf2 = _binomial_cdf(tau1 - 1, q).tolist(), _binomial_cdf(tau2 - 1, q).tolist()
    log_q = math.log1p(-q) if q < 1 else -math.inf

    def gap(u):  # failures before the next arrival, clipped past the run
        return math.floor(max(float(np.log1p(-u)), 2 * end * log_q) / log_q)

    rng = rng_stream(seed, stream)
    split = np.random.Generator(rng.bit_generator.jumped())
    rewards = np.zeros(end)
    counts = dict.fromkeys(("arrivals", "blocked", "resolved", "transferred", "max_queue"), 0)

    def counted(t):
        return WARMUP <= t < end

    def before(k, a, b, c):  # of k arrivals at random over [a, b), those before c
        if c <= a:
            return 0
        if c >= b:
            return k
        return int(split.hypergeometric(k, b - a - k, c - a))

    def arrive(a, b, k, room):
        """k arrivals over the periods [a, b) come to a room of `room` waiting;
        returns the room after them."""
        pre = before(k, a, b, WARMUP)
        live = before(k - pre, max(a, WARMUP), b, end)
        joins = min(pre + live, N - room) - min(pre, N - room)
        counts["arrivals"] += live
        counts["blocked"] += live - joins
        if joins:
            counts["max_queue"] = max(counts["max_queue"], room + min(pre + live, N - room))
        return room + min(k, N - room)

    def draws():  # the rows in order, drawn a block at a time
        while True:
            yield from rng.random((4096, 6)).tolist()

    s = gap(rng.random()) if q else end  # the first admission
    counts["arrivals"] += counted(s)
    room = 0  # waiting, after the start period's arrival joined
    rows = draws()
    while s < end:
        u = next(rows)
        A1, f1, A2, f2 = bisect_right(cdf1, u[0]), u[1] < q, bisect_right(cdf2, u[3]), u[4] < q
        d = s + tau1
        room = arrive(s + 1, d, A1, room)
        transfer = u[2] >= rho1 and pol.transfers(room + f1)
        flag = f1
        if u[2] >= rho1 and not transfer:  # attempt 2
            room = arrive(d, d + 1, int(f1), room)
            room = arrive(d + 1, d + tau2, A2, room)
            d += tau2
            flag = f2
        if counted(d):
            rewards[d] = r - c_c if transfer else r
            counts["transferred" if transfer else "resolved"] += 1
        if room:  # the freed agent takes the head, then the flag joins
            room -= 1
            if flag:
                room += 1
                if counted(d):
                    counts["arrivals"] += 1
                    counts["max_queue"] = max(counts["max_queue"], room)
            s = d
        elif flag:  # the agent admits the decision period's arrival
            counts["arrivals"] += counted(d)
            s = d
        else:  # idle until an arrival comes
            s = d + 1 + gap(u[5])
            counts["arrivals"] += counted(s)

    se, nb = _batch_se(rewards[WARMUP:])
    counts = {
        "arrivals": counts["arrivals"],
        "admitted": counts["arrivals"] - counts["blocked"],
        "blocked": counts["blocked"],
        "resolved": counts["resolved"],
        "transferred": counts["transferred"],
        "max_queue": counts["max_queue"],
    }
    return SimReport(
        mean=float(rewards[WARMUP:].mean()), se=se, n_batches=nb, horizon=horizon, seed=seed,
        counts=counts,
    )
