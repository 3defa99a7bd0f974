"""A loop over admission cycles, the bit-for-bit oracle for the channel simulator.

It draws what `gatekeeper.simulate.simulate_policy` draws, in the same order,
one cycle at a time: the first admission's idle gap, then per cycle a row of
each attempt's arrival, expert and resolution uniforms followed by the warm
wait's and the idle gap's; after the run, one binomial for the arrivals
blocked between decisions, from the stream jumped ahead.  It follows one
customer from admission to the next admission with Python integers, so the
simulator's batches, cumulative sums and clipping must give an equal
`SimReport`.  `tests/period_sim.py` holds the meaning of the draws.
"""
import math

import numpy as np

from gatekeeper.evaluate import PerformanceMeasures, check_policy
from gatekeeper.model import ProblemInstance, StationaryPolicy, rng_stream
from gatekeeper.simulate import N_BATCHES, WARMUP, SimReport, _batch_se


def _failures(u, p: float) -> float:
    """Failures before the first success of Bernoulli(p) trials, by inversion
    of the uniform u (numpy's log1p, as the simulator takes it)."""
    return float(np.log1p(-u)) / (math.log1p(-p) if p < 1 else -math.inf)


def simulate_policy_cycles(
    inst: ProblemInstance, pol: StationaryPolicy, horizon: int, seed: int,
    stream: int = 0,
) -> SimReport:
    check_policy(inst, pol)
    if horizon < N_BATCHES:
        raise ValueError(f"horizon must be at least {N_BATCHES}")

    q, a, S = inst.traffic.q, inst.traffic.a, inst.S
    tau, rho = inst.profile.tau, inst.profile.rho
    r, c_w, c_c, tau_w = inst.econ.r, inst.econ.c_w, inst.econ.c_c, inst.econ.tau_w
    acts = [[int(act) for act in rule.actions] for rule in pol.rules]
    end = WARMUP + horizon

    def counted(t):
        return WARMUP <= t < end

    rng = rng_stream(seed, stream)
    blocked_rng = np.random.Generator(rng.bit_generator.jumped())
    rewards = np.zeros(end)
    arrivals = admitted = resolved = warm = cold = occupied = decisions = 0
    gap = _failures(rng.random(), q)
    admit = math.floor(min(gap, 2 * end))  # past the run either way
    while admit < end:
        row = rng.random(3 * S + 2)
        if counted(admit):
            admitted += 1
            arrivals += 1
        t = admit
        for x in range(S):
            t += tau[x]  # attempt x + 1's decision period
            arrival, avail = row[x] < q, row[S + x] < a
            if row[2 * S + x] < rho[x]:
                outcome = 3
                break
            outcome = acts[x][arrival + 2 * avail]
            if outcome:
                break
            if counted(t):  # the agent serves on: the arrival is blocked
                decisions += 1
                arrivals += arrival
        if counted(t):
            rewards[t] = (0.0, r - c_w, r - c_c, r)[outcome]
            resolved += outcome == 3
            warm += outcome == 1
            cold += outcome == 2
        if outcome == 1:
            if counted(t):  # held for an expert: the arrival is blocked
                decisions += 1
                arrivals += arrival
            wait = 0 if avail else 1 + min(_failures(row[3 * S], a), 2 * end)
            free = t + math.floor(wait) + tau_w
            nxt = free + min(_failures(row[3 * S + 1], q), 2 * end)
        else:
            free = t
            nxt = t if arrival else t + 1 + min(_failures(row[3 * S + 1], q), 2 * end)
        occupied += max(0, min(free, end) - max(admit, WARMUP))
        admit = math.floor(nxt)

    # every other period of service (after the admission period, before the
    # agent is free, not a blocking decision) blocks an arrival with probability q
    others = occupied - admitted - decisions
    arrivals += int(blocked_rng.binomial(others, q))

    se, nb = _batch_se(rewards[WARMUP:])
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
        mean=float(rewards[WARMUP:].mean()), se=se, n_batches=nb, horizon=horizon, seed=seed,
        counts=counts, perf=perf,
    )
