"""Period-by-period simulators: the oracles for what the simulators mean.

These loops visit every period and replay the narrative literally: arrival
and expert-availability draws, integer service clocks, instantaneous
decisions.  Both simulators in `gatekeeper.simulate` sample whole cycles or
services and so draw other numbers: the channel loop is the semantics oracle
for `simulate_policy`, the waiting-room loop for `simulate_queue`, and each
pair must agree in distribution.  `tests/cycle_sim.py` and
`tests/service_sim.py` are their bit-for-bit oracles.
"""
import numpy as np

from gatekeeper.evaluate import PerformanceMeasures, check_policy
from gatekeeper.model import ProblemInstance, StationaryPolicy, rng_stream
from gatekeeper.simulate import _CHUNK, N_BATCHES, WARMUP, SimReport, _batch_se
from gatekeeper.waiting_room import QueueModel, QueuePolicy

# agent modes
_IDLE, _SERV, _PEND, _WWAIT, _WHAND = range(5)


def simulate_policy_periods(
    inst: ProblemInstance, pol: StationaryPolicy, horizon: int, seed: int,
    stream: int = 0,
) -> SimReport:
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


def simulate_queue_periods(
    model: QueueModel, pol: QueuePolicy, horizon: int, seed: int,
    stream: int = 0,
) -> SimReport:
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
