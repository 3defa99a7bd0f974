import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from gatekeeper import (
    EconomicParams,
    ProblemInstance,
    QueuePolicy,
    ResolutionProfile,
    StationaryPolicy,
    TrafficParams,
    admissible_queue_policies,
    cross_validate,
    default_queue_model,
    evaluate_policy,
    policy_from_names,
    simulate_policy,
    simulate_queue,
    uniform_policy,
)
from gatekeeper.simulate import WARMUP, _CHUNK, _TABLE_N, _batch_se, _simulate_channel

from conftest import random_instance, random_policy
from cycle_sim import simulate_policy_cycles
from period_sim import simulate_policy_periods, simulate_queue_periods
from service_sim import simulate_queue_services

# the warm-up and the shorter runs end inside services at q = 1; the longest
# run's waiting-room services and channel cycles fill several batches
HORIZONS = (32, 1023, 1025, 2 * _CHUNK + 4_000)
# more batches still, of services and cycles of any length
LONG = 5 * _CHUNK + 17
# after the warm-up chunk, chunks end at counted periods k * _CHUNK: this run's
# last chunk is a single period
ONE_PAST = _CHUNK + 1


def test_deterministic_trajectory(single_attempt):
    a = simulate_policy(single_attempt, StationaryPolicy(()), 20_000, seed=4)
    b = simulate_policy(single_attempt, StationaryPolicy(()), 20_000, seed=4)
    assert a == b
    c = simulate_policy(single_attempt, StationaryPolicy(()), 20_000, seed=5)
    assert c.mean != a.mean


def test_single_attempt_matches_analytic(single_attempt):
    rep = simulate_policy(single_attempt, StationaryPolicy(()), 1_000_000, seed=1)
    assert abs(rep.mean - 10.0) <= 3 * rep.se


def test_outcome_counts_partition_exactly():
    cases = [
        (random_instance(33, 3), random_policy(3, 3)),
        # every wait and service crosses the window's edges, or none comes
        (replace(random_instance(82, 2), traffic=TrafficParams(q=1.0, a=1e-3)), uniform_policy("T1", 2)),
        (replace(random_instance(84, 4), traffic=TrafficParams(q=1e-3, a=1.0)), random_policy(84, 4)),
        (_LONG_SERVICE, uniform_policy("H1", 2)),
    ]
    for inst, pol in cases:
        rep = simulate_policy(inst, pol, 50_000, seed=2)
        total = rep.counts["resolved"] + rep.counts["warm"] + rep.counts["cold"]
        assert rep.perf.p_resolve + rep.perf.p_warm + rep.perf.p_cold == pytest.approx(1.0)
        # every admission eventually leaves by exactly one outcome; one customer
        # may straddle either counting boundary (warm-up end, horizon end)
        assert -1 <= rep.counts["admitted"] - total <= 1


def test_warm_transfer_waits_for_an_expert():
    # at a = 0.05 a warm transfer almost never finds an expert free, so the
    # agent holds the customer until one comes (the warm-wait branch)
    inst = random_instance(12, 2)
    inst = replace(inst, traffic=replace(inst.traffic, a=0.05))
    pol = uniform_policy("T1", 2)
    rep = simulate_policy(inst, pol, 200_000, seed=3)
    assert rep.counts["warm"] > 0
    assert abs(rep.mean - evaluate_policy(inst, pol).R) <= 4 * rep.se


def test_degenerate_instance_has_zero_standard_error():
    inst = ProblemInstance(
        profile=ResolutionProfile((1,), (1.0,)),
        econ=EconomicParams(r=7.0, c_w=1.0, c_c=2.0, tau_w=1),
        traffic=TrafficParams(q=1.0, a=1.0),
    )
    rep = simulate_policy(inst, StationaryPolicy(()), 64_000, seed=0)
    assert rep.se == 0.0
    assert rep.mean == 7.0


@pytest.mark.parametrize("horizon", [32, 33, 63, 1025, 250_000])
def test_batch_se_equals_array_split_batches(horizon):
    rewards = np.random.default_rng(horizon).random(horizon) * 20.0
    means = np.array([b.mean() for b in np.array_split(rewards, 32)])
    assert _batch_se(rewards) == (float(means.std(ddof=1) / np.sqrt(32)), 32)


def test_batch_count_at_least_thirty():
    rep = simulate_policy(random_instance(1, 2), uniform_policy("T5", 2), 10_000, seed=1)
    assert rep.n_batches >= 30


def test_perf_estimates_close_to_analytic():
    inst = random_instance(12, 2)
    pol = uniform_policy("H2", 2)
    rep = simulate_policy(inst, pol, 400_000, seed=8)
    perf = evaluate_policy(inst, pol).perf
    assert rep.perf.p_admit == pytest.approx(perf.p_admit, abs=0.02)
    assert rep.perf.p_resolve == pytest.approx(perf.p_resolve, abs=0.02)
    assert rep.perf.t_channel == pytest.approx(perf.t_channel, rel=0.05)


@pytest.mark.parametrize("S", range(1, 6))
@pytest.mark.parametrize("q", (1e-3, 1.0))
@pytest.mark.parametrize("a", (1e-3, 1.0))
def test_channel_equals_period_oracle(S, q, a):
    # bit for bit the loop over cycles (tests/cycle_sim.py); the loop over
    # periods is checked against it in distribution below
    base = random_instance(60 + S, S)
    traffic = TrafficParams(q=q, a=a)
    unit = ProblemInstance(  # every attempt and handoff takes one period
        profile=ResolutionProfile((1,) * S, base.profile.rho),
        econ=replace(base.econ, tau_w=1), traffic=traffic,
    )
    cases = [
        (replace(base, traffic=traffic), random_policy(70 + S, S)),
        (unit, policy_from_names(["H2", "T1", "T5", "C"][: S - 1])),
    ]
    for inst, pol in cases:
        for horizon in HORIZONS + (ONE_PAST,):
            assert (simulate_policy(inst, pol, horizon, seed=S, stream=2)
                    == simulate_policy_cycles(inst, pol, horizon, seed=S, stream=2))


# At a = 1e-5 a warm wait lasts about 10^5 periods: one crosses the warm-up's
# end, and the last one before the horizon runs past it.  At tau = (20000,
# 30000) a cycle spans the warm-up's end, and a handoff of 40000 too.
_WAIT_OVER_CHUNKS = TrafficParams(q=0.9, a=1e-5)
_LONG_SERVICE = ProblemInstance(
    profile=ResolutionProfile((20_000, 30_000), (0.3, 1.0)),
    econ=EconomicParams(r=7.0, c_w=1.0, c_c=2.0, tau_w=40_000),
    traffic=TrafficParams(q=0.5, a=0.3),
)


@pytest.mark.parametrize("inst, rule", [
    (replace(random_instance(82, 2), traffic=_WAIT_OVER_CHUNKS), "T1"),
    (replace(random_instance(83, 3), traffic=_WAIT_OVER_CHUNKS), "T1"),
    (_LONG_SERVICE, "T1"),
    (_LONG_SERVICE, "H1"),
    (_LONG_SERVICE, "C"),
], ids=["wait-S2", "wait-S3", "long-T1", "long-H1", "long-C"])
def test_customer_carried_across_chunks_equals_period_oracle(inst, rule):
    pol = uniform_policy(rule, inst.S)
    for horizon in HORIZONS + (LONG,):
        rep = simulate_policy(inst, pol, horizon, seed=5, stream=3)
        assert rep == simulate_policy_cycles(inst, pol, horizon, seed=5, stream=3)
    if rule == "T1":  # the case holds warm waits: counted, or one that fills the run
        service = sum(inst.profile.tau) + inst.econ.tau_w  # the longest cycle without a wait
        assert (rep.counts["warm"] > 1
                or rep.counts["occupied_periods"] > service * (rep.counts["admitted"] + 1))


def test_memory_is_bounded_by_a_chunk_when_a_wait_outlasts_the_run():
    # at a = 1e-6 one warm wait can outlast the whole run; what crosses a
    # chunk boundary is the customer's state, not the draws since it arrived
    inst = replace(random_instance(82, 2), traffic=TrafficParams(q=0.9, a=1e-6))
    horizon = 2_000_000
    tracemalloc.start()
    try:
        rep = simulate_policy(inst, uniform_policy("T1", 2), horizon, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.counts["warm"] > 0
    assert peak - 8 * horizon < 4_000_000  # beyond the rewards array
    # the waiting room's batches fit in a chunk's budget too, those of a
    # narrow room with their tables of next levels and those of a wide room
    # with the Python lists it steps through (its shorter run still takes
    # some 10 batches)
    for N, periods in ((0, horizon), (2_000, horizon // 10)):
        tracemalloc.start()
        try:
            rep = simulate_queue(default_queue_model(N=N, q=0.9), QueuePolicy.never(), periods, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.counts["blocked"] > rep.counts["admitted"] > 0
        assert rep.counts["max_queue"] == N
        assert peak - 8 * periods < 4_000_000


def test_degenerate_instance_equals_period_oracle():
    inst = ProblemInstance(
        profile=ResolutionProfile((1,), (1.0,)),
        econ=EconomicParams(r=7.0, c_w=1.0, c_c=2.0, tau_w=1),
        traffic=TrafficParams(q=1.0, a=1.0),
    )
    for horizon in HORIZONS:
        rep = simulate_policy(inst, StationaryPolicy(()), horizon, seed=0)
        assert rep == simulate_policy_cycles(inst, StationaryPolicy(()), horizon, seed=0)
        # nothing is random here: the loop over periods gives the same report
        assert rep == simulate_policy_periods(inst, StationaryPolicy(()), horizon, seed=0)
        assert rep.se == 0.0


# (instance, policy) pairs over S = 1..5 with warm waits, q and a at 1e-3 and 1
_SEMANTICS = [
    (replace(random_instance(91, 1), traffic=TrafficParams(q=1e-3, a=1.0)), StationaryPolicy(())),
    (replace(random_instance(92, 2), traffic=TrafficParams(q=1.0, a=1e-3)), uniform_policy("T1", 2)),
    (replace(random_instance(93, 2), traffic=TrafficParams(q=0.3, a=0.05)), uniform_policy("T1", 2)),
    (replace(random_instance(94, 3), traffic=TrafficParams(q=1e-3, a=1e-3)), uniform_policy("T1", 3)),
    (replace(random_instance(95, 3), traffic=TrafficParams(q=1.0, a=1.0)), random_policy(95, 3)),
    (replace(random_instance(96, 4), traffic=TrafficParams(q=0.6, a=1e-3)), policy_from_names(["H1", "H2", "T5"])),
    (replace(random_instance(97, 4), traffic=TrafficParams(q=1.0, a=0.4)), random_policy(97, 4)),
    (replace(random_instance(98, 5), traffic=TrafficParams(q=0.2, a=1.0)), uniform_policy("H1", 5)),
    (replace(random_instance(99, 5), traffic=TrafficParams(q=1.0, a=1e-3)), random_policy(99, 5)),
    (random_instance(100, 5), random_policy(100, 5)),
]


def test_channel_agrees_with_period_loop_in_distribution():
    # The cycle sampler and the loop over every period draw different numbers
    # from the same model: over 10 runs each, mean, p_admit, p_warm and
    # t_channel agree within 4 combined standard errors of their run means.
    runs, horizon = 10, 20_000
    for i, (inst, pol) in enumerate(_SEMANTICS):
        stats = []
        for sim, stream in ((simulate_policy, 0), (simulate_policy_periods, 1)):
            reps = [sim(inst, pol, horizon, seed=300 + i, stream=2 * k + stream) for k in range(runs)]
            stats.append(np.array([(rep.mean, rep.perf.p_admit, rep.perf.p_warm, rep.perf.t_channel)
                                   for rep in reps]))
        cycles, periods = stats
        se = np.hypot(cycles.std(0, ddof=1), periods.std(0, ddof=1)) / np.sqrt(runs)
        gap = np.abs(cycles.mean(0) - periods.mean(0))
        assert (gap <= 4 * se).all(), (i, gap, se)


@pytest.mark.parametrize("tau, rule, length, outcome", [
    ((4,), None, 4, 3),     # resolved: the arrival at the decision is the next admission
    ((3, 5), "T1", 5, 1),   # warm: a = 1 hands off (tau_w = 2) from the decision period
    ((3, 5), "T5", 3, 2),   # cold: the arrival at the decision is the next admission
])
@pytest.mark.parametrize("horizon", [32, 1025, 4099])
def test_cycles_at_q_and_a_one_follow_the_boundary_rules(tau, rule, length, outcome, horizon):
    # At q = a = 1 with attempt 1 all but never resolving, every cycle takes
    # `length` periods from period 0: the agent is never idle, every period
    # brings an arrival, and each admission's arrival is admitted, not blocked.
    rho = (1e-300,) * (len(tau) - 1) + (1.0,)
    inst = ProblemInstance(profile=ResolutionProfile(tau, rho),
                           econ=EconomicParams(r=7.0, c_w=1.0, c_c=2.0, tau_w=2),
                           traffic=TrafficParams(q=1.0, a=1.0))
    pol = uniform_policy(rule, len(tau)) if rule else StationaryPolicy(())
    rep = simulate_policy(inst, pol, horizon, seed=1)
    window = range(WARMUP, WARMUP + horizon)
    starts = [t for t in window if t % length == 0]
    ends = [t for t in window if t % length == tau[0] % length]
    names = {1: "warm", 2: "cold", 3: "resolved"}
    assert rep.counts == {"arrivals": horizon, "admitted": len(starts),
                          **{name: len(ends) * (k == outcome) for k, name in names.items()},
                          "occupied_periods": horizon}
    pay = {1: 6.0, 2: 5.0, 3: 7.0}[outcome]
    assert rep.mean == pytest.approx(pay * len(ends) / horizon, rel=1e-12)


@pytest.mark.parametrize("inst", [
    replace(random_instance(82, 2), traffic=TrafficParams(q=1e-300, a=1e-300)),
    replace(random_instance(82, 2), traffic=TrafficParams(q=1.0, a=5e-324)),
    ProblemInstance(profile=ResolutionProfile((2**62,), (1.0,)),
                    econ=EconomicParams(r=7.0, c_w=1.0, c_c=2.0, tau_w=2**62),
                    traffic=TrafficParams(q=0.5, a=0.5)),
], ids=["q-a-1e-300", "a-5e-324", "tau-2^62"])
def test_waits_past_the_run_are_clipped_without_overflow(inst):
    pol = uniform_policy("T1", inst.S)
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            rep = simulate_policy(inst, pol, 1_000_000, seed=4)
    assert time.perf_counter() - start < 1.0
    assert rep.counts["admitted"] <= 1
    assert rep == simulate_policy_cycles(inst, pol, 1_000_000, seed=4)


@pytest.mark.parametrize("inst, rule", [
    (random_instance(33, 3), "H2"),
    (replace(random_instance(82, 2), traffic=_WAIT_OVER_CHUNKS), "T1"),
    (replace(random_instance(84, 4), traffic=TrafficParams(q=1.0, a=0.2)), "T1"),
])
def test_report_does_not_depend_on_the_batch_size(inst, rule):
    pol = uniform_policy(rule, inst.S)
    want = simulate_policy(inst, pol, 6_000, seed=7, stream=1)
    for rows in (1, 2, 7, 100):
        assert _simulate_channel(inst, pol, 6_000, 7, 1, rows) == want


def queue_model(N, q, tau=(6, 15), rho1=0.7):
    return replace(default_queue_model(N=N, q=q), profile=ResolutionProfile(tau, (rho1, 1.0)))


def queue_cases(N):
    """(model, policies or None for all, horizons) to hold against the oracle."""
    cases = [
        (queue_model(N, min(0.3 + 0.1 * N, 0.9)), None, HORIZONS),
        (queue_model(N, 1.0, (1, 1)), None, HORIZONS),
        # a full room over several batches, services of random length
        (queue_model(N, 0.9), [QueuePolicy.never()], (LONG,)),
        (queue_model(N, 0.6, (1, 4)), [QueuePolicy.never(), QueuePolicy.always()], HORIZONS[-1:] + (ONE_PAST,)),
        (queue_model(N, 0.5, rho1=1e-3), [QueuePolicy.always(), QueuePolicy(N)], HORIZONS[-1:]),
        (queue_model(N, 0.5, rho1=1 - 1e-3), [QueuePolicy(N // 2)], HORIZONS[-1:]),
        # loads at which the room fills only now and then
        (queue_model(N, 0.171), [QueuePolicy.always()], (LONG,)),
        (queue_model(N, 0.061), [QueuePolicy(N)], HORIZONS[-1:]),
        # no arrival ever comes, or the first one comes past the run
        (queue_model(N, 0.0), None, HORIZONS),
        (queue_model(N, 5e-324), None, HORIZONS),
    ]
    if N == 0:
        cases.append((queue_model(0, 0.999), None, (LONG,)))
    return cases


@pytest.mark.parametrize("N", [*range(7), _TABLE_N - 1, _TABLE_N, 40])
def test_queue_equals_period_oracle(N):
    # bit for bit the loop over services (tests/service_sim.py), both in the
    # rooms that walk composed tables and in the wider ones that step one
    # service at a time; the loop over periods is checked against it in
    # distribution below
    for model, pols, horizons in queue_cases(N):
        for pol in pols or admissible_queue_policies(model)[::1 if N < 7 else 4]:
            for horizon in horizons:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with np.errstate(over="raise", divide="raise", invalid="raise"):
                        rep = simulate_queue(model, pol, horizon, seed=N, stream=1)
                assert rep == simulate_queue_services(model, pol, horizon, seed=N, stream=1)
                if model.q < 1e-300:
                    assert rep.counts == dict.fromkeys(rep.counts, 0) and rep.mean == 0.0


def test_queue_full_from_warm_up_records_no_live_join():
    # the room fills during the warm-up and every counted arrival is blocked,
    # so no counted arrival joins it and max_queue stays 0 (seed 142 is the
    # first from 52 on whose draws do this)
    model = default_queue_model(N=1, q=0.05)
    rep = simulate_queue(model, QueuePolicy.never(), 32, seed=142)
    assert rep == simulate_queue_services(model, QueuePolicy.never(), 32, seed=142)
    assert rep.counts["blocked"] == rep.counts["arrivals"] > 0
    assert rep.counts["max_queue"] == 0


@pytest.mark.parametrize("N", [0, 2])
@pytest.mark.parametrize("rule", ["never", "always", "qge"])
@pytest.mark.parametrize("horizon", [32, 1025, 4099])
def test_rooms_at_q_one_follow_the_boundary_rules(N, rule, horizon):
    # At q = 1 with attempt 1 all but never resolving, every service takes
    # `length` periods from period 0 and admits one arrival, at its start;
    # every other arrival finds the room full.  The decision's Q counts its
    # own period's arrival, so qge(N + 1) transfers from a full room; the
    # freed agent takes the head before that arrival joins, so the room
    # never holds more than N.
    pol = {"never": QueuePolicy.never(), "always": QueuePolicy.always(), "qge": QueuePolicy(N + 1)}[rule]
    model = queue_model(N, 1.0, rho1=1e-300)
    length = 21 if rule == "never" else 6
    starts = sum(t % length == 0 for t in range(WARMUP, WARMUP + horizon))
    rep = simulate_queue(model, pol, horizon, seed=1)
    assert rep.counts == {"arrivals": horizon, "admitted": starts, "blocked": horizon - starts,
                          "resolved": starts * (rule == "never"),
                          "transferred": starts * (rule != "never"), "max_queue": N}
    assert rep.mean == (20.0 if rule == "never" else 15.0) * starts / horizon
    # nothing is random here: the loop over periods gives the same report
    assert rep == simulate_queue_periods(model, pol, horizon, seed=1)


# (model, policy) pairs over N = 0, 1, 5 and 40, near critical load and full
_QUEUE_SEMANTICS = [
    (queue_model(0, 0.5), QueuePolicy.never()),
    (queue_model(0, 0.3), QueuePolicy(1)),
    (queue_model(1, 0.3), QueuePolicy(1)),
    (queue_model(1, 0.6, (1, 4)), QueuePolicy(2)),
    (queue_model(5, 0.061), QueuePolicy.always()),
    (queue_model(5, 0.171), QueuePolicy.always()),
    (queue_model(5, 0.171), QueuePolicy(3)),
    (queue_model(5, 0.9), QueuePolicy.never()),
    (queue_model(40, 0.17), QueuePolicy.always()),
    (queue_model(40, 0.12), QueuePolicy.never()),
    (queue_model(40, 0.171), QueuePolicy(20)),
]


@pytest.mark.parametrize("runs, horizon, cases", [
    (10, 20_000, _QUEUE_SEMANTICS),
    # short runs of long services: most services cross the warm-up's end or
    # the run's, and their arrivals are split between the sides
    (200, 40, [(queue_model(2, 0.3, (20, 30)), QueuePolicy(2)),
               (queue_model(3, 0.8, (25, 9), rho1=0.4), QueuePolicy.never())]),
], ids=["long", "edges"])
def test_queue_agrees_with_period_loop_in_distribution(runs, horizon, cases):
    # The service sampler and the loop over every period draw different
    # numbers from the same model: over the runs, mean, admitted / arrivals,
    # transferred / decisions and max_queue agree within 4 combined standard
    # errors of their run means.
    def stat(rep):
        c = rep.counts
        return (rep.mean, c["admitted"] / c["arrivals"],
                c["transferred"] / max(c["resolved"] + c["transferred"], 1), c["max_queue"])

    for i, (model, pol) in enumerate(cases):
        stats = []
        for sim, stream in ((simulate_queue, 0), (simulate_queue_periods, 1)):
            reps = [sim(model, pol, horizon, seed=400 + i, stream=2 * k + stream) for k in range(runs)]
            stats.append(np.array([stat(rep) for rep in reps]))
        services, periods = stats
        se = np.hypot(services.std(0, ddof=1), periods.std(0, ddof=1)) / np.sqrt(runs)
        gap = np.abs(services.mean(0) - periods.mean(0))
        assert (gap <= 4 * se).all(), (i, gap, se)


def test_rejects_undersized_horizon(single_attempt):
    with pytest.raises(ValueError):
        simulate_policy(single_attempt, StationaryPolicy(()), 10, seed=0)


class TestCrossValidate:
    def test_mixed_targets(self):
        targets = [
            (random_instance(2, 2), uniform_policy("T5", 2)),
            (random_instance(3, 3), random_policy(5, 3)),
            (default_queue_model(N=3, q=0.5), QueuePolicy.when_queue_at_least(2)),
        ]
        rows = cross_validate(targets, horizon=200_000, seed=123)
        assert [r.kind for r in rows] == ["channel", "channel", "queue"]
        assert all(r.passed for r in rows)

    def test_reports_are_reproducible(self):
        targets = [(random_instance(7, 2), uniform_policy("H1", 2))]
        a = cross_validate(targets, horizon=50_000, seed=9)
        b = cross_validate(targets, horizon=50_000, seed=9)
        assert a == b

    def test_rejects_unknown_target(self):
        with pytest.raises(TypeError):
            cross_validate([("what", None)], horizon=50_000, seed=0)
