import csv
import dataclasses
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from dense_queue import (
    EXTENDED,
    _branch_chains,
    at_states,
    dense_rates,
    dense_stationary,
    gth_rates,
    level_evaluations,
    policy_blocks,
)
from hypothesis import given, settings, strategies as st

from gatekeeper import (
    EconomicParams,
    ProblemInstance,
    QueueModel,
    QueuePolicy,
    ResolutionProfile,
    TrafficParams,
    admissible_queue_policies,
    default_queue_model,
    evaluate_policy,
    evaluate_queue_policy,
    simulate_queue,
    sweep_queue_policies,
    uniform_policy,
)
from gatekeeper import waiting_room
from gatekeeper.evaluate import EvaluationError
from gatekeeper.waiting_room import _evaluate_on_grid, queue_policy_from_label

GRID = [round(0.05 * i, 2) for i in range(1, 21)]
RECORDED_SWEEP = Path(__file__).resolve().parents[1] / "bench" / "expected" / "sweep.csv"


def test_model_validation():
    with pytest.raises(ValueError, match="invalid queue model: ") as err:
        QueueModel(N=-1, profile=ResolutionProfile((6, 15, 2), (0.7, 0.5, 1.0)),
                   econ=EconomicParams(r=-3.0, c_w=0.0, c_c=5.0, tau_w=1), q=1.4)
    msgs = str(err.value).removeprefix("invalid queue model: ").split("; ")
    assert len(msgs) >= 4


def test_invalid_rho_is_rejected():
    model = default_queue_model(N=2)
    for rho1 in (1.5, -0.2):
        with pytest.raises(ValueError, match=r"rho\[1\] must lie in \[0, 1\]"):
            dataclasses.replace(model, profile=ResolutionProfile((6, 15), (rho1, 1.0)))
    with pytest.raises(ValueError, match="tau and rho must have the same length"):
        dataclasses.replace(model, profile=ResolutionProfile((6, 15), ()))
    for rho1 in (0.0, 1.0):   # both ends stay valid and solvable
        edge = dataclasses.replace(model, profile=ResolutionProfile((6, 15), (rho1, 1.0)))
        assert np.isfinite(evaluate_queue_policy(edge, QueuePolicy.never()).profit)


def test_policy_constructors():
    assert QueuePolicy.never().label == "never"
    assert QueuePolicy.always().transfers(0)
    p = QueuePolicy.when_queue_at_least(3)
    assert not p.transfers(2) and p.transfers(3)
    assert queue_policy_from_label("qge3") == p
    with pytest.raises(ValueError):
        QueuePolicy.when_queue_at_least(0)


def test_admissible_policy_count():
    assert len(admissible_queue_policies(default_queue_model(N=6))) == 8
    labels = [p.label for p in admissible_queue_policies(default_queue_model(N=0))]
    assert labels == ["never", "always"]


def test_no_arrivals_means_no_profit():
    model = default_queue_model(N=4, q=0.0)
    ev = evaluate_queue_policy(model, QueuePolicy.never())
    assert ev.profit == 0.0
    assert ev.throughput == 0.0
    idle_idx = ev.states.index((("idle",), 0))
    assert ev.pi[idle_idx] == 1.0


def test_threshold_out_of_range_rejected():
    model = default_queue_model(N=2)
    with pytest.raises(ValueError):
        evaluate_queue_policy(model, QueuePolicy.when_queue_at_least(3))


def test_one_period_first_attempt_at_full_traffic():
    # q = 1 never shortens the queue, and with tau_1 = 1 it stays where the
    # policy transfers: under "always" the agent serves from level 0 for good
    model = dataclasses.replace(default_queue_model(N=2, q=1.0),
                                profile=ResolutionProfile((1, 15), (0.7, 1.0)))
    ev = evaluate_queue_policy(model, QueuePolicy.always())
    assert ev.profit == pytest.approx(20.0 - 0.3 * 5.0, rel=1e-12)  # r - (1 - rho_1) c_c
    assert ev.throughput == pytest.approx(1.0, rel=1e-12)
    sweep = sweep_queue_policies(model, [0.5, 1.0])
    assert sweep.profit_for("always")[1] == ev.profit
    sim = simulate_queue(model, QueuePolicy.never(), horizon=100_000, seed=3)
    assert abs(sim.mean - sweep.profit_for("never")[1]) < 3 * sim.se


class TestSaturation:
    def test_always_transfer_closed_form(self):
        model = default_queue_model(N=6, q=0.999)
        ev = evaluate_queue_policy(model, QueuePolicy.always())
        expect = (20.0 - 0.3 * 5.0) / 6.0
        assert abs(ev.profit - expect) / expect < 0.01

    def test_never_transfer_closed_form(self):
        model = default_queue_model(N=6, q=0.999)
        ev = evaluate_queue_policy(model, QueuePolicy.never())
        expect = 20.0 / (6.0 + 0.3 * 15.0)
        assert abs(ev.profit - expect) / expect < 0.01


def test_zero_capacity_reduces_to_base_channel():
    # N = 0 restricted to never/always must match the no-waiting-room chain
    for q in (0.1, 0.35, 0.6, 0.9):
        inst = ProblemInstance(
            profile=ResolutionProfile((6, 15), (0.7, 1.0)),
            econ=EconomicParams(r=20.0, c_w=0.0, c_c=5.0, tau_w=1),
            traffic=TrafficParams(q=q, a=0.5),
        )
        model = QueueModel(N=0, profile=inst.profile, econ=inst.econ, q=q)
        pairs = [("never", "C"), ("always", "T5")]
        for queue_label, rule_label in pairs:
            qv = evaluate_queue_policy(model, queue_policy_from_label(queue_label))
            cv = evaluate_policy(inst, uniform_policy(rule_label, 2))
            assert qv.profit == pytest.approx(cv.R, abs=1e-10)
            assert qv.throughput == pytest.approx(cv.perf.throughput, abs=1e-10)


class TestSweep:
    def test_crossing_between_never_and_always_exists(self):
        sweep = sweep_queue_policies(default_queue_model(N=6), GRID)
        diff = sweep.profit_for("always") - sweep.profit_for("never")
        assert diff[0] < 0 < diff[-1]

    def test_profit_nondecreasing_in_arrival_rate(self):
        sweep = sweep_queue_policies(default_queue_model(N=6), GRID)
        assert np.all(np.diff(sweep.profit, axis=1) >= -1e-10)

    def test_half_full_heuristic_near_best_average(self):
        sweep = sweep_queue_policies(default_queue_model(N=6), GRID)
        averages = sweep.profit.mean(axis=1)
        half_full = sweep.profit_for("qge3").mean()
        assert half_full >= 0.98 * averages.max()

    def test_waiting_room_weakly_helps(self):
        base = default_queue_model(N=6)
        with_room = sweep_queue_policies(base, GRID).profit.max(axis=0)
        without = sweep_queue_policies(
            QueueModel(N=0, profile=base.profile, econ=base.econ, q=base.q), GRID
        ).profit.max(axis=0)
        assert np.all(with_room >= without - 1e-10)

    def test_state_contingent_policies_share_saturation_asymptote(self):
        sweep = sweep_queue_policies(default_queue_model(N=6), [0.9999])
        always = sweep.profit_for("always")[0]
        for n in range(1, 7):
            assert sweep.profit_for(f"qge{n}")[0] == pytest.approx(always, rel=1e-3)

    def test_rejects_out_of_range_grid(self):
        with pytest.raises(ValueError):
            sweep_queue_policies(default_queue_model(), [0.0, 0.5])

    def test_canonical_sweep_matches_recorded_profits(self):
        # the queue-sweep CLI output for N = 6 over q = 0.01..1.00, as recorded
        with open(RECORDED_SWEEP, encoding="utf-8", newline="") as fh:
            want = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        model = default_queue_model(N=6)
        sweep = sweep_queue_policies(model, [round(0.01 * i, 10) for i in range(1, 101)])
        assert sweep.rates.shape == (8, 100, 5) and len(want) == 800
        rows = iter(want)
        for label, by_q in zip(sweep.policies, sweep.rates):
            for q, rates in zip(sweep.q_grid, by_q):
                row = next(rows)
                assert (label, q) == (row["policy"], float(row["q"]))
                assert rates[0] == pytest.approx(float(row["profit"]), abs=1e-9)
                ev = evaluate_queue_policy(dataclasses.replace(model, q=q), queue_policy_from_label(label))
                assert np.array_equal(rates, _rates(ev))


def _rates(ev) -> np.ndarray:
    return np.array([ev.profit, ev.throughput, ev.transfer_rate, ev.blocking_rate, ev.resolve_rate])


@st.composite
def edge_cases(draw):
    """N <= 12, tau_1, tau_2 <= 15, any rho_1, q at a log-uniform distance
    from 0 (1e-8 to 0.5) or from 1 (1e-9 to 0.5), and one admissible policy."""
    N = draw(st.integers(0, 12))
    tau = (draw(st.integers(1, 15)), draw(st.integers(1, 15)))
    rho1 = draw(st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0))
    if draw(st.booleans()):
        q = 10.0 ** -draw(st.floats(0.3, 8.0))
    else:
        q = 1.0 - 10.0 ** -draw(st.floats(0.3, 9.0))
    model = dataclasses.replace(default_queue_model(N=N, q=q),
                                profile=ResolutionProfile(tau, (rho1, 1.0)))
    return model, draw(st.sampled_from(admissible_queue_policies(model)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(edge_cases())
def test_level_solve_matches_dense_lu(case):
    model, pol = case
    got = _rates(evaluate_queue_policy(model, pol))
    assert np.abs(got - dense_rates(model, pol)).max() <= 1.7e-11


@pytest.mark.skipif(not EXTENDED, reason="the GTH reference needs an extended long double")
@settings(derandomize=True, max_examples=150, deadline=None)
@given(edge_cases())
def test_level_solve_matches_whole_chain_gth_to_round_off(case):
    # every rate that float64 holds to full precision (above 1e-290, clear of
    # subnormals) is right to round-off, however small, where LU misses tiny
    # blocking rates by orders of magnitude.  A rate near 1e-50 is a product
    # of dozens of rounded transition probabilities, so round-off here means
    # about 50 ulps; float64 GTH on the whole chain misses by as much
    model, pol = case
    got = _rates(evaluate_queue_policy(model, pol))
    ref = gth_rates(model, pol)
    normal = ref > 1e-290
    assert np.all(np.abs(got - ref)[normal] <= 1e-14 * ref[normal])
    assert np.all(got[~normal] < 1e-280)


@pytest.mark.parametrize("q", [0.0, 1.0])
def test_end_points_match_dense_lu_on_the_reachable_states(q):
    # at q = 0 or 1 one branch runs every period; the empty system at q = 0
    # and the saturated cycle at q = 1 against LU on the states a depth-first
    # walk reaches.  tau = (1, 2) at N = 5 climbs two steps of two under qge5
    # and stops at level 4.  Below N the rates do not show the level, so pi
    # is compared too
    for N, tau1, tau2, rho1 in itertools.product((0, 1, 3, 5), (1, 2, 6), (1, 2, 3), (0.0, 0.3, 1.0)):
        model = dataclasses.replace(default_queue_model(N=N, q=q),
                                    profile=ResolutionProfile((tau1, tau2), (rho1, 1.0)))
        at = at_states(model, evaluate_queue_policy(model, QueuePolicy.never()).states)
        for pol in admissible_queue_policies(model):
            ev = evaluate_queue_policy(model, pol)
            pi, rates = dense_stationary(model, pol)
            assert np.abs(ev.pi - pi[at]).max() <= 1e-13, (N, tau1, tau2, rho1, pol)
            assert np.abs(_rates(ev) - rates @ pi).max() <= 1e-13, (N, tau1, tau2, rho1, pol)


@pytest.mark.parametrize("N, tau, rho1, q", [
    (20, (6, 15), 0.7, 1e-12),
    (12, (30, 30), 0.7, 1 - 1e-6),
    (12, (30, 30), 0.0, 1 - 1e-12),   # the escape from each level underflows
])
def test_beyond_the_oracle_grid_solves_or_raises(N, tau, rho1, q):
    model = dataclasses.replace(default_queue_model(N=N, q=q),
                                profile=ResolutionProfile(tau, (rho1, 1.0)))
    for pol in admissible_queue_policies(model):
        try:
            ev = evaluate_queue_policy(model, pol)
        except EvaluationError:
            continue
        assert np.all(np.isfinite(ev.pi)) and np.all(np.isfinite(_rates(ev)))
        assert np.abs(_rates(ev) - dense_rates(model, pol)).max() <= 1e-12


def test_failed_check_names_the_check_state_and_q(monkeypatch):
    model = default_queue_model(N=2, q=0.5)
    states = evaluate_queue_policy(model, QueuePolicy.never()).states
    n = len(states)
    pi = np.full((1, 1, n), 1.0 / n)
    monkeypatch.setattr(waiting_room, "_level_solve", lambda lanes, q: pi)
    with pytest.raises(EvaluationError, match=r"stationary distribution residual .* at q=0.5"):
        evaluate_queue_policy(model, QueuePolicy.never())
    pi[0, 0, states.index((("idle",), 0))] = np.nan
    with pytest.raises(EvaluationError, match=r"residual nan at \('idle',\)/0"):
        evaluate_queue_policy(model, QueuePolicy.never())


def test_failed_check_in_a_sweep_names_the_policy(monkeypatch):
    # one lane of the sweep's one level solve is off: the error names its
    # policy and q, and no other
    solve = waiting_room._level_solve

    def off_in_one_lane(lanes, q):
        pi = solve(lanes, q)
        pi[4, 2] *= 1.0 + 1e-6   # qge3 at the third interior q, 0.3
        return pi

    monkeypatch.setattr(waiting_room, "_level_solve", off_in_one_lane)
    with pytest.raises(EvaluationError, match=r"sum to 1 \+1\.00e-06 at q=0\.3 under policy qge3$"):
        sweep_queue_policies(default_queue_model(N=6), [0.1, 0.2, 0.3, 0.4, 1.0])


def test_level_blocks_equal_the_dense_chain():
    # each policy's blocks, picked from the shared ones, moved to the dense
    # builder's state order by label and scattered into its (2, n, n) layout,
    # against that builder bit for bit; no block leads below level 0 or
    # above N.  The structure the level solve reads the chain by: every move
    # down, and no move up, lands in the phase that starts a service, and
    # every other same-level move goes forward in cycle order, bar idle's
    # self-loop on level 0
    for N, tau1, tau2, rho1 in itertools.product((0, 1, 3, 6), (1, 2, 6), (1, 3, 15), (0.0, 0.3, 1.0)):
        model = dataclasses.replace(default_queue_model(N=N),
                                    profile=ResolutionProfile((tau1, tau2), (rho1, 1.0)))
        phases = waiting_room._level_blocks(model)[0]
        for pol in admissible_queue_policies(model):
            acts, A, rates = policy_blocks(model, pol)
            rank = np.array([phases.index(act) for act in acts])   # each activity's place in the cycle
            start = acts.index(phases[0])
            case = (N, tau1, tau2, rho1, pol)
            assert not np.delete(A[:, :, :, 0], start, -1).any(), case
            assert not A[:, :, :, 2, start].any(), case
            w, _, i, j = np.nonzero(A[:, :, :, 1])
            back = (j != start) & (rank[j] <= rank[i])
            idle = acts.index(("idle",))
            assert np.all((w[back] == 0) & (i[back] == idle) & (j[back] == idle)), case
            states, P, dense = _branch_chains(model, pol)
            L, m = N + 1, len(acts)
            assert states == tuple((act, w) for act in acts for w in range(L))
            assert not A[0, :, :, 0].any() and not A[N, :, :, 2].any()
            scattered = np.zeros((2, m, L, m, L))
            for w, d in itertools.product(range(L), range(3)):
                if 0 <= w - 1 + d <= N:
                    scattered[:, :, w, :, w - 1 + d] = A[w, :, :, d]
            assert np.array_equal(scattered.reshape(P.shape), P), case
            assert np.array_equal(rates, dense), case


@pytest.mark.parametrize("N, tau", [(100, (30, 30)), (200, (6, 15))])
def test_large_room_stays_within_block_memory(N, tau):
    # n = 6,161 and 4,422 states, where the dense (2, n, n) chain alone would
    # take 607 and 313 MB.  The evaluation checks each pi's block residual
    model = dataclasses.replace(default_queue_model(N=N),
                                profile=ResolutionProfile(tau, (0.7, 1.0)))
    tracemalloc.start()
    try:
        _, pi, rates = _evaluate_on_grid(model, [QueuePolicy.when_queue_at_least(N // 2)],
                                         (0.01, 0.02, 0.5, 1.0))   # load below 1 at the first two
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6
    assert np.all(np.isfinite(pi)) and np.all(np.isfinite(rates))


def _assert_lanes_match_alone_and_oracle(model, grid, pi, rates):
    # each lane of a many-policy solve, bit for bit the same policy solved
    # alone, and to round-off the per-policy dense-level state reduction (the
    # bound of the long-double GTH test, on what float64 holds to full
    # precision), the oracle's pi taken state by state
    for p, pol in enumerate(admissible_queue_policies(model)):
        states, alone_pi, alone_rates = _evaluate_on_grid(model, [pol], grid)
        at = at_states(model, states)
        case = (model.N, model.profile, pol.label)
        assert np.array_equal(pi[p], alone_pi[0]), case
        assert np.array_equal(rates[p], alone_rates[0]), case
        for i, (ref_pi, ref_rates) in enumerate(level_evaluations(model, pol, grid)):
            for got, ref in zip((pi[p, i], rates[p, i]), (ref_pi[at], ref_rates)):
                normal = ref > 1e-290
                assert np.all(np.abs(got - ref)[normal] <= 1e-14 * ref[normal]), (case, grid[i])
                assert np.all(got[~normal] < 1e-280), (case, grid[i])


def test_large_sweep_stays_within_block_memory_and_matches_the_oracle():
    # 42 policies on n = 2,501 states: one level solve for all, within 60 MB
    # traced (no array holds one set of blocks per policy); every rate is
    # its lane of that solve, which is the policy solved alone and matches
    # the per-policy dense-level solve
    model = dataclasses.replace(default_queue_model(N=40),
                                profile=ResolutionProfile((30, 30), (0.7, 1.0)))
    grid = (0.01, 0.02, 0.5, 1.0)
    tracemalloc.start()
    try:
        sweep = sweep_queue_policies(model, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60e6
    assert len(sweep.policies) == 42
    _, pi, rates = _evaluate_on_grid(model, admissible_queue_policies(model), grid)
    assert np.array_equal(sweep.rates, rates)
    _assert_lanes_match_alone_and_oracle(model, grid, pi, rates)


@pytest.mark.parametrize("N", [0, 1, 3, 6, 9])
def test_one_solve_for_every_policy_equals_the_per_policy_oracle(N):
    # every policy and q = 0.01..0.99 as lanes of one level solve, against
    # each policy solved alone and the dense-level solve of each policy
    grid = tuple(round(0.01 * i, 10) for i in range(1, 100))
    for tau, rho1 in itertools.product([(1, 1), (1, 3), (2, 15), (6, 1), (6, 15)], (0.0, 0.3, 0.7, 1.0)):
        model = dataclasses.replace(default_queue_model(N=N), profile=ResolutionProfile(tau, (rho1, 1.0)))
        _, pi, rates = _evaluate_on_grid(model, admissible_queue_policies(model), grid)
        _assert_lanes_match_alone_and_oracle(model, grid, pi, rates)


@dataclasses.dataclass(frozen=True)
class _TransferSet:
    """Any Q-dependent rule: transfer after a failed first attempt iff Q is
    in `at`."""

    at: frozenset

    def transfers(self, q_obs: int) -> bool:
        return q_obs in self.at

    @property
    def label(self) -> str:
        return str(sorted(self.at))


def test_a_threshold_on_the_queue_is_the_best_transfer_set():
    # every set of Q = 0..N + 1 at which to transfer, as lanes of one solve
    # per room: the best is an upper set {n, ..., N + 1} at every q.  The
    # list leaves out qge(N + 1), transfer only when the room is full and
    # another customer arrives; its worst cost per N is in README
    grid = tuple(round(0.01 * i, 10) for i in range(1, 100))
    worst = np.zeros(4)
    for N, tau, rho1, c_c in itertools.product(range(4), [(6, 15), (1, 3), (2, 15), (6, 1), (3, 3)],
                                               (0.1, 0.3, 0.7, 0.95), (1.0, 5.0, 15.0, 19.0)):
        model = QueueModel(N=N, profile=ResolutionProfile(tau, (rho1, 1.0)),
                           econ=EconomicParams(r=20.0, c_w=0.0, c_c=c_c, tau_w=1), q=0.5)
        sets = [frozenset(Q for Q in range(N + 2) if bits >> Q & 1) for bits in range(2 ** (N + 2))]
        profit = _evaluate_on_grid(model, [_TransferSet(at) for at in sets], grid)[2][..., 0]
        upper = profit[[sets.index(frozenset(range(n, N + 2))) for n in range(N + 3)]].max(0)
        case = (N, tau, rho1, c_c)
        assert np.all(profit.max(0) <= upper * (1.0 + 1e-13)), case
        listed = [sets.index(frozenset(Q for Q in range(N + 2) if pol.transfers(Q)))
                  for pol in admissible_queue_policies(model)]
        cost = 1.0 - profit[listed].max(0) / upper
        worst[N] = max(worst[N], cost.max())
        if case == (0, (1, 3), 0.3, 15.0):
            assert cost.max() > 0.10
    assert np.array_equal(np.round(100.0 * worst, 2), [11.27, 1.95, 0.62, 0.31]), worst


def test_large_room_matches_dense_lu():
    # n = 2,501, the largest room tested where the dense route still fits
    model = dataclasses.replace(default_queue_model(N=40, q=0.02),
                                profile=ResolutionProfile((30, 30), (0.7, 1.0)))
    pol = QueuePolicy.when_queue_at_least(20)
    got = _rates(evaluate_queue_policy(model, pol))
    assert np.abs(got - dense_rates(model, pol)).max() <= 1e-11


class TestQueueSimulator:
    def test_deterministic_in_seed(self):
        model = default_queue_model(N=3, q=0.4)
        a = simulate_queue(model, QueuePolicy.when_queue_at_least(2), 20_000, seed=9)
        b = simulate_queue(model, QueuePolicy.when_queue_at_least(2), 20_000, seed=9)
        assert a == b

    def test_three_sigma_agreement(self):
        for seed, (q, label) in enumerate([(0.3, "never"), (0.55, "qge2"), (0.8, "always"),
                                           (0.95, "qge1"), (0.5, "qge3")]):
            model = default_queue_model(N=3 if label != "qge3" else 4, q=q)
            pol = queue_policy_from_label(label)
            analytic = evaluate_queue_policy(model, pol).profit
            rep = simulate_queue(model, pol, 400_000, seed=seed)
            assert abs(rep.mean - analytic) <= 3.5 * rep.se

    def test_no_blocking_without_a_full_room(self):
        model = default_queue_model(N=6, q=0.2)
        rep = simulate_queue(model, QueuePolicy.always(), 50_000, seed=3)
        if rep.counts["max_queue"] < model.N:
            assert rep.counts["blocked"] == 0

    def test_counts_partition_arrivals(self):
        model = default_queue_model(N=4, q=0.7)
        rep = simulate_queue(model, QueuePolicy.when_queue_at_least(2), 30_000, seed=11)
        assert rep.counts["admitted"] + rep.counts["blocked"] == rep.counts["arrivals"]
