"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All tolerances are pinned here.  Criteria that depend on unrecoverable
calibration inputs are asserted in their property/qualitative form; reference
values from the original study are printed alongside where relevant.
Run with `pytest tests/test_acceptance.py -v -s`.
"""
import itertools
import time
from dataclasses import replace

import numpy as np

import gatekeeper as gk
from gatekeeper.evaluate import I0, I1, W0, W1, average_reward_batch, block_terms
from gatekeeper.model import rng_stream
from gatekeeper.solve import policy_grid
from gatekeeper.structure import _study_gaps

from conftest import random_instance, random_policy


def report(name: str, passed: bool, detail: str, t0: float) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {name}: {verdict} ({detail}) [{time.time() - t0:.1f}s]")
    assert passed, f"{name}: {detail}"


def pairs(n, seed0, s_choices=(1, 2, 3, 4, 5)):
    for i in range(n):
        S = s_choices[i % len(s_choices)]
        inst = random_instance(seed0 + i, S)
        yield inst, random_policy(seed0 + i, S)


def test_criterion_01_bias_identities():
    t0 = time.time()
    worst = 0.0
    for inst, pol in pairs(1000, 10_000):
        ev = gk.evaluate_policy(inst, pol)
        q, a = inst.traffic.q, inst.traffic.a
        worst = max(
            worst,
            abs(ev.G[I1] - ev.G[I0] - ev.R / q),
            abs(ev.G[W1] - ev.G[W0] - ev.R / a),
        )
    report("1 bias identities", worst <= 1e-9, f"1000 pairs, max deviation {worst:.2e}", t0)


def test_criterion_02_warm_cold_equivalence():
    t0 = time.time()
    tol = 1e-9
    checked = disagreements = 0
    for inst, pol in pairs(1000, 20_000):
        ev = gk.evaluate_policy(inst, pol)
        th = gk.compute_thresholds(inst)
        savings = inst.econ.c_c - inst.econ.c_w
        for Q in (0, 1):
            for A in (0, 1):
                bias_margin = ev.G[I1 if Q else I0] - ev.G[W1 if A else W0] - savings
                thr_margin = ev.R - th.value(Q, A)
                if abs(bias_margin) <= tol and abs(thr_margin) <= tol:
                    continue  # indeterminate at tolerance on both sides
                checked += 1
                if (bias_margin >= -tol) != (thr_margin >= -tol):
                    disagreements += 1
    report(
        "2 warm/cold equivalence",
        disagreements == 0,
        f"1000 pairs, {checked} state comparisons, {disagreements} disagreements",
        t0,
    )


def test_criterion_03_oracle_optimality():
    t0 = time.time()
    worst = 0.0
    structural = True
    table_letters = {r.letters for r in gk.rules_table().values()}
    for i in range(500):
        inst = random_instance(30_000 + i, 2 + i % 2)
        _, ev = gk.solve_average_reward(inst)
        ranked = gk.enumerate_policies(inst, ruleset="all-81")
        best_pol, best_r = ranked[0]
        worst = max(worst, abs(ev.R - best_r) / max(1.0, abs(best_r)))
        for rule in best_pol.rules:
            if not gk.dominance_admissible(rule) or rule.letters not in table_letters:
                structural = False
    report(
        "3 oracle optimality",
        worst <= 1e-9 and structural,
        f"500 instances, max rel gap {worst:.2e}, dominance respected: {structural}",
        t0,
    )


def test_criterion_04_stationarity():
    t0 = time.time()
    stationary_ok = 0
    zero_violations = 0
    n = 100
    for S in range(2, 6):   # one backward_induction call per S, both terminal kinds as lanes
        insts = [random_instance(40_000 + i, S) for i in range(n) if 2 + i % 4 == S]
        evs = [gk.solve_average_reward(inst)[1] for inst in insts]
        sols = gk.backward_induction(insts * 2, 200, [gk.stationary_terminals(ev) for ev in evs]
                                     + [gk.zero_terminals(inst) for inst in insts])
        oks = [gk.verify_stationarity(sol)[0] for sol in sols]
        stationary_ok += sum(oks[:len(insts)])
        zero_violations += len(insts) - sum(oks[len(insts):])
    report(
        "4 stationarity",
        stationary_ok == n and zero_violations >= n // 2,
        f"matched terminals stationary {stationary_ok}/{n}; "
        f"zero terminals violated {zero_violations}/{n}",
        t0,
    )


def test_criterion_05_transfer_mode_structure():
    t0 = time.time()
    mode_ok = True
    admissible_ok = True
    for i in range(500):
        inst = random_instance(30_000 + i, 2 + i % 2)  # same family as criterion 3
        pol, ev = gk.solve_average_reward(inst)
        cls = gk.classify_case(inst, ev.R)
        used = set()
        for rule in pol.rules:
            used.add(rule.letters)
            for qa, (qf, af) in enumerate(gk.CONGESTION_STATES):
                act = rule.actions[qa]
                if act is gk.Action.WARM and cls.mode(qf, af) != "warm":
                    mode_ok = False
                if act is gk.Action.COLD and cls.mode(qf, af) != "cold":
                    mode_ok = False
        admissible_letters = {gk.rules_table()[lbl].letters for lbl in cls.admissible}
        if len(used) > 4 or not used <= admissible_letters:
            admissible_ok = False
    report(
        "5 transfer-mode structure",
        mode_ok and admissible_ok,
        f"500 instances; modes match classification: {mode_ok}; "
        f"rules within admissible sets: {admissible_ok}",
        t0,
    )


def wspt_certified(chunk=6_000):
    """Instances that `check_wspt` certifies, in seed order: seed 60_000 + i
    at S = 3 + i % 3, each chunk of seeds drawn as one block per S."""
    for start in range(0, 300_000, chunk):
        blocks = [gk.generate_block(gk.GeneratorConfig(seed=0, S=3 + k),
                                    range(60_000 + start + k, 60_000 + start + chunk, 3))
                  for k in range(3)]
        holds = [gk.check_wspt_block(b).holds for b in blocks]
        for i in range(chunk):
            if holds[i % 3][i // 3]:
                yield blocks[i % 3].instance(i // 3)


def test_criterion_06_wspt_certificate():
    t0 = time.time()
    target = 500
    found = 0
    worst = 0.0
    for inst in itertools.islice(wspt_certified(), target):
        found += 1
        _, table1_acts = policy_grid(list(gk.rules_table().values()), inst.S)
        r_opt = float(average_reward_batch(inst, table1_acts).max())
        _, r_thr = gk.search_threshold_policies(inst)
        worst = max(worst, (r_opt - r_thr) / max(1.0, r_opt))
    report(
        "6 threshold-optimality certificate",
        found >= target and worst <= 1e-9,
        f"{found} certified instances, max rel gap {worst:.2e}",
        t0,
    )


def test_criterion_07_heuristic_study():
    t0 = time.time()
    reference = {3: (97.46, 0.005, 1.888), 4: (96.58, 0.006, 1.818), 5: (96.02, 0.006, 1.634)}
    cfg = gk.GeneratorConfig(seed=70_000)
    study = gk.run_heuristic_study(cfg, 10_000, [3, 4, 5])
    ok = True
    lines = []
    for row in study.rows:
        ref = reference[row.S]
        ok &= row.frac_threshold_opt >= 0.90
        ok &= row.mean_gap_pct <= 0.5
        # The worst-case clause bounds the share of instances above 5 %, not the
        # sample maximum.  No threshold policy can express every optimum (seed
        # 77010 at S=3 is a chain-verified 6.457 % gap, pinned in
        # test_structure.py), and in the generator box the gap reaches at least
        # 12.92 % (also pinned there), so a maximum over 10,000 draws only says
        # whether the block holds one of the rare bad draws: 2 of S=3 seeds
        # 0-199,999 exceed 5 %.
        # The 0.1 % level sits far above that rate and far below what broken
        # searches give on this S=3 block: 26 above 5 % with one index shared by
        # all states, 926 without never-transfer, 1,238 without warm and 4,668
        # without cold transfers (measured by restricting the search grid).
        above, worst = 0, "-"
        if row.max_gap_pct > 5.0:
            seeds = range(row.seed_lo, row.seed_hi + 1)
            block = gk.generate_block(replace(cfg, S=row.S), seeds)
            gaps = dict(zip(seeds, (100.0 * _study_gaps(block_terms(*block))).tolist()))
            worst_seed = max(gaps, key=gaps.get)
            ok &= gaps[worst_seed] == row.max_gap_pct
            above = sum(g > 5.0 for g in gaps.values())
            worst = f"seed {worst_seed}"
        ok &= above <= 0.001 * row.n_instances
        lines.append(
            f"S={row.S}: {100 * row.frac_threshold_opt:.2f}% threshold-optimal "
            f"(reference {ref[0]}%), mean gap {row.mean_gap_pct:.4f}% (ref {ref[1]}%), "
            f"max gap {row.max_gap_pct:.3f}% (ref {ref[2]}%, worst {worst}), "
            f"{above}/{row.n_instances} above 5%"
        )
    report("7 heuristic study", ok, "; ".join(lines), t0)


def test_criterion_08_waiting_room():
    t0 = time.time()
    grid = [round(0.01 * i, 2) for i in range(1, 101)]
    model = gk.default_queue_model(N=6)

    # stationary residual
    ev = gk.evaluate_queue_policy(replace(model, q=0.37), gk.QueuePolicy.when_queue_at_least(3))
    residual_ok = abs(ev.pi.sum() - 1.0) <= 1e-12 and np.all(ev.pi >= -1e-14)

    sat = replace(model, q=0.999)
    always = gk.evaluate_queue_policy(sat, gk.QueuePolicy.always()).profit
    never = gk.evaluate_queue_policy(sat, gk.QueuePolicy.never()).profit
    e_always = (20 - 0.3 * 5) / 6
    e_never = 20 / (6 + 0.3 * 15)
    saturation_ok = abs(always - e_always) / e_always < 0.01 and abs(never - e_never) / e_never < 0.01

    sweep = gk.sweep_queue_policies(model, grid)
    diff = sweep.profit_for("always") - sweep.profit_for("never")
    crossing_ok = diff[0] < 0 < diff[-1]

    averages = sweep.profit.mean(axis=1)
    halffull_ok = sweep.profit_for("qge3").mean() >= 0.98 * averages.max()

    sweep0 = gk.sweep_queue_policies(replace(model, N=0), grid)
    room_ok = bool(np.all(sweep.profit.max(axis=0) >= sweep0.profit.max(axis=0) - 1e-12))

    ok = residual_ok and saturation_ok and crossing_ok and halffull_ok and room_ok
    report(
        "8 waiting room",
        ok,
        f"residual {residual_ok}, saturation {saturation_ok} "
        f"(always {always:.4f}/{e_always:.4f}, never {never:.4f}/{e_never:.4f}), "
        f"crossing {crossing_ok}, half-full-within-2% {halffull_ok}, room helps {room_ok}",
        t0,
    )


def test_criterion_09_simulation_coverage():
    t0 = time.time()
    channel_targets = []
    for i in range(100):
        S = 1 + i % 4
        channel_targets.append((random_instance(80_000 + i, S), random_policy(80_000 + i, S)))
    channel = gk.cross_validate(channel_targets, horizon=1_000_000, seed=81_000)
    n_channel = sum(r.passed for r in channel)

    rng = rng_stream(82_000)
    queue_targets = []
    for i in range(20):
        N = int(rng.integers(0, 7))
        model = replace(gk.default_queue_model(N=N), q=float(rng.uniform(0.05, 0.999)))
        pols = gk.admissible_queue_policies(model)
        queue_targets.append((model, pols[int(rng.integers(0, len(pols)))]))
    queue = gk.cross_validate(queue_targets, horizon=1_000_000, seed=82_001)
    n_queue = sum(r.passed for r in queue)

    report(
        "9 simulation coverage",
        n_channel >= 99 and n_queue >= 19,
        f"channel {n_channel}/100 within 3 sigma, queue {n_queue}/20 within 3 sigma",
        t0,
    )


def test_criterion_10_design_layer():
    t0 = time.time()
    market = gk.MarketParams()
    prefs = gk.CustomerPrefs()

    # the fixed point reads neither the wage nor the training-cost curve:
    # one solve, priced once per scenario
    scenarios = gk.default_scenario_grid()
    tau_bot, = {sc.bot_curve.tau_bot for sc in scenarios}
    grid = gk.solve_designs(gk.default_design_instance(), gk.design_points(market),
                            market, prefs, tau_bot)

    archs = set()
    p_star = {}
    searches = {}
    for sc in scenarios:
        search = grid.price(sc.wage, sc.bot_curve)
        searches[sc.name] = search
        best = search.best
        if best.design.k_agent == 0:
            archs.add("bot-only")
        elif best.design.p_succ == 0.0:
            archs.add("agent-only")
        else:
            archs.add("hybrid")
        p_star[sc.name] = best.design.p_succ
    coverage_ok = archs == {"bot-only", "agent-only", "hybrid"}

    wage_ok = True
    for curve in ("low-base-slow", "high-base-slow", "low-base-fast", "high-base-fast"):
        ps = [p_star[f"{curve}/{w}"] for w in ("low", "mid", "high")]
        wage_ok &= ps[0] <= ps[1] + 1e-12 and ps[1] <= ps[2] + 1e-12

    # the mid-wage, steep-curve scenario: bot then quality policy, at the
    # staffing level that is optimal without a bot under the always-cold rule
    mid = searches["low-base-fast/mid"]
    nobot_t5 = [r for r in mid.results
                if r.design.p_succ == 0.0 and r.design.k_agent > 0 and r.design.policy == "T5"]
    k0 = max(nobot_t5, key=lambda r: r.profit).design.k_agent
    base = next(r.profit for r in nobot_t5 if r.design.k_agent == k0)
    t5_best = max(r.profit for r in mid.results
                  if r.design.k_agent == k0 and r.design.policy == "T5")
    c_best = max(r.profit for r in mid.results
                 if r.design.k_agent == k0 and r.design.policy == "C")
    narrative_ok = t5_best > base and c_best > t5_best

    hybrid_p = []
    for k in (1, 2, 3):
        cells = [r for r in mid.results if r.design.k_agent == k and r.design.p_succ > 0]
        hybrid_p.append(max(cells, key=lambda r: r.profit).design.p_succ)
    stability_ok = max(hybrid_p) - min(hybrid_p) <= 0.10 + 1e-12

    ok = coverage_ok and wage_ok and narrative_ok and stability_ok
    report(
        "10 design layer",
        ok,
        f"architectures {sorted(archs)}; p* wage-monotone {wage_ok}; "
        f"bot-then-quality narrative at k0={k0}: {base:.3f} -> {t5_best:.3f} -> {c_best:.3f} "
        f"({narrative_ok}); hybrid p* across k=1..3 {hybrid_p} ({stability_ok})",
        t0,
    )
