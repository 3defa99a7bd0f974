"""The four benchmark workloads: seed -> CLI config, item counts and output gates.

Each workload is one closed call of one `gatekeeper` subcommand with the CLI
defaults (`--jobs 1`).  The config is derived from the workload seed alone;
DEFAULT_SEED gives the canonical config of each experiment.  Gates read the
CSVs the call wrote and re-check them through routes the call did not take,
outside the timed region.

Everything here imports `gatekeeper` lazily, so the module loads without it.
"""
from __future__ import annotations

import csv
import itertools
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
WORKLOADS = ("study", "design", "simulate", "queue-sweep")
SUBCOMMAND = {
    "study": "threshold-study",
    "design": "design",
    "simulate": "simulate",
    "queue-sweep": "queue-sweep",
}
OUTPUT_CSV = {
    "study": "study.csv",
    "design": "design.csv",
    "simulate": "sim.csv",
    "queue-sweep": "sweep.csv",
}
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

# Sizes: one call of each workload takes a few seconds on a 2-core x86 box
# (design ~10 s), so a run of BENCHMARK.json's run_seconds holds several calls.
STUDY_N = 300
STUDY_S = (3, 4, 5)
DESIGN_LAM = 0.9
DESIGN_K_MAX = 7
DESIGN_P_GRID = tuple(round(0.1 * i, 1) for i in range(1, 10))
DESIGN_SCENARIO = "high-base-slow/mid"
SIM_HORIZON = 250_000
SIM_CHANNEL_TARGETS = 16
SIM_QUEUE_TARGETS = 4
QUEUE_N = 6
QUEUE_GRID = {"start": 0.01, "stop": 1.0, "step": 0.01}

STUDY_VALUES = ("frac_threshold_opt", "mean_gap_pct", "max_gap_pct")
STUDY_SAMPLE = 3     # instances per S re-evaluated by the chain route
TOL = 1e-9           # agreement required between independent routes
FP_TOL = 1e-6        # the design fixed point's stopping tolerance
Q_FLOOR = 1e-6       # the design fixed point clips q to [Q_FLOOR, 1]
SIGMA_GATE = 5.0


@dataclass(frozen=True)
class Gate:
    """Outcome of one output check; `detail` names the value checked."""

    name: str
    ok: bool
    detail: str


# ---------------------------------------------------------------------------
# Seed -> config.
# ---------------------------------------------------------------------------

def build_config(workload: str, seed: int) -> dict:
    """The CLI config of `workload` at `seed`; deterministic in both."""
    make = {
        "study": _study_config,
        "design": _design_config,
        "simulate": _simulate_config,
        "queue-sweep": _queue_config,
    }
    if workload not in make:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return make[workload](seed)


def _study_config(seed: int) -> dict:
    # The seed is the generator seed; S blocks take consecutive seeds from it.
    return {"generator": {"seed": seed}, "n_instances": STUDY_N, "S_list": list(STUDY_S)}


def _design_config(seed: int) -> dict:
    # The demand fixed point depends on neither the bot's cost curve nor the
    # wage, so the seed picks among the twelve scenarios and scales the wage:
    # profits and the best cell change, the iteration counts do not.  lambda
    # stays at 0.9: a 0.1 % change of lambda moved the unconverged cells (and
    # the work of a call) between 16 and 24.
    from gatekeeper.market import default_scenario_grid

    scenarios = {s.name: s for s in default_scenario_grid()}
    if seed == DEFAULT_SEED:
        scenario, wage = scenarios[DESIGN_SCENARIO], scenarios[DESIGN_SCENARIO].wage
    else:
        rng = random.Random(seed)
        scenario = scenarios[rng.choice(sorted(scenarios))]
        wage = scenario.wage * rng.uniform(0.9, 1.1)
    bot = scenario.bot_curve
    return {
        "scenario": scenario.name,
        "market": {"lam": DESIGN_LAM, "k_max": DESIGN_K_MAX, "p_grid": list(DESIGN_P_GRID)},
        "bot": {"tau_bot": bot.tau_bot, "a_bot": bot.a_bot, "b_bot": bot.b_bot},
        "wage": wage,
    }


def _simulate_config(seed: int) -> dict:
    from gatekeeper.model import GeneratorConfig, generate_instance, rules_table

    rng = random.Random(seed)
    rules = sorted(rules_table())
    targets = []
    for i in range(SIM_CHANNEL_TARGETS):
        S = 1 + i % 4
        inst = generate_instance(GeneratorConfig(seed=rng.randrange(2**32), S=S))
        targets.append({
            "instance": inst.to_json_dict(),
            "policy": [rng.choice(rules) for _ in range(S - 1)],
        })
    for _ in range(SIM_QUEUE_TARGETS):
        N = rng.randrange(7)
        policy = rng.choice(["never", "always"] + [f"qge{n}" for n in range(1, N + 1)])
        targets.append({"queue": {"N": N, "q": rng.uniform(0.2, 0.9)}, "policy": policy})
    return {"horizon": SIM_HORIZON, "seed": rng.randrange(2**32), "targets": targets}


def _queue_config(seed: int) -> dict:
    # The seed moves rho_1, r and c_c; N and tau, hence the chain size, stay.
    if seed == DEFAULT_SEED:
        rho1, r, c_c = 0.7, 20.0, 5.0
    else:
        rng = random.Random(seed)
        rho1, r, c_c = rng.uniform(0.6, 0.8), rng.uniform(16.0, 24.0), rng.uniform(3.0, 7.0)
    return {
        "queue": {"N": QUEUE_N, "tau": [6, 15], "rho": [rho1, 1.0], "r": r, "c_c": c_c},
        "q_grid": dict(QUEUE_GRID),
    }


# ---------------------------------------------------------------------------
# Item counts.
# ---------------------------------------------------------------------------

def _q_grid(config: dict) -> list[float]:
    g = config["q_grid"]
    n = int(round((g["stop"] - g["start"]) / g["step"])) + 1
    return [round(g["start"] + i * g["step"], 10) for i in range(n)]


def count_items(workload: str, config: dict) -> int:
    """Items one call finishes: instances, design cells, periods or chain solves."""
    if workload == "study":
        return config["n_instances"] * len(config["S_list"])
    if workload == "design":
        from gatekeeper.model import rules_table

        m = config["market"]
        p_values = 1 + sum(1 for p in m["p_grid"] if p > 0)
        return (1 + m["k_max"] * (len(rules_table()) + 1)) * p_values
    if workload == "simulate":
        return config["horizon"] * len(config["targets"])
    if workload == "queue-sweep":
        return (config["queue"]["N"] + 2) * len(_q_grid(config))
    raise ValueError(f"unknown workload {workload!r}")


def read_csv(path: Path) -> list[dict]:
    """Data rows of a CLI CSV, skipping its '#' comment lines."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def count_failed(workload: str, out_dir: Path) -> int:
    """Items of a successful call that did not finish: unconverged design cells."""
    if workload != "design":
        return 0
    return sum(1 for row in read_csv(out_dir / OUTPUT_CSV["design"]) if row["converged"] != "1")


def count_rows(out_dir: Path) -> int:
    """Data rows in every CSV the call wrote."""
    return sum(len(read_csv(p)) for p in sorted(out_dir.glob("*.csv")))


def count_sim_misses(out_dir: Path) -> int:
    """Targets outside 3 sigma; a statistical event, not a failure."""
    path = out_dir / OUTPUT_CSV["simulate"]
    return sum(1 for row in read_csv(path) if row["pass_3sigma"] != "1") if path.exists() else 0


# ---------------------------------------------------------------------------
# Gates.
# ---------------------------------------------------------------------------

def check_outputs(workload: str, config: dict, seed: int, out_dir: Path) -> list[Gate]:
    """Every gate of `workload` on the CSV the call wrote into `out_dir`."""
    path = out_dir / OUTPUT_CSV[workload]
    if not path.exists():
        return [Gate(f"{workload}.output", False, f"{path.name} missing")]
    rows = read_csv(path)
    gates = [_expect(f"{workload}.rows", len(rows), _expected_rows(workload, config))]
    checks = {
        "study": _check_study,
        "design": _check_design,
        "simulate": _check_simulate,
        "queue-sweep": _check_queue,
    }
    return gates + checks[workload](config, seed, rows)


def _expected_rows(workload: str, config: dict) -> int:
    if workload == "study":
        return len(config["S_list"])
    if workload == "simulate":
        return len(config["targets"])
    return count_items(workload, config)


def _expect(name: str, got, want) -> Gate:
    return Gate(name, got == want, f"got {got}, expected {want}")


def _close(name: str, got: float, want: float, what: str, tol: float = TOL) -> Gate:
    err = abs(got - want)
    ok = err <= tol * max(1.0, abs(want))
    return Gate(name, ok, f"{what}: {got!r} vs {want!r}, |diff| {err:.3e}, tol {tol:g}")


def _worst(name: str, pairs, tol: float = TOL) -> Gate:
    """One gate over (what, got, want) triples: passes iff every pair agrees."""
    worst = None
    for what, got, want in pairs:
        gate = _close(name, got, want, what, tol)
        if not gate.ok:
            return gate
        err = abs(got - want) / max(1.0, abs(want))
        if worst is None or err > worst[0]:
            worst = (err, gate)
    if worst is None:
        return Gate(name, True, "nothing to check")
    return Gate(name, True, f"worst {worst[1].detail}")


def _check_study(config: dict, seed: int, rows: list[dict]) -> list[Gate]:
    import numpy as np

    from gatekeeper.evaluate import average_reward_batch, evaluate_policy
    from gatekeeper.model import (
        GeneratorConfig, StationaryPolicy, generate_instance, rules_table,
    )
    from gatekeeper.structure import search_threshold_policies

    gates = []
    n = config["n_instances"]
    base = config["generator"]["seed"]
    rules = list(rules_table().values())
    for si, S in enumerate(config["S_list"]):
        row = next((r for r in rows if int(r["S"]) == S), None)
        if row is None:
            gates.append(Gate(f"study.S{S}.row", False, "row missing"))
            continue
        lo = base + si * n
        gates.append(_expect(f"study.S{S}.seeds", (int(row["seed_lo"]), int(row["seed_hi"])),
                             (lo, lo + n - 1)))
        frac, mean, mx = (float(row[k]) for k in ("frac_threshold_opt", "mean_gap_pct", "max_gap_pct"))
        gates.append(Gate(f"study.S{S}.summary", 0.0 <= frac <= 1.0 and 0.0 <= mean <= mx,
                          f"frac {frac}, mean {mean}, max {mx}"))
        combos = list(itertools.product(rules, repeat=S - 1))
        acts = np.array([[[int(a) for a in r.actions] for r in c] for c in combos],
                        dtype=np.int8).reshape(len(combos), S - 1, 4)
        pairs, gaps = [], []
        for inst_seed in sorted({lo, lo + n // 2, lo + n - 1})[:STUDY_SAMPLE]:
            inst = generate_instance(GeneratorConfig(seed=inst_seed, S=S))
            R = average_reward_batch(inst, acts)
            best = int(np.argmax(R))
            r_opt = float(R[best])
            pol_opt = StationaryPolicy(tuple(combos[best]))
            pol_thr, r_thr = search_threshold_policies(inst)
            pairs.append((f"seed {inst_seed} table-1 optimum", evaluate_policy(inst, pol_opt).R, r_opt))
            pairs.append((f"seed {inst_seed} threshold optimum", evaluate_policy(inst, pol_thr).R, r_thr))
            gaps.append((inst_seed, max(0.0, (r_opt - r_thr) / r_opt)))
        gates.append(_worst(f"study.S{S}.chain_route", pairs))
        worst_seed, worst_gap = max(gaps, key=lambda g: g[1])
        gates.append(Gate(f"study.S{S}.max_gap", 100.0 * worst_gap <= mx * (1 + 1e-9) + 1e-12,
                          f"sampled gap {100.0 * worst_gap:.6g} % at seed {worst_seed}, "
                          f"max_gap_pct {mx}"))
    if seed == DEFAULT_SEED:
        want = read_csv(EXPECTED_DIR / "study.csv")
        keys = ("S", "n", "seed_lo", "seed_hi")
        got_keys, want_keys = [[tuple(r[k] for k in keys) for r in t] for t in (rows, want)]
        if got_keys != want_keys:
            gates.append(_expect("study.recorded_rows", got_keys, want_keys))
        else:
            # Printed to 12 significant digits; a reordered sum may move the last one.
            gates.append(_worst("study.recorded", [
                (f"S={w['S']} {col}", float(g[col]), float(w[col]))
                for g, w in zip(rows, want) for col in STUDY_VALUES
            ]))
    return gates


def _check_design(config: dict, seed: int, rows: list[dict]) -> list[Gate]:
    lam = config["market"]["lam"]
    pairs = []
    for row in rows:
        k = int(row["k"])
        if k == 0 or row["converged"] != "1":
            continue
        target = min(max(lam * float(row["share_agent"]) / k, Q_FLOOR), 1.0)
        pairs.append((f"cell k={k} {row['policy']} p={row['p_succ']} lam*share/k",
                      target, float(row["q_agent"])))
    best = max(rows, key=lambda r: float(r["profit"]))
    return [_worst("design.fixed_point", pairs, FP_TOL), _check_best_profit(config, best)]


def _check_best_profit(config: dict, best: dict) -> Gate:
    """Rebuild the best cell's profit from its row by routes the fixed point did not take.

    At the row's q the agent reward comes from the renewal route
    (`average_reward`), the bot's effective demand from the shares and the
    admission probability, and profit from its definition:
    k (R - wage) + q_bot (r - (1 - p) c_c) - a (100 p)^b.
    """
    from gatekeeper import market as mkt
    from gatekeeper.evaluate import average_reward, evaluate_policy
    from gatekeeper.model import uniform_policy
    from gatekeeper.solve import solve_average_reward

    k, label, p = int(best["k"]), best["policy"], float(best["p_succ"])
    name = "design.best_profit"
    cell = f"best cell k={k} {label or '-'} p={p}"
    if best["converged"] != "1":
        return Gate(name, False, f"{cell} did not converge")
    lam, wage, bot_spec = config["market"]["lam"], config["wage"], config["bot"]
    econ = mkt.default_design_instance(wage=wage).econ
    prefs = mkt.CustomerPrefs()
    bot = mkt.BotChannel(p_succ=p, **bot_spec) if p > 0 else None
    pairs = []
    agent_net = 0.0
    perf = None
    if k > 0:
        inst = mkt.default_design_instance(wage=wage).with_q(float(best["q_agent"]))
        policy = solve_average_reward(inst)[0] if label == "OPT" else uniform_policy(label, inst.S)
        agent_net = k * (average_reward(inst, policy) - wage)
        perf = evaluate_policy(inst, policy).perf
    shares = mkt.compute_demand_shares(perf, bot, prefs, perf.p_admit if perf else 0.0)
    pairs += [(f"{cell} share_agent", float(best["share_agent"]), shares.agent),
              (f"{cell} share_bot", float(best["share_bot"]), shares.bot_direct)]
    blocked = shares.agent * (1 - perf.p_admit) * shares.fallback_fraction if perf else 0.0
    q_bot = lam * (shares.bot_direct + blocked)
    pairs.append((f"{cell} q_bot", float(best["q_bot"]), q_bot))
    bot_net = 0.0
    if bot is not None:
        bot_net = q_bot * (econ.r - (1 - p) * econ.c_c) - bot.a_bot * (100.0 * p) ** bot.b_bot
    pairs.append((f"{cell} profit", float(best["profit"]), agent_net + bot_net))
    return _worst(name, pairs)


def _check_simulate(config: dict, seed: int, rows: list[dict]) -> list[Gate]:
    from gatekeeper.evaluate import average_reward
    from gatekeeper.model import instance_from_json, policy_from_names

    sigma = []
    for row in rows:
        dev = abs(float(row["analytic"]) - float(row["mean"]))
        se = float(row["se"])
        if dev > SIGMA_GATE * se:
            sigma.append(f"target {row['target']}: |analytic - mean| {dev:.3e} > "
                         f"{SIGMA_GATE:g} se ({se:.3e})")
    gates = [Gate("simulate.within_5sigma", not sigma,
                  "; ".join(sigma) if sigma else f"{len(rows)} targets within {SIGMA_GATE:g} sigma")]
    pairs = []
    for row, spec in zip(rows, config["targets"]):
        if "instance" in spec:
            inst = instance_from_json(spec["instance"])
            pairs.append((f"target {row['target']} renewal R",
                          float(row["analytic"]), average_reward(inst, policy_from_names(spec["policy"]))))
    gates.append(_worst("simulate.renewal_route", pairs))
    return gates


def _check_queue(config: dict, seed: int, rows: list[dict]) -> list[Gate]:
    spec = config["queue"]
    r, c_c = spec["r"], spec["c_c"]
    balance, profit = [], []
    for row in rows:
        q = float(row["q"])
        tput, trans, block = (float(row[k]) for k in ("throughput", "transfer_rate", "blocking_rate"))
        tag = f"{row['policy']} q={row['q']}"
        # Every arrival is admitted or blocked, and every admitted customer
        # ends in one resolution (reward r) or one transfer (reward r - c_c).
        balance.append((f"{tag} throughput + blocking", tput + block, q))
        profit.append((f"{tag} profit", float(row["profit"]), r * tput - c_c * trans))
    gates = [_worst("queue.arrival_balance", balance), _worst("queue.profit_rates", profit)]
    negative = [f"{row['policy']} q={row['q']}" for row in rows
                if min(float(row[k]) for k in ("throughput", "transfer_rate", "blocking_rate")) < 0]
    gates.append(Gate("queue.nonnegative_rates", not negative,
                      f"negative rates at {negative[:3]}" if negative else "all rates >= 0"))
    if seed == DEFAULT_SEED:
        want = read_csv(EXPECTED_DIR / "sweep.csv")
        if len(rows) != len(want):
            gates.append(_expect("queue.recorded_rows", len(rows), len(want)))
        else:
            gates.append(_worst("queue.recorded_profit", [
                (f"{w['policy']} q={w['q']}", float(g["profit"]), float(w["profit"]))
                for g, w in zip(rows, want)
            ]))
    return gates

