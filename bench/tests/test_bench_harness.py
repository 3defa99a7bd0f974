"""Self-tests of the benchmark harness: configs, failure counting, spans, gates."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from gatekeeper.cli import main as cli_main  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_maps_to_config_deterministically(workload):
    assert workloads.build_config(workload, 7) == workloads.build_config(workload, 7)
    assert workloads.build_config(workload, 7) != workloads.build_config(workload, 8)


def test_default_seed_gives_canonical_configs():
    seed = workloads.DEFAULT_SEED
    study = workloads.build_config("study", seed)
    assert study == {"generator": {"seed": 0}, "n_instances": 300, "S_list": [3, 4, 5]}

    design = workloads.build_config("design", seed)
    assert design["scenario"] == "high-base-slow/mid"
    assert design["market"]["lam"] == 0.9 and design["wage"] == 0.9
    assert design["bot"]["a_bot"] == 0.00005 and design["bot"]["b_bot"] == 3.0
    assert workloads.count_items("design", design) == 850

    queue = workloads.build_config("queue-sweep", seed)
    assert queue["queue"] == {"N": 6, "tau": [6, 15], "rho": [0.7, 1.0], "r": 20.0, "c_c": 5.0}
    assert workloads.count_items("queue-sweep", queue) == 800

    sim = workloads.build_config("simulate", seed)
    kinds = ["instance" if "instance" in t else "queue" for t in sim["targets"]]
    assert kinds.count("instance") == 16 and kinds.count("queue") == 4
    assert workloads.count_items("simulate", sim) == 20 * workloads.SIM_HORIZON


def test_seed_keeps_the_work_per_call_fixed():
    for seed in (1, 2, 3):
        design = workloads.build_config("design", seed)
        assert design["market"] == workloads.build_config("design", 0)["market"]
        assert workloads.build_config("queue-sweep", seed)["queue"]["N"] == workloads.QUEUE_N


def _write_design_csv(out_dir: Path, converged: list[int]) -> None:
    lines = ["# seed=0", "k,policy,p_succ,profit,q_agent,q_bot,share_agent,share_bot,share_balk,converged"]
    lines += [f"1,T1,0,1.0,0.5,0,0.5,0,0.5,{c}" for c in converged]
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "design.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_failed_frac_counts_an_unconverged_row(tmp_path):
    _write_design_csv(tmp_path, [1, 0, 1])
    assert workloads.count_failed("design", tmp_path) == 1

    fake = run.Run("design", 0, 1.0, trace=False)
    fake.samples = [
        {"mode": "probe", "setup_s": 0.3, "setup_slowdown": 1.0},
        {"mode": "call", "setup_s": 0.3, "setup_slowdown": 1.5, "slowdown": 1.5, "items": 3, "call_s": 1.0, "exit_code": 0,
         "peak_rss_mb": 40.0, "failed_items": workloads.count_failed("design", tmp_path),
         "gates": []},
    ]
    line, record = run.summarize(fake)
    assert record["failed_frac"] == pytest.approx(1 / 3)
    assert line["attempted"] == 3 and line["failed"] == 0 and line["correct"]
    # Times are reported at reference speed: divided by the measured slowdown.
    assert line["metrics"]["items_per_s"]["value"] == pytest.approx(4.5)
    assert line["metrics"]["setup_s"]["value"] == pytest.approx(0.25)


def _span(sid, parent, name, start, end):
    return spans.Span(sid, parent, name, start, end)


def test_self_time_subtracts_children_on_nested_spans():
    tree = [
        _span(0, -1, "cli", 0.0, 10.0),
        _span(1, 0, "market.solve_equilibrium", 1.0, 4.0),
        _span(2, 1, "evaluate.evaluate_policy", 2.0, 3.0),
        _span(3, 0, "market.solve_equilibrium", 5.0, 6.0),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})
    m = spans.layer_metrics(tree)
    assert m["cli.self_s"] == pytest.approx(6.0)
    assert m["market.solve_equilibrium.self_s"] == pytest.approx(3.0)
    assert m["trace.layers_s"] == pytest.approx(4.0)


def test_recorder_links_parents_and_restores_functions():
    rec = spans.Recorder("test")
    inner = rec.wrap("evaluate.build_chain", lambda x: x + 1)
    outer = rec.wrap("evaluate.evaluate_policy", lambda x: inner(x) * 2)
    assert rec.call_root(outer, 1) == 4
    by_name = {s.name: s for s in rec.finished()}
    assert by_name["cli"].parent == -1
    assert by_name["evaluate.evaluate_policy"].parent == by_name["cli"].sid
    assert by_name["evaluate.build_chain"].parent == by_name["evaluate.evaluate_policy"].sid

    import gatekeeper.market as market

    original = market.evaluate_policy
    rec.install()
    assert market.evaluate_policy is not original
    rec.uninstall()
    assert market.evaluate_policy is original


def _copy_expected(tmp_path: Path, name: str) -> Path:
    out = tmp_path / "out"
    out.mkdir()
    shutil.copy(BENCH / "expected" / name, out / name)
    return out


def _failing(gates):
    return {g.name: g.detail for g in gates if not g.ok}


def test_queue_gates_pass_on_recorded_csv_and_trip_on_a_wrong_value(tmp_path):
    config = workloads.build_config("queue-sweep", workloads.DEFAULT_SEED)
    out = _copy_expected(tmp_path, "sweep.csv")
    assert _failing(workloads.check_outputs("queue-sweep", config, 0, out)) == {}

    path = out / "sweep.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("always,0.5,"))
    cells = lines[row].split(",")
    cells[2] = repr(float(cells[2]) + 1e-6)
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    bad = _failing(workloads.check_outputs("queue-sweep", config, 0, out))
    assert set(bad) == {"queue.profit_rates", "queue.recorded_profit"}
    assert "always q=0.5" in bad["queue.profit_rates"]


def _small_design(tmp_path: Path) -> tuple[dict, Path]:
    """A 1-agent design run (26 cells) and its output directory."""
    config = workloads.build_config("design", workloads.DEFAULT_SEED)
    config["market"].update(k_max=1, p_grid=[0.3])
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    assert cli_main(["design", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert _failing(workloads.check_outputs("design", config, 5, out)) == {}
    return config, out


def _edit_design_row(out: Path, pick, column: int, delta: float) -> str:
    """Add `delta` to one column of the first row `pick` accepts; returns that row."""
    path = out / "design.csv"
    text = path.read_text(encoding="utf-8").splitlines()
    row = next(i for i, line in enumerate(text) if not line.startswith(("#", "k,")) and pick(line))
    cells = text[row].split(",")
    cells[column] = repr(float(cells[column]) + delta)
    text[row] = ",".join(cells)
    path.write_text("\n".join(text) + "\n", encoding="utf-8")
    return text[row]


def test_design_fixed_point_gate_trips_on_a_wrong_q(tmp_path):
    config, out = _small_design(tmp_path)
    _edit_design_row(out, lambda line: line.startswith("1,T1,0,"), 4, 1e-3)
    bad = _failing(workloads.check_outputs("design", config, 5, out))
    assert list(bad) == ["design.fixed_point"]
    assert "k=1 T1" in bad["design.fixed_point"]


def test_design_best_profit_gate_trips_on_a_wrong_profit(tmp_path):
    config, out = _small_design(tmp_path)
    # Rows are ranked by profit, so the first data row is the best cell.
    best = _edit_design_row(out, lambda line: True, 3, 1e-6)
    bad = _failing(workloads.check_outputs("design", config, 5, out))
    assert list(bad) == ["design.best_profit"]
    k, policy = best.split(",")[:2]
    assert f"best cell k={k} {policy or '-'}" in bad["design.best_profit"]
    assert "profit" in bad["design.best_profit"]


def test_benchmark_json_lists_the_harness_metrics():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "study", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert not (tmp_path / ".bench_results").exists()
