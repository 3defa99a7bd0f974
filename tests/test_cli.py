import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gatekeeper
from gatekeeper import waiting_room
from gatekeeper.artifacts import fmt
from gatekeeper.cli import EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, _load_queue_model, _q_grid, main


def write_config(tmp_path: Path, payload: dict, name="config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def valid_instance():
    return {
        "profile": {"S": 2, "tau": [6, 15], "rho": [0.7, 1.0]},
        "econ": {"r": 20.0, "c_w": 2.0, "c_c": 5.0, "tau_w": 3},
        "traffic": {"q": 0.5, "a": 0.8},
    }


def run_cli(tmp_path, sub, payload, *extra):
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    return main([sub, "--config", str(cfg), "--out", str(out), *extra]), out


def test_unknown_subcommand_exits_64(tmp_path, capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    assert "usage" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main([]) == EXIT_OK
    assert "subcommands" in capsys.readouterr().out


@pytest.mark.parametrize("args", [["solve", "-h"], ["wspt", "--config", "nope.json", "--help"],
                                  ["design", "--conf", "-h"]])
def test_help_after_a_subcommand_exits_zero_and_prints_usage(tmp_path, capsys, args):
    assert main([*args, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: gatekeeper SUBCOMMAND --config PATH")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args, message", [
    (["--out", "OUT"], "--config PATH is required"),
    (["--config", "CFG", "--frob", "1"], "unknown argument '--frob'"),
    (["--conf", "CFG"], "unknown argument '--conf'"),
    (["--config=CFG", "--out=OUT", "x=1"], "unknown argument 'x=1'"),
    (["--config", "CFG", "--out"], "--out needs a value"),
    (["--config", "CFG", "--set"], "--set needs a value"),
    (["--config", "CFG", "--seed", "abc"], "--seed must be an integer, got 'abc'"),
    (["--config", "CFG", "--seed=1.5"], "--seed must be an integer, got '1.5'"),
])
def test_malformed_command_line_exits_2_naming_the_flag(tmp_path, capsys, args, message):
    cfg = write_config(tmp_path, {"instance": valid_instance()})
    out = tmp_path / "out"
    args = [a.replace("CFG", str(cfg)).replace("OUT", str(out)) for a in args]
    assert main(["solve", *args]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("usage: gatekeeper") and f"error: {message}" in err
    assert not out.exists()


def test_flag_with_equals_gives_the_same_artifacts_as_flag_then_value(tmp_path):
    cfg = write_config(tmp_path, {"instance": valid_instance()})
    spaced, joined = tmp_path / "spaced", tmp_path / "joined"
    assert main(["solve", "--config", str(cfg), "--out", str(spaced), "--seed", "7",
                 "--set", "instance.traffic.q=0.3"]) == EXIT_OK
    assert main(["solve", f"--config={cfg}", f"--out={joined}", "--seed=7",
                 "--set=instance.traffic.q=0.3"]) == EXIT_OK
    names = sorted(p.name for p in spaced.iterdir())
    assert names == sorted(p.name for p in joined.iterdir())
    for name in names:
        assert (spaced / name).read_bytes() == (joined / name).read_bytes()


def test_set_overrides_apply_in_order_and_other_flags_take_the_last(tmp_path):
    cfg = write_config(tmp_path, {"instance": valid_instance()})

    def run(name, *extra):
        out = tmp_path / name
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x"), "--out", str(out),
                     *extra]) == EXIT_OK
        return {p.name: p.read_bytes() for p in out.iterdir()}

    once = run("once", "--set", "instance.traffic.q=0.9", "--seed", "7")
    twice = run("twice", "--set", "instance.traffic.q=0.1", "--set", "instance.traffic.q=0.9",
                "--seed", "3", "--seed", "7")
    swapped = run("swapped", "--set", "instance.traffic.q=0.9", "--set", "instance.traffic.q=0.1",
                  "--seed", "7")
    assert twice == once
    assert swapped["evaluation.csv"] != once["evaluation.csv"]
    assert not (tmp_path / "x").exists()


def test_missing_config_is_validation_failure(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.json")]) == EXIT_VALIDATION


def test_config_path_naming_a_directory_exits_2_naming_it(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the empty path reads as the working directory
    assert main(["solve", "--config", "", "--out", "out"]) == EXIT_VALIDATION
    assert "cannot read config file .: Is a directory" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(b"\xff\xfe")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert f"cannot read config file {cfg}: 'utf-8' codec can't decode" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_solve_happy_path(tmp_path):
    code, out = run_cli(tmp_path, "solve", {"instance": valid_instance()})
    assert code == EXIT_OK
    for name in ("policy.csv", "evaluation.csv", "classification.csv", "run_manifest.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["subcommand"] == "solve"
    assert "policy.csv" in manifest["outputs"]


def test_solve_rejects_invalid_instance_naming_field(tmp_path, capsys):
    bad = valid_instance()
    bad["profile"]["rho"] = [0.7, 0.9]
    code, _ = run_cli(tmp_path, "solve", {"instance": bad})
    assert code == EXIT_VALIDATION
    assert "rho[S] must equal 1" in capsys.readouterr().err


def test_unknown_config_key_exits_2_naming_it(tmp_path, capsys):
    misspelt_econ, extra_key = valid_instance(), valid_instance()
    misspelt_econ["econ"]["c_wgae"] = 0.5
    extra_key["foo"] = 1
    for sub, section, payload, key in (
        ("design", "market", {"market": {"lam": 0.9, "expert_rate": 3.5}}, "expert_rate"),
        ("design", "prefs", {"prefs": {"c_tme": 1.0}}, "c_tme"),
        ("design", "bot", {"bot": {"b_bott": 2.6}}, "b_bott"),
        ("threshold-study", "generator", {"generator": {"S": 2, "tau_rng": [1, 5]}}, "tau_rng"),
        ("queue-sweep", "queue", {"queue": {"N": 2, "tau1": 3}, "q_grid": [0.5]}, "tau1"),
        ("solve", "econ", {"instance": misspelt_econ}, "c_wgae"),
        ("solve", "instance", {"instance": extra_key}, "foo"),
        ("design", "bot", {"bot": {"p_succ": 0.7}}, "p_succ"),   # the grid sets p_succ
    ):
        code, _ = run_cli(tmp_path, sub, payload)
        assert code == EXIT_VALIDATION
        assert f"unknown key(s) under '{section}': {key}" in capsys.readouterr().err


def test_queue_first_attempt_probability_out_of_range_exits_2(tmp_path, capsys):
    queue = {"N": 2, "rho": [1.5, 1.0]}
    for sub, payload in (("queue-sweep", {"queue": queue, "q_grid": [0.5]}),
                         ("simulate", {"targets": [{"queue": queue, "policy": "never"}]})):
        code, _ = run_cli(tmp_path, sub, payload)
        assert code == EXIT_VALIDATION
        assert "rho[1] must lie in [0, 1]" in capsys.readouterr().err


def test_instance_missing_a_key_exits_2_naming_it(tmp_path, capsys):
    for section, key in (("instance", "econ"), ("econ", "c_w")):
        inst = valid_instance()
        del (inst if section == "instance" else inst[section])[key]
        code, _ = run_cli(tmp_path, "solve", {"instance": inst})
        assert code == EXIT_VALIDATION
        assert f"instance is missing key '{key}'" in capsys.readouterr().err


def test_config_section_that_is_no_object_exits_2_naming_it(tmp_path, capsys):
    econ_5 = valid_instance()
    econ_5["econ"] = 5
    for sub, section, payload in (
        ("threshold-study", "generator", {"generator": 5, "n_instances": 2}),
        ("queue-sweep", "queue", {"queue": 5, "q_grid": [0.5]}),
        ("queue-sweep", "q_grid", {"queue": {"N": 2}, "q_grid": 5}),
        ("simulate", "queue", {"targets": [{"queue": 5, "policy": "never"}]}),
        ("design", "market", {"market": 5}),
        ("solve", "econ", {"instance": econ_5}),
        ("solve", "instance", {"instance": 5}),
    ):
        code, _ = run_cli(tmp_path, sub, payload)
        assert code == EXIT_VALIDATION
        assert f"'{section}' must be a JSON object, got 5" in capsys.readouterr().err
    code, _ = run_cli(tmp_path, "solve", [valid_instance()])
    assert code == EXIT_VALIDATION
    assert "the config must be a JSON object" in capsys.readouterr().err


def test_non_integral_size_exits_2_naming_it(tmp_path, capsys):
    tau_w, tau = valid_instance(), valid_instance()
    tau_w["econ"]["tau_w"] = 2.7
    tau["profile"]["tau"] = [6, 2.7]
    for sub, key, payload in (
        ("queue-sweep", "N", {"queue": {"N": 2.7}, "q_grid": [0.5]}),
        ("queue-sweep", "tau", {"queue": {"tau": [6, 2.7]}, "q_grid": [0.5]}),
        ("simulate", "N", {"targets": [{"queue": {"N": 2.7}, "policy": "never"}]}),
        ("solve", "tau_w", {"instance": tau_w}),
        ("solve", "tau", {"instance": tau}),
    ):
        code, _ = run_cli(tmp_path, sub, payload)
        assert code == EXIT_VALIDATION
        assert f"{key} must be an integer, got 2.7" in capsys.readouterr().err


def test_target_or_attempt_list_of_the_wrong_type_exits_2_naming_it(tmp_path, capsys):
    tau_5 = valid_instance()
    tau_5["profile"]["tau"] = 5
    for sub, payload, message in (
        ("simulate", {"targets": [5]}, "target 0 must be a JSON object, got 5"),
        ("simulate", {"targets": 5}, "'targets' must be a JSON list, got 5"),
        ("queue-sweep", {"queue": {"N": 2, "tau": 5}, "q_grid": [0.5]}, "tau must be a list, got 5"),
        ("queue-sweep", {"queue": {"N": 2, "rho": 5}, "q_grid": [0.5]}, "rho must be a list, got 5"),
        ("solve", {"instance": tau_5}, "tau must be a list, got 5"),
    ):
        code, _ = run_cli(tmp_path, sub, payload)
        assert code == EXIT_VALIDATION
        assert message in capsys.readouterr().err


def test_set_through_a_non_object_exits_2_naming_the_key(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "queue-sweep", {"queue": 5, "q_grid": [0.5]}, "--set", "queue.N=3")
    assert code == EXIT_VALIDATION
    assert "override 'queue.N' goes through 'queue', not a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("sub, key, payload", [
    ("simulate", "horizon", {"targets": [{"instance": valid_instance(), "policy": ["T5"]}]}),
    ("threshold-study", "n_instances", {"generator": {"S": 2}}),
    ("stationarity", "T", {"instance": valid_instance()}),
    ("enumerate", "cap", {"instance": valid_instance()}),
    ("enumerate", "top", {"instance": valid_instance()}),
    ("solve", "seed", {"instance": valid_instance()}),
])
def test_non_integral_count_exits_2_naming_it(tmp_path, capsys, sub, key, payload):
    code, out = run_cli(tmp_path, sub, {**payload, key: 2.5})
    assert code == EXIT_VALIDATION
    assert f"{key} must be an integer, got 2.5" in capsys.readouterr().err
    assert not (out / "run_manifest.json").exists()


def test_design_prefs_hold_no_grid(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "design", {"prefs": {"grid_n": 1000}})
    assert code == EXIT_VALIDATION
    assert "unknown key(s) under 'prefs': grid_n" in capsys.readouterr().err


def test_artifacts_are_byte_identical_across_runs(tmp_path):
    payload = {"instance": valid_instance()}
    cfg = write_config(tmp_path, payload)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["solve", "--config", str(cfg), "--out", str(out), "--seed", "7"]) == EXIT_OK
        outs.append(out)
    for fname in ("policy.csv", "evaluation.csv", "classification.csv", "run_manifest.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_csv_columns_print_as_fmt_prints_each_value(tmp_path):
    import numpy as np

    from gatekeeper.artifacts import fmt, write_csv

    rows = [(1, "a", 0.1, True, 2.0, None, np.float64(1 / 3), 5),
            (2, "b", 1e-20, False, 3, "x", np.float64(2.0), "-")]
    path = write_csv(tmp_path / "x.csv", "abcdefgh", rows, ["c"])
    assert path.read_text().splitlines() == ["# c", "a,b,c,d,e,f,g,h"] + [
        ",".join(fmt(v) for v in row) for row in rows]
    with pytest.raises(ValueError):
        write_csv(tmp_path / "y.csv", "ab", [(1, 2), (3,)])


def test_csv_row_format_prints_as_fmt_prints_each_value(tmp_path):
    from gatekeeper.artifacts import write_columns

    floats = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308, 1e16,
              0.1, 1 / 3, 123456789012.5, -2.5e-300, 1.7976931348623157e308]
    n = len(floats)
    columns = [floats, [True, False] * 6 + [True], list(range(-6, 7)), [0, 10**30] + [-1] * 11,
               ["a", "", "%s", "%d", "x y"] * 2 + ["%%", "%.12g", "-"], [7, "s"] * 6 + [8],
               [1, 2.5, True, None, "q"] * 2 + [0.1, 3, False]]
    path = write_columns(tmp_path / "x.csv", [str(i) for i in range(len(columns))], columns)
    assert path.read_text().splitlines()[1:] == [
        ",".join(fmt(col[i]) for col in columns) for i in range(n)]


def test_artifacts_embed_config_hash(tmp_path):
    from gatekeeper.artifacts import config_hash

    payload = {"instance": valid_instance()}
    code, out = run_cli(tmp_path, "solve", payload)
    assert code == EXIT_OK
    head = (out / "policy.csv").read_text().splitlines()[0]
    assert head == f"# config_sha256={config_hash(payload)}"


def test_set_overrides_reach_the_solver(tmp_path):
    payload = {"instance": valid_instance()}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    code = main([
        "solve", "--config", str(cfg), "--out", str(out),
        "--set", "instance.econ.r=-3",
    ])
    assert code == EXIT_VALIDATION


def test_enumerate_ranking(tmp_path):
    code, out = run_cli(tmp_path, "enumerate",
                        {"instance": valid_instance(), "ruleset": "table-1", "top": 5})
    assert code == EXIT_OK
    lines = [l for l in (out / "ranking.csv").read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "rank,policy,R"
    assert len(lines) == 6


def test_stationarity_smoke(tmp_path, capsys):
    code, out = run_cli(tmp_path, "stationarity",
                        {"instance": valid_instance(), "T": 30, "write_values": True})
    assert code == EXIT_OK
    assert (out / "argmax.csv").exists() and (out / "values.csv").exists()
    assert "stationary" in capsys.readouterr().out


def test_classify_smoke(tmp_path, capsys):
    code, out = run_cli(tmp_path, "classify", {"instance": valid_instance(), "r_star": 0.6})
    assert code == EXIT_OK
    body = (out / "classification.csv").read_text()
    assert "preferred_mode" in body
    assert "case 2" in capsys.readouterr().out


def test_wspt_smoke(tmp_path, capsys):
    code, out = run_cli(tmp_path, "wspt", {"instance": valid_instance()})
    assert code == EXIT_OK
    assert "wspt:" in capsys.readouterr().out


def test_threshold_study_smoke(tmp_path):
    payload = {"generator": {"S": 3}, "n_instances": 25, "S_list": [3], "seed": 11}
    code, out = run_cli(tmp_path, "threshold-study", payload)
    assert code == EXIT_OK
    lines = [l for l in (out / "study.csv").read_text().splitlines() if not l.startswith("#")]
    assert lines[0].startswith("S,n,frac_threshold_opt")
    assert len(lines) == 2


def test_threshold_study_takes_S_and_seed_from_the_generator(tmp_path):
    payload = {"generator": {"S": 5, "seed": 5}, "n_instances": 2}
    code, out = run_cli(tmp_path, "threshold-study", payload)
    assert code == EXIT_OK
    lines = (out / "study.csv").read_text().splitlines()
    assert lines[1] == "# seed=5"
    assert [row.split(",")[0] for row in lines[3:]] == ["5"]   # generator.S sets S
    assert lines[3].split(",")[-2:] == ["5", "6"]               # seed_lo, seed_hi
    assert json.loads((out / "run_manifest.json").read_text())["seed"] == 5


def test_threshold_study_runs_at_large_S(tmp_path):
    payload = {"n_instances": 50, "S_list": [10, 20, 30], "seed": 3}
    t0 = time.perf_counter()
    code, out = run_cli(tmp_path, "threshold-study", payload)
    assert time.perf_counter() - t0 < 5.0
    assert code == EXIT_OK
    lines = [l for l in (out / "study.csv").read_text().splitlines() if not l.startswith("#")]
    rows = [l.split(",") for l in lines[1:]]
    assert [int(row[0]) for row in rows] == [10, 20, 30]
    for row in rows:
        assert 0.0 <= float(row[2]) <= 1.0
        assert 0.0 <= float(row[3]) <= float(row[4])


def test_queue_sweep_smoke(tmp_path):
    payload = {"queue": {"N": 2}, "q_grid": [0.2, 0.5, 0.8]}
    code, out = run_cli(tmp_path, "queue-sweep", payload)
    assert code == EXIT_OK
    lines = [l for l in (out / "sweep.csv").read_text().splitlines() if not l.startswith("#")]
    assert len(lines) == 1 + 4 * 3  # header + (N+2) policies x 3 grid points


def test_queue_sweep_range_grid(tmp_path):
    payload = {"queue": {"N": 2}, "q_grid": {"start": 0.1, "stop": 0.5, "step": 0.1}}
    code, out = run_cli(tmp_path, "queue-sweep", payload)
    assert code == EXIT_OK
    lines = [l for l in (out / "sweep.csv").read_text().splitlines() if not l.startswith("#")]
    q = [row.split(",")[1] for row in lines[1:]]
    assert q == ["0.1", "0.2", "0.3", "0.4", "0.5"] * 4   # each of the (N+2) policies


@pytest.mark.parametrize("q_grid, q", [
    ({"start": 0.1, "stop": 0.6, "step": 0.3}, ["0.1", "0.4"]),            # not 0.7, past the stop
    ({"start": 0.5, "stop": 1.0, "step": 0.3}, ["0.5", "0.8"]),            # not 1.1
    ({"start": 0.1, "stop": 0.7, "step": 0.2}, ["0.1", "0.3", "0.5", "0.7"]),   # 2.9999999999999996 steps
])
def test_queue_sweep_range_grid_stops_at_its_stop(tmp_path, q_grid, q):
    code, out = run_cli(tmp_path, "queue-sweep", {"queue": {"N": 2}, "q_grid": q_grid})
    assert code == EXIT_OK
    lines = [l for l in (out / "sweep.csv").read_text().splitlines() if not l.startswith("#")]
    assert [row.split(",")[1] for row in lines[1:]] == q * 4


@pytest.mark.parametrize("q_grid, shown", [
    ([0.5, 1.5], "1.5"),
    ([0.0, 0.5], "0.0"),
    ({"start": 0.0, "stop": 0.5, "step": 0.1}, "0.0"),
    ({"start": 0.9, "stop": 1.2, "step": 0.1}, "1.1"),
])
def test_q_grid_value_outside_the_unit_interval_exits_2_naming_it(tmp_path, capsys, q_grid, shown):
    code, out = run_cli(tmp_path, "queue-sweep", {"queue": {"N": 2}, "q_grid": q_grid})
    assert code == EXIT_VALIDATION
    assert f"q_grid values must lie in (0, 1], got {shown}" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


def test_q_grid_of_a_trillion_points_exits_2_naming_it_before_building_them(tmp_path):
    # counted and refused before its points are built; run apart, so a hang
    # or a memory blow-up stops at the timeout instead of taking the suite
    config = write_config(tmp_path, {"queue": {"N": 2}, "q_grid": {"step": 1e-12}})
    out = tmp_path / "out"
    done = subprocess.run([sys.executable, "-m", "gatekeeper.cli", "queue-sweep", "--config", str(config),
                           "--out", str(out)], capture_output=True, text=True, timeout=30,
                          env={**os.environ, "PYTHONPATH": str(Path(gatekeeper.__file__).parents[1])})
    assert done.returncode == EXIT_VALIDATION
    assert "q_grid's 990000000001 points do not fit in memory" in done.stderr
    assert "Traceback" not in done.stderr
    assert not (out / "sweep.csv").exists()


def test_design_smoke(tmp_path, capsys):
    payload = {
        "market": {"lam": 0.9, "k_max": 1, "p_grid": [0.3]},
        "bot": {"a_bot": 9e-5, "b_bot": 2.6},
        "wage": 0.9,
    }
    code, out = run_cli(tmp_path, "design", payload)
    assert code == EXIT_OK
    assert "best design" in capsys.readouterr().out
    lines = [l for l in (out / "design.csv").read_text().splitlines() if not l.startswith("#")]
    assert lines[0].startswith("k,policy,p_succ,profit")
    assert lines[0].endswith(",converged,iterations,residual")
    assert len(lines) == 1 + 2 + 12 * 2  # k=0 x {0,0.3} plus k=1 x 12 policies x 2


def test_simulate_smoke(tmp_path, capsys):
    payload = {
        "targets": [
            {"instance": valid_instance(), "policy": ["T5"]},
            {"queue": {"N": 2, "q": 0.5}, "policy": "qge1"},
        ],
        "horizon": 60_000,
    }
    code, out = run_cli(tmp_path, "simulate", payload)
    assert code == EXIT_OK
    assert "2/2 targets" in capsys.readouterr().out


def test_simulate_requires_targets(tmp_path):
    code, _ = run_cli(tmp_path, "simulate", {"horizon": 50_000})
    assert code == EXIT_VALIDATION


def test_solve_single_attempt_instance(tmp_path):
    # S = 1 has no decisions: policy.csv holds only the header
    inst = {
        "profile": {"S": 1, "tau": [3], "rho": [1.0]},
        "econ": {"r": 10.0, "c_w": 1.0, "c_c": 2.0, "tau_w": 1},
        "traffic": {"q": 0.4, "a": 0.5},
    }
    code, out = run_cli(tmp_path, "solve", {"instance": inst})
    assert code == EXIT_OK
    lines = [l for l in (out / "policy.csv").read_text().splitlines() if not l.startswith("#")]
    assert lines == ["X,Q,A,action,rule"]


def test_solve_rule_column_carries_table_labels(tmp_path):
    # every rule of the optimum is printed by its table label (H4, not ncnc),
    # and the evaluation is that of the same (H4, T5) policy as before
    from gatekeeper import evaluate_policy, policy_from_names
    from gatekeeper.artifacts import fmt

    from conftest import random_instance

    inst = random_instance(0, 3)
    code, out = run_cli(tmp_path, "solve", {"instance": inst.to_json_dict()})
    assert code == EXIT_OK
    rows = (out / "policy.csv").read_text().splitlines()[3:]
    assert [row.split(",")[-1] for row in rows] == ["H4"] * 4 + ["T5"] * 4

    ev = evaluate_policy(inst, policy_from_names(["H4", "T5"]))
    expect = [("summary", "R", ev.R)]
    expect += [("summary", key, val) for key, val in ev.perf.to_json_dict().items()]
    expect += [("pi", lbl, p) for lbl, p, _ in ev.state_rows()]
    expect += [("G", lbl, g) for lbl, _, g in ev.state_rows()]
    lines = (out / "evaluation.csv").read_text().splitlines()[3:]
    assert lines == [",".join(fmt(v) for v in row) for row in expect]
    assert lines[0] == "summary,R,19.2875939299"


def test_simulate_target_without_a_policy_exits_2_naming_it(tmp_path, capsys):
    for target in ({"queue": {"N": 2}}, {"instance": valid_instance()}):
        code, _ = run_cli(tmp_path, "simulate", {"targets": [target]})
        assert code == EXIT_VALIDATION
        assert "target 0 is missing key 'policy'" in capsys.readouterr().err


@pytest.mark.parametrize("S_list, message", [
    ([2.5], "S_list entry must be an integer, got 2.5"),
    (3, "'S_list' must be a JSON list, got 3"),
    ([], "S_list must list at least one S"),
])
def test_threshold_study_S_list_must_be_a_list_of_integers(tmp_path, capsys, S_list, message):
    code, out = run_cli(tmp_path, "threshold-study", {"n_instances": 2, "S_list": S_list})
    assert code == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not (out / "run_manifest.json").exists()


@pytest.mark.parametrize("generator, message", [
    ({"tau_range": 5}, "tau_range must be a pair [lo, hi], got 5"),
    ({"rho_range": [0.1, 0.5, 0.9]}, "rho_range must be a pair [lo, hi], got (0.1, 0.5, 0.9)"),
    ({"tau_range": [1.9, 2.9]}, "tau_range bound must be an integer, got 1.9"),
    ({"S": 2.5}, "S must be an integer, got 2.5"),
    ({"r_range": [None, 5]}, "r_range bound must be a finite number, got None"),
    ({"q_range": ["0.1", "0.5"]}, "q_range bound must be a finite number, got '0.1'"),
    ({"tau_range": [1, 2**70]}, f"tau_range bounds must lie below 2**63, got {2**70}"),
])
def test_threshold_study_bad_generator_values_exit_2_naming_the_field(tmp_path, capsys, generator, message):
    code, out = run_cli(tmp_path, "threshold-study", {"generator": generator, "n_instances": 2})
    assert code == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not (out / "run_manifest.json").exists()


@pytest.mark.parametrize("market, message", [
    ({"k_max": 2.5}, "k_max must be an integer, got 2.5"),
    ({"k_max": "7"}, "k_max must be an integer, got '7'"),
    ({"lam": "0.9"}, "lam must be a finite number, got '0.9'"),
    ({"p_grid": [-0.2, 0.3]}, "p_grid entries must lie in [0, 1), got -0.2"),
    ({"p_grid": [0.3, 0.3]}, "p_grid lists 0.3 twice"),
    ({"p_grid": [1.5]}, "p_grid entries must lie in [0, 1), got 1.5"),
])
def test_design_market_values_exit_2_naming_the_key(tmp_path, capsys, market, message):
    code, out = run_cli(tmp_path, "design", {"market": market})
    assert code == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not (out / "run_manifest.json").exists()


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name, config", [
    # the benchmark's canonical design call
    ("design_bench.csv", {
        "scenario": "high-base-slow/mid",
        "market": {"lam": 0.9, "k_max": 7, "p_grid": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]},
        "bot": {"tau_bot": 6.0, "a_bot": 5e-05, "b_bot": 3.0},
        "wage": 0.9,
    }),
    # test_market's jump grid, with two unconverged "OPT" cells
    ("design_jump.csv", {
        "instance": {"profile": {"S": 2, "tau": [2, 10], "rho": [0.14, 1.0]},
                     "econ": {"r": 20.0, "c_w": 2.0, "c_c": 4.2, "tau_w": 2, "c_wage": 0.0},
                     "traffic": {"q": 0.5, "a": 0.59}},
        "market": {"lam": 0.175, "k_max": 2, "p_grid": [0.1, 0.5, 0.6]},
        "bot": {"tau_bot": 6.0, "a_bot": 9e-05, "b_bot": 2.6},
    }),
])
def test_design_csv_keeps_its_recorded_bytes(tmp_path, name, config):
    code, out = run_cli(tmp_path, "design", config)
    assert code == EXIT_OK
    assert (out / "design.csv").read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name, config", [
    # the benchmark's seed-0 queue-sweep call
    ("sweep_bench.csv", {
        "queue": {"N": 6, "tau": [6, 15], "rho": [0.7, 1.0], "r": 20.0, "c_c": 5.0},
        "q_grid": {"start": 0.01, "stop": 1.0, "step": 0.01},
    }),
    # no room, q near both ends and at 1
    ("sweep_edge.csv", {
        "queue": {"N": 0, "tau": [1, 3], "rho": [0.3, 1.0], "c_c": 15},
        "q_grid": [0.000001, 0.3, 0.9999, 1.0],
    }),
])
def test_sweep_csv_keeps_its_recorded_bytes(tmp_path, name, config):
    code, out = run_cli(tmp_path, "queue-sweep", config)
    assert code == EXIT_OK
    assert (out / "sweep.csv").read_bytes() == (GOLDEN / name).read_bytes()
    # the rows are the sweep's rate array, policy by policy in grid order
    sweep = waiting_room.sweep_queue_policies(_load_queue_model(config), _q_grid(config)[1]())
    want = [",".join(map(fmt, (label, q, *rates[:4].tolist())))
            for label, by_q in zip(sweep.policies, sweep.rates) for q, rates in zip(sweep.q_grid, by_q)]
    lines = (out / "sweep.csv").read_text().splitlines()
    assert [l for l in lines if not l.startswith("#")][1:] == want


STATIONARITY_S3 = {
    "profile": {"S": 3, "tau": [4, 9, 15], "rho": [0.4, 0.6, 1.0]},
    "econ": {"r": 20.0, "c_w": 2.0, "c_c": 5.0, "tau_w": 3},
    "traffic": {"q": 0.5, "a": 0.8},
}
STATIONARITY_S1 = {
    "profile": {"S": 1, "tau": [7], "rho": [1.0]},
    "econ": {"r": 12.0, "c_w": 1.0, "c_c": 3.0, "tau_w": 2},
    "traffic": {"q": 0.3, "a": 0.6},
}


@pytest.mark.parametrize("name, inst, T, terminals", [
    # attempts and a handoff that read past T + 1; zero terminals break stationarity at t = 36
    ("stationarity_s3_stationary", STATIONARITY_S3, 40, "stationary"),
    ("stationarity_s3_zero", STATIONARITY_S3, 40, "zero"),
    # no decision node: argmax.csv is its header alone
    ("stationarity_s1_stationary", STATIONARITY_S1, 12, "stationary"),
    ("stationarity_s1_zero", STATIONARITY_S1, 12, "zero"),
])
def test_stationarity_csvs_keep_their_recorded_bytes(tmp_path, name, inst, T, terminals):
    config = {"instance": inst, "T": T, "terminals": terminals, "write_values": True}
    code, out = run_cli(tmp_path, "stationarity", config)
    assert code == EXIT_OK
    for csv in ("argmax.csv", "values.csv"):
        assert (out / csv).read_bytes() == (GOLDEN / f"{name}_{csv}").read_bytes()


def test_stationarity_horizon_too_long_to_hold_exits_2_naming_T(tmp_path, capsys):
    code, out = run_cli(tmp_path, "stationarity", {"instance": valid_instance(), "T": 10**15})
    assert code == EXIT_VALIDATION
    assert f"T = {10**15} is too long a horizon" in capsys.readouterr().err
    assert not (out / "argmax.csv").exists()
    # past int64 numpy refuses the shape itself, also a validation failure
    code, out = run_cli(tmp_path, "stationarity", {"instance": valid_instance(), "T": 10**30})
    assert code == EXIT_VALIDATION
    assert not (out / "argmax.csv").exists()


def test_simulate_horizon_too_long_to_hold_exits_2_naming_it(tmp_path, capsys):
    code, out = run_cli(tmp_path, "simulate", {**SIMULATE_ONE, "horizon": 10**15})
    assert code == EXIT_VALIDATION
    assert f"horizon = {10**15} is too long" in capsys.readouterr().err
    assert not (out / "sim.csv").exists()


@pytest.mark.parametrize("T", [2**62, 2**63, 10**30])
def test_stationarity_horizon_past_the_array_limit_exits_2_naming_T(tmp_path, capsys, T):
    # numpy refuses these shapes before allocating anything
    code, out = run_cli(tmp_path, "stationarity", {"instance": valid_instance(), "T": T})
    assert code == EXIT_VALIDATION
    assert f"T = {T} is too long a horizon" in capsys.readouterr().err
    assert not (out / "argmax.csv").exists()


# 2**60 - 1 periods pass the limit only with the warm-up's, which the rewards hold too
@pytest.mark.parametrize("horizon", [2**60, 10**30, 2**60 - 1])
def test_simulate_horizon_past_the_array_limit_exits_2_naming_it(tmp_path, capsys, horizon):
    code, out = run_cli(tmp_path, "simulate", {**SIMULATE_ONE, "horizon": horizon})
    assert code == EXIT_VALIDATION
    assert f"horizon = {horizon} is too long" in capsys.readouterr().err
    assert not (out / "sim.csv").exists()


def test_simulate_waiting_room_too_large_exits_2_naming_its_target(tmp_path, capsys):
    # its chain, not the short horizon, is past any array
    targets = [SIMULATE_ONE["targets"][0], {"queue": {"N": 10**17}, "policy": "never"}]
    code, out = run_cli(tmp_path, "simulate", {"horizon": 1000, "targets": targets})
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"target 1, the waiting room of N = {10**17} and tau = [6, 15], is too large" in err
    assert "horizon" not in err
    assert not (out / "sim.csv").exists()


@pytest.mark.parametrize("sub, payload, message", [
    ("queue-sweep", {"queue": {"N": 10**12}, "q_grid": [0.5]},
     f"the waiting room of N = {10**12} and tau = [6, 15] is too large"),
    ("queue-sweep", {"queue": {"tau": [10**12, 2]}, "q_grid": [0.5]},
     f"the waiting room of N = 6 and tau = [{10**12}, 2] is too large"),
    ("design", {"market": {"k_max": 10**17}}, f"k_max = {10**17} is too large"),
    ("threshold-study", {"n_instances": 10**18}, f"n_instances = {10**18} is too large"),
])
def test_config_past_any_array_exits_2_naming_its_field(tmp_path, capsys, sub, payload, message):
    # each size is refused before the work that grows with it: nothing is allocated
    code, out = run_cli(tmp_path, sub, payload)
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert message in err and "do not fit in memory" in err
    assert "Traceback" not in err
    assert not (out / "run_manifest.json").exists()


@pytest.mark.parametrize("a_bot, bot_cells", [(0.0, "7.524"), (9e-05, "-inf")])
def test_design_steep_training_curve_runs(tmp_path, capsys, a_bot, bot_cells):
    # 9e-05 * 50^400 is past the float range: its cells cost +inf and rank
    # last; with a_bot = 0 the bot is free at any exponent
    config = {"market": {"k_max": 1, "p_grid": [0.5]}, "bot": {"a_bot": a_bot, "b_bot": 400}}
    code, out = run_cli(tmp_path, "design", config)
    assert code == EXIT_OK
    rows = [l.split(",") for l in (out / "design.csv").read_text().splitlines()
            if not l.startswith("#")][1:]
    bot_only = next(row for row in rows if row[:3] == ["0", "", "0.5"])
    assert bot_only[3] == bot_cells
    if a_bot:
        assert "p_succ=0.0 " in capsys.readouterr().out
        assert all(row[3] == "-inf" for row in rows if row[2] == "0.5")
        assert rows[-1][2] == "0.5"


def test_enumerate_rejects_a_negative_top(tmp_path, capsys):
    code, out = run_cli(tmp_path, "enumerate", {"instance": valid_instance(), "top": -3})
    assert code == EXIT_VALIDATION
    assert "top must be nonnegative, got -3" in capsys.readouterr().err
    assert not (out / "ranking.csv").exists()


def with_section(section, **values):
    """The valid instance with `values` set in one of its sections."""
    inst = valid_instance()
    inst[section].update(values)
    return {"instance": inst}


@pytest.mark.parametrize("sub, payload, message", [
    ("solve", with_section("econ", r="20"), "r must be a finite number, got '20'"),
    ("solve", with_section("econ", c_w=True), "c_w must be a finite number, got True"),
    ("solve", with_section("traffic", q="0.5"), "q must be a finite number, got '0.5'"),
    ("solve", with_section("profile", rho=["0.7", 1.0]), "rho must be a finite number, got '0.7'"),
    ("classify", {"instance": valid_instance(), "r_star": "7"}, "r_star must be a finite number, got '7'"),
    ("queue-sweep", {"queue": {"N": 2, "r": "20"}, "q_grid": [0.5]}, "r must be a finite number, got '20'"),
    ("queue-sweep", {"queue": {"N": 2, "q": True}, "q_grid": [0.5]}, "q must be a finite number, got True"),
    ("queue-sweep", {"queue": {"N": 2}, "q_grid": [0.5, True]}, "q_grid entry must be a finite number, got True"),
    ("queue-sweep", {"queue": {"N": 2}, "q_grid": [10**400]}, "q_grid entry must be a finite number, got 1000"),
    ("simulate", {"targets": [{"queue": {"N": 2, "c_c": "5"}, "policy": "never"}]},
     "c_c must be a finite number, got '5'"),
    ("design", {"prefs": {"c_time": "1"}}, "c_time must be a finite number, got '1'"),
    ("design", {"prefs": {"tau_exp_cold": 2.5}}, "tau_exp_cold must be an integer, got 2.5"),
    ("design", {"bot": {"a_bot": "x"}}, "a_bot must be a finite number, got 'x'"),
    ("design", {"market": {"p_grid": ["0.3"]}}, "p_grid entry must be a finite number, got '0.3'"),
    ("design", {"wage": "0.9"}, "wage must be a finite number, got '0.9'"),
    # numbers of the right type outside their range
    ("design", {"prefs": {"v_max": 0}}, "v_max must be positive, got 0.0"),
    ("design", {"prefs": {"v_max": -5}}, "v_max must be positive, got -5.0"),
    # its square underflows to 0 (NaN shares) or overflows (no shares at all)
    ("design", {"market": {"k_max": 1, "p_grid": [0.5]}, "prefs": {"v_max": 1e-200}},
     "v_max must have a finite normal square (about 1.5e-154 to 1.3e154), got 1e-200"),
    ("design", {"market": {"k_max": 1, "p_grid": [0.5]}, "prefs": {"v_max": 1e200}},
     "v_max must have a finite normal square (about 1.5e-154 to 1.3e154), got 1e+200"),
    ("design", {"prefs": {"tau_exp_warm": -1}}, "tau_exp_warm must be nonnegative, got -1"),
    ("design", {"prefs": {"tau_exp_cold": -2}}, "tau_exp_cold must be nonnegative, got -2"),
    ("design", {"bot": {"tau_bot": -0.5}}, "tau_bot must be nonnegative, got -0.5"),
])
def test_config_number_of_the_wrong_type_exits_2_naming_it(tmp_path, capsys, sub, payload, message):
    code, out = run_cli(tmp_path, sub, payload)
    assert code == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not (out / "run_manifest.json").exists()


@pytest.mark.parametrize("q_grid, message", [
    ({"step": 0}, "q_grid.step must be positive, got 0.0"),
    ({"step": -0.1}, "q_grid.step must be positive, got -0.1"),
    ({"step": "x"}, "q_grid.step must be a finite number, got 'x'"),
    ({"start": None}, "q_grid.start must be a finite number, got None"),
    ({"start": 0.5, "stop": 0.1, "step": 0.1}, "q_grid.start 0.5 exceeds q_grid.stop 0.1"),
    ([], "q_grid must list at least one q"),
    ([0.5, 0.5, 0.2], "q_grid lists 0.5 twice"),
])
def test_q_grid_that_is_no_range_exits_2_naming_the_key(tmp_path, capsys, q_grid, message):
    code, out = run_cli(tmp_path, "queue-sweep", {"queue": {"N": 2}, "q_grid": q_grid})
    assert code == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


SIMULATE_ONE = {"targets": [{"instance": valid_instance(), "policy": ["T5"]}], "horizon": 20_000}


@pytest.mark.parametrize("sub, payload, seed, shown", [
    ("simulate", SIMULATE_ONE, str(2**64), 2**64),
    ("simulate", SIMULATE_ONE, str(-2**64), -2**64),
    ("simulate", SIMULATE_ONE, "-1", -1),
    ("threshold-study", {"n_instances": 2}, str(2**64 - 1), 2**64),   # the study's last seed
])
def test_seed_outside_u64_exits_2_naming_it(tmp_path, capsys, sub, payload, seed, shown):
    code, out = run_cli(tmp_path, sub, payload, "--seed", seed)
    assert code == EXIT_VALIDATION
    assert f"seed must lie in [0, 2**64), got {shown}" in capsys.readouterr().err
    assert not (out / "run_manifest.json").exists()


def test_config_seed_outside_u64_exits_2_and_the_last_u64_seed_runs(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "threshold-study", {"n_instances": 1, "seed": -1})
    assert code == EXIT_VALIDATION
    assert "seed must lie in [0, 2**64), got -1" in capsys.readouterr().err
    code, out = run_cli(tmp_path, "threshold-study", {"n_instances": 1}, "--seed", str(2**64 - 1))
    assert code == EXIT_OK
    assert (out / "study.csv").read_text().splitlines()[-1].split(",")[-2:] == [str(2**64 - 1)] * 2


def test_study_seed_range_past_u64_exits_2_before_any_block(tmp_path, capsys, monkeypatch):
    from gatekeeper import structure

    def no_draw(*args):
        raise AssertionError("a block was drawn")

    monkeypatch.setattr(structure, "generate_block", no_draw)
    payload = {"generator": {"seed": 2**64 - 700}, "n_instances": 300, "S_list": [3, 4, 5]}
    code, out = run_cli(tmp_path, "threshold-study", payload)
    assert code == EXIT_VALIDATION
    assert ("generator.seed + len(S_list) * n_instances - 1 = 18446744073709550916 + 3 * 300 - 1, "
            "the study's last seed must lie in [0, 2**64), got 18446744073709551815") in capsys.readouterr().err
    assert not (out / "run_manifest.json").exists()


@pytest.mark.parametrize("sub, payload, message", [
    ("queue-sweep", {"queue": {"N": True}, "q_grid": [0.5]}, "N must be an integer, got True"),
    ("threshold-study", {"generator": {"S": True}, "n_instances": True}, "S must be an integer, got True"),
    ("threshold-study", {"generator": {"S": 2}, "n_instances": True}, "n_instances must be an integer, got True"),
    ("threshold-study", {"n_instances": 1, "seed": True}, "seed must be an integer, got True"),
])
def test_boolean_count_exits_2_naming_it(tmp_path, capsys, sub, payload, message):
    code, out = run_cli(tmp_path, sub, payload)
    assert code == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not (out / "run_manifest.json").exists()


@pytest.mark.parametrize("key, value, message", [
    ("terminals", "zeros", "terminals must be 'stationary' or 'zero', got 'zeros'"),
    ("write_values", "no", "write_values must be true or false, got 'no'"),
    ("write_values", 1, "write_values must be true or false, got 1"),
])
def test_stationarity_choice_of_the_wrong_value_exits_2_naming_it(tmp_path, capsys, key, value, message):
    code, out = run_cli(tmp_path, "stationarity", {"instance": valid_instance(), "T": 5, key: value})
    assert code == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not (out / "argmax.csv").exists() and not (out / "values.csv").exists()


@pytest.mark.parametrize("target, message", [
    ({"queue": {"N": 2}, "policy": ["never"]}, "target 0: the policy must be a label string, got ['never']"),
    ({"instance": valid_instance(), "policy": 5}, "target 0: the policy must be a list of rule labels, got 5"),
    ({"instance": valid_instance(), "policy": [["T5"]]},
     "target 0: the policy must be a list of rule labels, got [['T5']]"),
    ({"instance": valid_instance(), "queue": {"N": 2}, "policy": ["T5"]},
     "unknown key(s) under 'target 0': queue"),
    ({"queue": {"N": 2}, "policy": "never", "seed": 3}, "unknown key(s) under 'target 0': seed"),
])
def test_simulate_target_of_the_wrong_shape_exits_2_naming_it(tmp_path, capsys, target, message):
    code, out = run_cli(tmp_path, "simulate", {"targets": [target], "horizon": 1000})
    assert code == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not (out / "sim.csv").exists()


@pytest.mark.parametrize("label", ["qge 2", "qge٣", "qgeX", "qge0", "qge", "Never"])
def test_malformed_queue_policy_label_exits_2_naming_it(tmp_path, capsys, label):
    code, out = run_cli(tmp_path, "simulate", {"targets": [{"queue": {"N": 3}, "policy": label}],
                                               "horizon": 1000})
    assert code == EXIT_VALIDATION
    assert repr(label) in capsys.readouterr().err
    assert not (out / "sim.csv").exists()
