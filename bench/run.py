"""Gatekeeper benchmark: the paper's four heavy experiments through the CLI.

    python3 bench/run.py --workload study|design|simulate|queue-sweep|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`.  Each sample is a fresh worker process (worker.py) making
one closed CLI call with `--jobs 1`, repeated until --seconds have passed
and at least MIN_CALLS calls are made.
Before the calls, PROBES workers only set up, so set-up time has a median of
several samples.  Every call's CSVs go through the workload's gates.  Times
are reported at reference machine speed: each worker's wall times divided by
the slowdown its calibration kernels measured (see worker.py); the raw wall
times are in the record.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of traced calls, which alternate
with untraced calls so that the tracing overhead is measured in the same run.
A record with provenance, samples and gates goes to .bench_results/.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PROBES = 4
MIN_CALLS = 3  # a design call takes ~10 s; a median needs at least three
DEADLINE_S = 165.0  # a run must end within 180 s; never start a call that would pass this
# Fixed for every worker: on the 154-state queue chains two BLAS threads were
# slower than one on a 2-core VM.
BLAS_THREADS = "1"

END_TO_END = {
    "items_per_s": "items/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "model.generate_instance.calls": "count",
    "model.generate_instance.self_s": "s",
    "model.validate_instance.calls": "count",
    "model.validate_instance.self_s": "s",
    "evaluate.average_reward_batch.calls": "count",
    "evaluate.average_reward_batch.policies": "count",
    "evaluate.average_reward_batch.self_s": "s",
    "evaluate.evaluate_policy.calls": "count",
    "evaluate.evaluate_policy.self_s": "s",
    "evaluate.evaluate_policy.p50_us": "us",
    "evaluate.evaluate_policy.p99_us": "us",
    "evaluate.build_chain.self_s": "s",
    "evaluate.stationary_distribution.calls": "count",
    "evaluate.stationary_distribution.self_s": "s",
    "evaluate.stationary_distribution.states_mean": "states",
    "solve.solve_average_reward.calls": "count",
    "solve.solve_average_reward.self_s": "s",
    "solve.solve_average_reward.evals_per_call": "evals/call",
    "structure.run_heuristic_study.self_s": "s",
    "structure.table1_policies": "count",
    "structure.threshold_policies": "count",
    "waiting_room.evaluate_queue_policy.calls": "count",
    "waiting_room.evaluate_queue_policy.self_s": "s",
    "waiting_room.evaluate_queue_policy.states": "states",
    "simulate.simulate_policy.periods": "count",
    "simulate.simulate_policy.self_s": "s",
    "simulate.simulate_policy.ns_per_period": "ns",
    "simulate.simulate_queue.periods": "count",
    "simulate.simulate_queue.self_s": "s",
    "simulate.simulate_queue.ns_per_period": "ns",
    "simulate.miss_3sigma": "count",
    "market.solve_equilibrium.calls": "count",
    "market.solve_equilibrium.self_s": "s",
    "market.solve_equilibrium.p50_ms": "ms",
    "market.solve_equilibrium.p99_ms": "ms",
    "market.fp_iters": "count",
    "market.fp_iters_unconverged": "count",
    "market.converged_ratio": "ratio",
    "market.compute_demand_shares.calls": "count",
    "market.compute_demand_shares.self_s": "s",
    "cli.self_s": "s",
    "cli.rows_written": "count",
    "cli.failed_frac": "ratio",
    "trace.items_per_s": "items/s",
    "trace.untraced_items_per_s": "items/s",
    "trace.spans": "count",
    "trace.span_cost_ns": "ns",
    "trace.overhead_frac": "ratio",
    "trace.layer_frac": "ratio",
}
TIME_UNITS = ("s", "ms", "us", "ns")


def git_sha(root: Path) -> str:
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((root / "src").rglob("*.py")))


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


class Run:
    """Samples of one workload at one seed, gathered from worker processes."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.start = time.monotonic()
        self.work = ROOT / ".bench_work" / f"{workload}-seed{seed}-pid{os.getpid()}"
        self.results = ROOT / ".bench_results"
        self.samples: list[dict] = []
        self.env = worker_env()

    def _worker(self, index: int, mode: str) -> dict:
        work = self.work / f"{index:03d}-{mode}"
        work.mkdir(parents=True)
        budget = DEADLINE_S - (time.monotonic() - self.start)
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), str(ROOT), self.workload,
               str(self.seed), str(work)]
        launch = time.monotonic()
        try:
            proc = subprocess.run(cmd + [repr(launch), mode], cwd=ROOT, env=self.env,
                                  capture_output=True, text=True, timeout=max(budget, 1.0))
        except subprocess.TimeoutExpired:
            return {"mode": mode, "exit_code": None, "error": f"worker timed out after {budget:.0f} s",
                    "work": str(work)}
        result_path = work / "result.json"
        if proc.returncode != 0 or not result_path.exists():
            return {"mode": mode, "exit_code": None, "work": str(work),
                    "error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["work"] = str(work)
        return result

    def collect(self) -> None:
        for i in range(PROBES):
            self.samples.append(self._worker(i, "probe"))
            if self.samples[-1].get("exit_code", 0) is None:
                return  # set-up itself fails: no call can succeed
        modes = ["call", "traced"] if self.trace else ["call"]
        measure_start = time.monotonic()
        longest = 0.0
        i = PROBES
        while True:
            for mode in modes:
                t0 = time.monotonic()
                self.samples.append(self._worker(i, mode))
                longest = max(longest, time.monotonic() - t0)
                i += 1
            now = time.monotonic()
            if now - self.start + longest > DEADLINE_S:
                return
            if now - measure_start >= self.seconds and i - PROBES >= MIN_CALLS:
                return

    def calls(self, mode: str) -> list[dict]:
        return [s for s in self.samples if s["mode"] == mode]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _items_per_s(samples: list[dict], wall: bool = False) -> list[float]:
    """Items per second of each successful call, at reference speed unless `wall`."""
    return [s["items"] / s["call_s"] * (1.0 if wall else s["slowdown"])
            for s in samples if s.get("exit_code") == 0]


def _setup_s(samples: list[dict], wall: bool = False) -> list[float]:
    return [s["setup_s"] / (1.0 if wall else s["setup_slowdown"])
            for s in samples if "setup_s" in s]


def summarize(run: Run) -> tuple[dict, dict]:
    """(contract result line, full record) of one collected run."""
    calls = [s for s in run.samples if s["mode"] != "probe"]
    ok_calls = [s for s in calls if s.get("exit_code") == 0]
    probes = run.calls("probe")
    attempted = sum(s.get("items", 0) for s in calls) or 1
    hard_failed = sum(s.get("items", 0) for s in calls if s.get("exit_code") != 0)
    failed_items = sum(s.get("failed_items", s.get("items", 0)) for s in calls)
    gates = [g for s in ok_calls for g in s["gates"]]
    failing = [g for g in gates if not g["ok"]]
    errors = [s["error"] for s in run.samples if s.get("exit_code") != 0 and s.get("error")]
    correct = bool(ok_calls) and not failing and not errors

    untraced = run.calls("call")
    values: dict[str, float] = {}
    if run.trace:
        traced = run.calls("traced")
        ok_traced = [s for s in traced if s.get("exit_code") == 0]
        for name, unit in PER_LAYER.items():
            scale = [1.0 / s["slowdown"] if unit in TIME_UNITS else 1.0 for s in ok_traced]
            values[name] = _median([s["layers"][name] * k for s, k in zip(ok_traced, scale)
                                    if name in s["layers"]])
        values["cli.failed_frac"] = failed_items / attempted
        values["trace.items_per_s"] = _median(_items_per_s(traced))
        values["trace.untraced_items_per_s"] = _median(_items_per_s(untraced))
        units = PER_LAYER
    else:
        values["items_per_s"] = _median(_items_per_s(untraced))
        values["setup_s"] = _median(_setup_s(probes + untraced))
        values["peak_rss_mb"] = _median([s["peak_rss_mb"] for s in ok_calls])
        units = END_TO_END
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": hard_failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    provenance = next((s["provenance"] for s in probes if "provenance" in s), {})
    record = {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": int(run.trace),
        "provenance": {
            "git_sha": git_sha(ROOT),
            "src_lines": src_lines(ROOT),
            "blas_threads": BLAS_THREADS,
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            **provenance,
        },
        "wall": {
            "items_per_s": _median(_items_per_s(untraced, wall=True)),
            "setup_s": _median(_setup_s(probes + untraced, wall=True)),
            "slowdown": _median([s["slowdown"] for s in run.samples if "slowdown" in s]
                                or [s["setup_slowdown"] for s in run.samples
                                    if "setup_slowdown" in s]),
        },
        "failed_frac": failed_items / attempted,
        "failed_items": failed_items,
        "gates": ok_calls[0]["gates"] if ok_calls else [],
        "failing_gates": failing,
        "errors": errors,
        "samples": [{k: v for k, v in s.items() if k not in ("gates", "provenance")}
                    for s in run.samples],
        "result": line,
    }
    return line, record


def report(run: Run, line: dict, record: dict) -> None:
    calls = [s for s in run.samples if s["mode"] != "probe"]
    print(f"== {run.workload} seed={run.seed} trace={int(run.trace)}: "
          f"{len(calls)} calls of {workloads.SUBCOMMAND[run.workload]}, "
          f"{calls[0].get('items', '?') if calls else '?'} items each, "
          f"{PROBES} set-up probes, BLAS threads {BLAS_THREADS}")
    for name, m in line["metrics"].items():
        print(f"  {name:45s} {m['value']:>16.6g} {m['unit']}")
    wall = record["wall"]
    print(f"  {'(wall clock) items_per_s, setup_s':45s} {wall['items_per_s']:>16.6g} items/s "
          f"{wall['setup_s']:.6g} s; host slowdown {wall['slowdown']:.4g}")
    if not run.trace:
        print(f"  {'failed_frac':45s} {record['failed_frac']:>16.6g} ratio "
              f"({record['failed_items']} failed / {line['attempted']} attempted; "
              f"an unconverged design cell counts as failed)")
    for g in record["failing_gates"]:
        print(f"  GATE FAIL {g['name']}: {g['detail']}")
    for e in record["errors"]:
        print(f"  ERROR {e.strip().splitlines()[-1] if e.strip() else e}")
    n_checked = sum(len(s.get("gates", [])) for s in calls)
    print(f"  gates: {n_checked - len(record['failing_gates'])}/{n_checked} passed "
          f"over {len(calls)} calls; correct={line['correct']}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(workload, seed, seconds, trace)
    try:
        run.collect()
        line, record = summarize(run)
        run.results.mkdir(exist_ok=True)
        stem = f"{workload}-seed{seed}-trace{int(trace)}"
        (run.results / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
        traced = [s for s in run.calls("traced") if s.get("exit_code") == 0]
        if traced:
            shutil.copy(Path(traced[-1]["work"]) / "spans.jsonl.gz",
                        run.results / f"{stem}-spans.jsonl.gz")
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    report(run, line, record)
    print(json.dumps(line), flush=True)
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gatekeeper" / "__init__.py").is_file():
        print(f"error: no gatekeeper source tree at {ROOT / 'src'}; "
              "run the benchmark from a full checkout", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    lines = [run_workload(w, args.seed, seconds, bool(args.trace)) for w in names]
    return 0 if all(line["correct"] for line in lines) else 1


if __name__ == "__main__":
    sys.exit(main())
