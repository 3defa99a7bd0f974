"""One fresh benchmark process: set up, make one CLI call, check its outputs.

run.py starts one of these per sample so that every call pays the start-up a
user pays:

    python3 worker.py ROOT WORKLOAD SEED WORK_DIR LAUNCH_T MODE

MODE is `probe` (set up and exit), `call` (untimed set-up, one timed call,
gates) or `traced` (the same with spans around the package's functions).
LAUNCH_T is the parent's time.monotonic() just before it started this
process; CLOCK_MONOTONIC is system-wide, so set-up time is measured from
process start to the moment the CLI call begins.  The result is written to
WORK_DIR/result.json.

The host's speed drifts by tens of percent over minutes (other tenants of
the machine), so every worker times fixed calibration kernels and reports
their mean time over REFERENCE_S as a slowdown; run.py divides wall times by
it, which reports them at reference speed.  Set-up is scaled by the kernels
timed right after it (`setup_slowdown`).  An untraced call (`call`) is
scaled by short kernels that a timer signal runs every SAMPLE_PERIOD_S during
the call (`slowdown`); their time is taken off the call's wall time.  In a
trial on `design`-like work (2-core x86 VM) this cut the scatter of
reference-speed call times from 9 % (kernels before and after the call) to
6 %.  A traced call is scaled by the kernels before and after it, so that
no kernel time lands in its spans.
"""
from __future__ import annotations

import json
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

# Kernel times on the 2-core x86 VM the benchmark was built on, at its median speed.
REFERENCE_S = {"python": 0.040, "numpy": 0.040, "blas": 0.150}


SAMPLE_PERIOD_S = 0.5
SAMPLE_FRACTION = 0.1  # in-call kernels are this share of the full ones, ~25 ms
_INPUTS = {}


def _inputs() -> dict:
    import numpy as np

    if not _INPUTS:
        rng = np.random.default_rng(0)
        _INPUTS.update(a=rng.random((155, 154)), b=rng.random(155), x=rng.random((20_000, 4)),
                       y=rng.random((20_000, 4)), ones=np.ones(4))
    return _INPUTS


def calibrate(fraction: float = 1.0) -> float:
    """Slowdown of the host now: mean over the kernels of time / reference.

    `fraction` < 1 runs that share of each kernel's loop and scales its time up.
    """
    import numpy as np

    k = _inputs()
    x, y, ones, a, b = k["x"], k["y"], k["ones"], k["a"], k["b"]
    loops = {"python": 150_000, "numpy": 60, "blas": 40}
    n = {name: max(1, round(count * fraction)) for name, count in loops.items()}
    times = {}
    start = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(n["python"]):  # interpreter: integer and float arithmetic, dict stores
        acc += ((i * 2654435761) % 1_000_003) * 1e-6
        table[i & 1023] = acc
    times["python"] = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(n["numpy"]):   # numpy: element-wise selects and a small matvec
        np.where(x < 0.5, y, 2.0 * x) @ ones
    times["numpy"] = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(n["blas"]):    # BLAS/LAPACK: a least-squares solve of a queue-chain size
        np.linalg.lstsq(a, b, rcond=None)
    times["blas"] = time.perf_counter() - start
    return statistics.fmean(times[name] * loops[name] / n[name] / REFERENCE_S[name]
                            for name in REFERENCE_S)


class SpeedSampler:
    """Times short calibration kernels from SIGALRM while a call runs.

    Python runs the handler in the main thread between two bytecodes of the
    call, so the call's state is never touched; `spent` is the handler time
    to take off the call's wall time.
    """

    def __init__(self):
        self.slowdowns: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        self.slowdowns.append(calibrate(SAMPLE_FRACTION))
        self.spent += time.perf_counter() - start
        self._busy = False

    def __enter__(self) -> "SpeedSampler":
        _inputs()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def _provenance(version: str, config: dict) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas_version = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_version, "gatekeeper": version, "config": config}


def main(argv: list[str]) -> int:
    root, workload, seed, work, launch_t, mode = argv
    root, work, seed, launch_t = Path(root), Path(work), int(seed), float(launch_t)
    src = root / "src"
    sys.path.insert(0, str(src))
    import gatekeeper
    from gatekeeper import cli

    if Path(gatekeeper.__file__).resolve().parent != (src / "gatekeeper").resolve():
        raise RuntimeError(f"imported gatekeeper from {gatekeeper.__file__}, not {src}")
    import spans
    import workloads

    config = workloads.build_config(workload, seed)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=1, sort_keys=True), encoding="utf-8")
    out_dir = work / "out"
    argv_cli = [workloads.SUBCOMMAND[workload], "--config", str(config_path), "--out", str(out_dir)]
    items = workloads.count_items(workload, config)
    recorder = spans.Recorder(f"{workload}-{seed}-{work.name}") if mode == "traced" else None
    if recorder is not None:
        recorder.install()

    call_t = time.monotonic()  # the CLI call begins here
    setup_s = call_t - launch_t
    before = calibrate()
    result = {"mode": mode, "setup_s": setup_s, "items": items, "setup_slowdown": before}
    if mode != "probe":
        error = None
        sampler = SpeedSampler() if mode == "call" else None
        start = time.perf_counter()
        try:
            if sampler is not None:
                with sampler:
                    code = cli.main(argv_cli)
            else:
                code = recorder.call_root(cli.main, argv_cli)
        except Exception:  # a crash of the call is a failed operation, reported below
            code, error = None, traceback.format_exc(limit=4)
        wall = time.perf_counter() - start
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if sampler is not None and sampler.slowdowns:
            wall -= sampler.spent
            slowdown = statistics.fmean(sampler.slowdowns)
            result.update(sampler_s=sampler.spent, speed_samples=len(sampler.slowdowns))
        else:
            slowdown = (before + calibrate()) / 2
        if recorder is not None:
            recorder.uninstall()
        result.update(call_s=wall, exit_code=code, error=error, slowdown=slowdown)
        if code == 0:
            result["failed_items"] = workloads.count_failed(workload, out_dir)
            try:
                gates = workloads.check_outputs(workload, config, seed, out_dir)
            except Exception:  # a gate that cannot run is a failed gate
                gates = [workloads.Gate(f"{workload}.gates", False, traceback.format_exc(limit=2))]
            result["gates"] = [g.__dict__ for g in gates]
        else:
            result["failed_items"] = items
            result["gates"] = []
        if recorder is not None:
            done = recorder.finished()
            layers = spans.layer_metrics(done)
            layers["cli.rows_written"] = workloads.count_rows(out_dir) if code == 0 else 0
            layers["simulate.miss_3sigma"] = workloads.count_sim_misses(out_dir)
            # Tracing overhead is modelled, not read off traced-vs-untraced
            # wall times: their gap is smaller than the host's noise.
            cost = spans.span_cost()
            added = layers["trace.spans"] * cost
            layers["trace.span_cost_ns"] = 1e9 * cost
            layers["trace.overhead_frac"] = added / max(wall - added, 1e-9)
            layers["trace.layer_frac"] = layers.pop("trace.layers_s") / wall
            result["layers"] = layers
            recorder.write(work / "spans.jsonl.gz")
    else:
        result["provenance"] = _provenance(gatekeeper.__version__, config)
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
