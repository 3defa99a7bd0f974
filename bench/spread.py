"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload study --seeds 1-10 [--seconds S] [--out FILE]

Runs run.py untraced once per seed, one after another, for --seconds (default:
BENCHMARK.json's run_seconds, which run.py reads itself), and prints for each
end-to-end metric of the last stdout line the median, the quartiles (statistics.quantiles, n=4)
and the interquartile range as a share of the median, next to the bound in
BENCHMARK.json.  --out saves the raw result lines and the summary as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(lines: list[dict], bounds: dict[str, float]) -> dict:
    out = {}
    for name in lines[0]["metrics"]:
        values = [line["metrics"][name]["value"] for line in lines]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {
            "median": med, "q1": q1, "q3": q3,
            "iqr_frac": (q3 - q1) / med if med else 0.0,
            "bound": bounds[name],
            "unit": lines[0]["metrics"][name]["unit"],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    seconds = [] if args.seconds is None else ["--seconds", str(args.seconds)]
    lines = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--trace", "0", *seconds],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        lines.append(line)
        shown = ", ".join(f"{k}={v['value']:.6g}" for k, v in line["metrics"].items())
        print(f"seed {seed}: correct={line['correct']} failed={line['failed']} {shown}", flush=True)
        if not line["correct"]:
            print(proc.stdout, file=sys.stderr)

    summary = summarize(lines, bounds)
    for name, s in summary.items():
        print(f"{name:45s} median {s['median']:.6g} {s['unit']}  q1 {s['q1']:.6g}  "
              f"q3 {s['q3']:.6g}  iqr/median {s['iqr_frac']:.4f}  (bound {s['bound']:g})")
    if args.out is not None:
        args.out.write_text(json.dumps({"workload": args.workload, "seconds": args.seconds,
                                        "lines": lines, "summary": summary}, indent=1) + "\n",
                            encoding="utf-8")
    return 0 if all(line["correct"] for line in lines) else 1


if __name__ == "__main__":
    sys.exit(main())
