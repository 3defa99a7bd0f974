"""Span recording around the package's public functions, and per-layer metrics.

A traced call wraps each function below at the names its callers look it up
(for example `gatekeeper.market.evaluate_policy`), so nothing under `src/`
changes.  Each call records one span: id, parent id, layer name, start, end
and a small note taken from its arguments or result.  Spans stay in memory
and are written out once the call ends.  The program is single-threaded, so a
stack gives each span its parent and child spans never overlap.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import json
import math
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

ROOT = "cli"


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int        # -1 for the root
    name: str
    start: float
    end: float
    note: Any = None   # layer-specific size or outcome; None when the call raised

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rows_and_S(args, kwargs, out):
    inst = kwargs.get("inst", args[0] if args else None)
    actions = kwargs.get("actions", args[1] if len(args) > 1 else None)
    return [int(actions.shape[0]), int(inst.S)]


def _n_states(args, kwargs, out):
    P = kwargs.get("P", args[0] if args else None)
    return int(P.shape[0])


def _horizon(args, kwargs, out):
    return int(kwargs.get("horizon", args[2] if len(args) > 2 else 0))


def _queue_states(args, kwargs, out):
    return len(out.states)


def _equilibrium(args, kwargs, out):
    return [int(out.iterations), bool(out.converged)]


# (layer, modules whose attribute is replaced, note function)
TRACE_POINTS: tuple[tuple[str, tuple[str, ...], Optional[Callable]], ...] = (
    ("model.generate_instance", ("model", "structure"), None),
    ("model.validate_instance", ("model", "evaluate", "solve", "structure", "simulate", "cli"), None),
    ("evaluate.average_reward_batch", ("evaluate", "structure", "solve"), _rows_and_S),
    ("evaluate.evaluate_policy", ("evaluate", "solve", "market", "simulate"), None),
    ("evaluate.build_chain", ("evaluate",), None),
    ("evaluate.stationary_distribution", ("evaluate", "waiting_room"), _n_states),
    ("solve.solve_average_reward", ("solve", "market", "cli"), None),
    ("structure.run_heuristic_study", ("structure",), None),
    ("waiting_room.evaluate_queue_policy", ("waiting_room", "simulate"), _queue_states),
    ("simulate.simulate_policy", ("simulate",), _horizon),
    ("simulate.simulate_queue", ("simulate",), _horizon),
    ("market.solve_equilibrium", ("market",), _equilibrium),
    ("market.compute_demand_shares", ("market",), None),
)


class Recorder:
    """Holds the spans of one traced call and the wrappers that make them."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Optional[Span]] = []
        self._stack: list[int] = []
        self._installed: list[tuple[Any, str, Any]] = []

    def _open(self) -> tuple[int, int]:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int, name: str, start: float, note: Any) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[sid] = Span(sid, parent, name, start, end, note)

    def wrap(self, name: str, fn: Callable, note: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = time.perf_counter()
            value = None
            try:
                out = fn(*args, **kwargs)
                value = note(args, kwargs, out) if note is not None else None
                return out
            finally:
                self._close(sid, parent, name, start, value)

        return traced

    def call_root(self, fn: Callable, *args):
        """Run fn(*args) as the root span; every traced call nests under it."""
        return self.wrap(ROOT, fn)(*args)

    def install(self, package: str = "gatekeeper") -> None:
        """Replace every trace point that exists in the imported package."""
        for layer, modules, note in TRACE_POINTS:
            attr = layer.split(".", 1)[1]
            for mod_name in modules:
                mod = importlib.import_module(f"{package}.{mod_name}")
                orig = getattr(mod, attr, None)
                if orig is None:
                    continue
                self._installed.append((mod, attr, orig))
                setattr(mod, attr, self.wrap(layer, orig, note))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._installed):
            setattr(mod, attr, orig)
        self._installed.clear()

    def finished(self) -> list[Span]:
        return [s for s in self.spans if s is not None]

    def write(self, path: Path) -> None:
        """Spans as gzip'd JSON lines: [id, parent, name, start, end, note]."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"run_id": self.run_id}) + "\n")
            for s in self.finished():
                fh.write(json.dumps([s.sid, s.parent, s.name, s.start, s.end, s.note]) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its child spans cover."""
    own = {s.sid: s.duration for s in spans}
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def _pct(values: list[float], p: float) -> float:
    """Nearest-rank percentile; 0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced call (0 for a layer it never called)."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    names = {s.sid: s.name for s in spans}

    def calls(name):
        return len(by_name[name])

    def self_s(name):
        return sum(own[s.sid] for s in by_name[name])

    def durations(name):
        return [s.duration for s in by_name[name]]

    m: dict[str, float] = {}
    for layer in [point[0] for point in TRACE_POINTS] + [ROOT]:
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.self_s"] = self_s(layer)

    batches = [s.note for s in by_name["evaluate.average_reward_batch"] if s.note]
    m["evaluate.average_reward_batch.policies"] = sum(rows for rows, _ in batches)
    m["structure.table1_policies"] = sum(rows for rows, S in batches if rows == 11 ** (S - 1))
    m["structure.threshold_policies"] = sum(rows for rows, S in batches if rows == (2 * S - 1) ** 4)

    ev = durations("evaluate.evaluate_policy")
    m["evaluate.evaluate_policy.p50_us"] = 1e6 * _pct(ev, 0.50)
    m["evaluate.evaluate_policy.p99_us"] = 1e6 * _pct(ev, 0.99)
    sizes = [s.note for s in by_name["evaluate.stationary_distribution"] if s.note]
    m["evaluate.stationary_distribution.states_mean"] = sum(sizes) / len(sizes) if sizes else 0.0

    n_solve = calls("solve.solve_average_reward")
    solve_evals = sum(1 for s in by_name["evaluate.evaluate_policy"]
                      if names.get(s.parent) == "solve.solve_average_reward")
    m["solve.solve_average_reward.evals_per_call"] = solve_evals / n_solve if n_solve else 0.0

    qstates = [s.note for s in by_name["waiting_room.evaluate_queue_policy"] if s.note]
    m["waiting_room.evaluate_queue_policy.states"] = sum(qstates) / len(qstates) if qstates else 0.0

    for sim in ("simulate.simulate_policy", "simulate.simulate_queue"):
        periods = sum(s.note or 0 for s in by_name[sim])
        m[f"{sim}.periods"] = periods
        m[f"{sim}.ns_per_period"] = 1e9 * self_s(sim) / periods if periods else 0.0

    eq = by_name["market.solve_equilibrium"]
    outcomes = [s.note for s in eq if s.note]
    dur = durations("market.solve_equilibrium")
    m["market.solve_equilibrium.p50_ms"] = 1e3 * _pct(dur, 0.50)
    m["market.solve_equilibrium.p99_ms"] = 1e3 * _pct(dur, 0.99)
    m["market.fp_iters"] = sum(it for it, _ in outcomes)
    m["market.fp_iters_unconverged"] = sum(it for it, ok in outcomes if not ok)
    m["market.converged_ratio"] = (sum(1 for _, ok in outcomes if ok) / len(outcomes)
                                   if outcomes else 0.0)
    m["trace.spans"] = len(spans)
    m["trace.layers_s"] = sum(t for sid, t in own.items() if names[sid] != ROOT)
    return m


def span_cost() -> float:
    """Seconds one span adds to a call: a wrapped no-op minus a bare one, best of 5 x 20,000."""
    n, repeats = 20_000, 5

    def noop():
        return None

    rec = Recorder("span-cost")
    wrapped = rec.wrap("noop", noop)
    best = math.inf
    for _ in range(repeats):
        rec.spans.clear()
        t0 = time.perf_counter()
        for _ in range(n):
            wrapped()
        t1 = time.perf_counter()
        for _ in range(n):
            noop()
        t2 = time.perf_counter()
        best = min(best, ((t1 - t0) - (t2 - t1)) / n)
    return max(best, 0.0)
