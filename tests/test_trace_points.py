"""The benchmark's trace points still name functions of the package.

`bench/spans.py` wraps each layer of `TRACE_POINTS` by name and skips a name
that no module holds, so a renamed function would silently read 0 in every
per-layer metric instead of failing.
"""
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _trace_points():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(mod)
    return mod.TRACE_POINTS


def test_every_layer_names_a_function_of_its_home_module():
    missing = []
    for layer, _, _ in _trace_points():
        home, attr = layer.split(".", 1)
        if not callable(getattr(importlib.import_module(f"gatekeeper.{home}"), attr, None)):
            missing.append(layer)
    assert missing == []


def test_stationary_solver_takes_the_matrix_first():
    # the layer's note reads the state count from its first argument, P
    from gatekeeper.evaluate import stationary_distribution

    assert next(iter(inspect.signature(stationary_distribution).parameters)) == "P"
