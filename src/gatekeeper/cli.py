"""Command-line entry point: every experiment as a subcommand over JSON configs.

Each run reads one JSON config, writes CSV artifacts plus a run manifest into
--out, and exits 0 on success, 2 on validation failure or a malformed command
line, 3 on non-convergence, 64 on an unknown subcommand.  A flag is given as
`--flag value` or `--flag=value`, never abbreviated; `-h` or `--help` anywhere
prints the usage.  Identical config and seed produce byte-identical artifacts.
"""
from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import market as mkt
from . import structure, waiting_room
from .artifacts import config_hash, fmt, write_columns, write_csv, write_manifest
from .evaluate import n_states
from .model import (
    CONGESTION_STATES,
    EconomicParams,
    GeneratorConfig,
    ProblemInstance,
    ResolutionProfile,
    as_int,
    as_real,
    as_seed,
    check_keys,
    instance_from_json,
    policy_from_names,
)
from .simulate import WARMUP, validate_target
from .solve import (
    EnumerationCapError,
    backward_induction,
    enumerate_policies,
    solve_average_reward,
    stationary_terminals,
    verify_stationarity,
    zero_terminals,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_USAGE = 64

class ValidationFailure(Exception):
    pass


class ConvergenceFailure(Exception):
    pass


@contextmanager
def _fit(what: str, n_floats: int):
    """Run work that holds at least `n_floats` floats.  Past any float array,
    or out of memory, it fails validation: "{what} do not fit in memory"."""
    try:
        if n_floats > sys.maxsize // 8:
            raise MemoryError
        yield
    except MemoryError:
        raise ValidationFailure(f"{what} do not fit in memory") from None


@dataclass
class RunConfig:
    subcommand: str
    config: dict
    out_dir: Path
    seed: Optional[int] = None

    def seeded(self) -> int:
        """The run's seed: --seed, else the config's seed, else generator.seed, else 0."""
        if self.seed is not None:
            return as_seed(self.seed)
        gen = self.config.get("generator")
        return as_seed(self.config.get("seed", gen.get("seed", 0) if isinstance(gen, dict) else 0))


def _load_instance(config: dict) -> ProblemInstance:
    if "instance" not in config:
        raise ValidationFailure("config must contain an 'instance' object")
    return instance_from_json(config["instance"])


def _comments(cfg: RunConfig) -> list[str]:
    return [f"config_sha256={config_hash(cfg.config)}", f"seed={cfg.seeded()}"]


def _run_solve(cfg: RunConfig) -> list[str]:
    inst = _load_instance(cfg.config)
    pol, ev = solve_average_reward(inst)
    comments = _comments(cfg)

    rows = []
    for x in range(1, inst.S):
        rule = pol.rule_after(x)
        for (qf, af) in CONGESTION_STATES:
            rows.append((x, qf, af, rule.action(qf, af).name.lower(), rule.name))
    write_csv(cfg.out_dir / "policy.csv", ("X", "Q", "A", "action", "rule"), rows, comments)

    ev_rows = [("summary", "R", ev.R)]
    for key, val in ev.perf.to_json_dict().items():
        ev_rows.append(("summary", key, val))
    ev_rows += [("pi", lbl, p) for lbl, p, _ in ev.state_rows()]
    ev_rows += [("G", lbl, g) for lbl, _, g in ev.state_rows()]
    write_csv(cfg.out_dir / "evaluation.csv", ("section", "key", "value"), ev_rows, comments)

    _write_classification(cfg, inst, ev.R)
    return ["policy.csv", "evaluation.csv", "classification.csv"]


def _write_classification(cfg: RunConfig, inst: ProblemInstance,
                          r_star: float) -> structure.CaseClassification:
    cls = structure.classify_case(inst, r_star)
    th = structure.compute_thresholds(inst)
    rows = [
        (qf, af, th.value(qf, af), cls.mode(qf, af), cls.case_label)
        for (qf, af) in CONGESTION_STATES
    ]
    write_csv(cfg.out_dir / "classification.csv",
              ("Q", "A", "Rth", "preferred_mode", "case_label"), rows, _comments(cfg))
    return cls


def _run_enumerate(cfg: RunConfig) -> list[str]:
    inst = _load_instance(cfg.config)
    ruleset = cfg.config.get("ruleset", "table-1")
    cap = as_int(cfg.config.get("cap", 10_000_000), "cap")
    top = cfg.config.get("top")
    if top is not None:
        top = as_int(top, "top")
        if top < 0:
            raise ValidationFailure(f"top must be nonnegative, got {top}")
    ranked = enumerate_policies(inst, ruleset=ruleset, cap=cap)[:top]
    rows = [
        (rank + 1, "|".join(pol.names), R)
        for rank, (pol, R) in enumerate(ranked)
    ]
    write_csv(cfg.out_dir / "ranking.csv", ("rank", "policy", "R"), rows, _comments(cfg))
    return ["ranking.csv"]


def _run_stationarity(cfg: RunConfig) -> list[str]:
    inst = _load_instance(cfg.config)
    T = as_int(cfg.config.get("T", 200), "T")
    terminals = cfg.config.get("terminals", "stationary")
    write_values = cfg.config.get("write_values", False)
    if terminals not in ("stationary", "zero"):
        raise ValidationFailure(f"terminals must be 'stationary' or 'zero', got {terminals!r}")
    if not isinstance(write_values, bool):
        raise ValidationFailure(f"write_values must be true or false, got {write_values!r}")
    terms = (zero_terminals(inst) if terminals == "zero"
             else stationary_terminals(solve_average_reward(inst)[1]))
    with _fit(f"T = {T} is too long a horizon: its values", 2 * (T + 1) * n_states(inst.S)):
        sol, = backward_induction([inst], T, [terms])
    stationary, first = verify_stationarity(sol)

    acts = np.array(("continue", "warm", "cold"))[sol.argmax[1:].ravel()]
    t, x, qa = np.indices(sol.argmax[1:].shape).reshape(3, -1)
    qf, af = np.array(CONGESTION_STATES)[qa].T
    write_columns(cfg.out_dir / "argmax.csv", ("t", "X", "Q", "A", "action"),
                  [col.tolist() for col in (t + 1, x + 1, qf, af, acts)], _comments(cfg))
    outputs = ["argmax.csv"]
    if write_values:
        t, j = np.indices(sol.V[1:].shape).reshape(2, -1)
        write_columns(cfg.out_dir / "values.csv", ("t", "state", "V"),
                      [col.tolist() for col in (t + 1, np.array(sol.labels)[j], sol.V[1:].ravel())],
                      _comments(cfg))
        outputs.append("values.csv")
    verdict = "stationary" if stationary else f"violation at (t,X,Q,A)={first}"
    print(f"stationarity: {verdict}")
    return outputs


def _run_classify(cfg: RunConfig) -> list[str]:
    inst = _load_instance(cfg.config)
    if "r_star" in cfg.config:
        r_star = as_real(cfg.config["r_star"], "r_star")
    else:
        r_star = solve_average_reward(inst)[1].R
    cls = _write_classification(cfg, inst, r_star)
    print(f"case {cls.case_label}; admissible rules: {', '.join(cls.admissible)}")
    return ["classification.csv"]


def _run_wspt(cfg: RunConfig) -> list[str]:
    inst = _load_instance(cfg.config)
    res = structure.check_wspt(inst)
    rows = [(res.condition, int(res.holds),
             res.first_violation if res.first_violation is not None else "")]
    write_csv(cfg.out_dir / "wspt.csv",
              ("condition", "holds", "first_violation"), rows, _comments(cfg))
    print(f"wspt: {res.status}")
    return ["wspt.csv"]


def _run_threshold_study(cfg: RunConfig) -> list[str]:
    gen = _section(GeneratorConfig, cfg.config.get("generator", {}), "generator")
    gen_cfg = GeneratorConfig(**{**gen, "seed": cfg.seeded()})
    n = as_int(cfg.config.get("n_instances", 100), "n_instances")
    s_list = cfg.config.get("S_list", [gen_cfg.S])
    if not isinstance(s_list, list):
        raise ValidationFailure(f"'S_list' must be a JSON list, got {s_list!r}")
    if not s_list:
        raise ValidationFailure("S_list must list at least one S")
    s_list = [as_int(s, "S_list entry") for s in s_list]
    # a block of n instances, 2 S + 6 floats each
    with _fit(f"n_instances = {n} is too large: its instances", n * (2 * max(s_list) + 6)):
        report = structure.run_heuristic_study(gen_cfg, n, s_list)
    rows = [
        (row.S, row.n_instances, row.frac_threshold_opt, row.mean_gap_pct,
         row.max_gap_pct, row.seed_lo, row.seed_hi)
        for row in report.rows
    ]
    write_csv(cfg.out_dir / "study.csv",
              ("S", "n", "frac_threshold_opt", "mean_gap_pct", "max_gap_pct",
               "seed_lo", "seed_hi"), rows, _comments(cfg))
    return ["study.csv"]


def _section(cls, spec: dict, name: str, fixed: str = "") -> dict:
    """Keyword arguments of cls from a config section, lists as tuples; a key
    that is no field of cls, or is the field `fixed` that the run sets
    itself, is a validation failure that names it."""
    check_keys(spec, name, {f.name for f in fields(cls)} - {fixed})
    return {k: tuple(v) if isinstance(v, list) else v for k, v in spec.items()}


def _load_queue_model(config: dict) -> waiting_room.QueueModel:
    if "queue" not in config:
        raise ValidationFailure("config must contain a 'queue' object")
    spec = config["queue"]
    check_keys(spec, "queue", ("N", "tau", "rho", "r", "c_c", "q"))
    base = waiting_room.default_queue_model()
    return waiting_room.QueueModel(
        N=spec.get("N", base.N),
        profile=ResolutionProfile(spec.get("tau", base.profile.tau),
                                  spec.get("rho", base.profile.rho)),
        econ=EconomicParams(r=spec.get("r", base.econ.r), c_w=0.0,
                            c_c=spec.get("c_c", base.econ.c_c), tau_w=1),
        q=spec.get("q", base.q),
    )


_Q_GRID = {"start": 0.01, "stop": 1.0, "step": 0.01}


def _q_grid(config: dict) -> tuple[int, Callable[[], list[float]]]:
    """The count of the config's q values and their builder, so that a range's
    chains can be checked to fit before its points are built."""
    grid = config.get("q_grid", _Q_GRID)
    if isinstance(grid, list):
        if not grid:
            raise ValidationFailure("q_grid must list at least one q")
        values = [as_real(v, "q_grid entry") for v in grid]
        return len(values), lambda: values
    check_keys(grid, "q_grid", _Q_GRID)
    start, stop, step = (as_real(grid.get(k, v), f"q_grid.{k}") for k, v in _Q_GRID.items())
    if step <= 0:
        raise ValidationFailure(f"q_grid.step must be positive, got {step}")
    if start > stop:
        raise ValidationFailure(f"q_grid.start {start} exceeds q_grid.stop {stop}")
    # start + i step up to stop, which round-off may put a hair past a step
    n = math.floor((stop - start) / step + 1e-9) + 1
    # the points' array is held before they are rounded: a grid past memory fails at once
    return n, lambda: [round(v, 10) for v in (start + step * np.arange(n)).tolist()]


def _room(model: waiting_room.QueueModel, lanes: int) -> tuple[str, int]:
    """The waiting room by its N and tau, and at least the floats of its solve
    over `lanes` (policy, q) lanes: level blocks and a π each, of tau1 + tau2 + 1 phases a level."""
    m = model.tau1 + model.tau2 + 1
    return (f"the waiting room of N = {model.N} and tau = {list(model.profile.tau)}",
            (model.N + 1) * m * (6 * (m + 1) + lanes))


def _run_queue_sweep(cfg: RunConfig) -> list[str]:
    model = _load_queue_model(cfg.config)
    n, points = _q_grid(cfg.config)
    room, floats = _room(model, (model.N + 2) * n)
    with _fit(f"{room} is too large: its chains over q_grid's {n} points", floats):
        sweep = waiting_room.sweep_queue_policies(model, points())
    comments = _comments(cfg) + [
        f"policies={len(sweep.policies)} q_points={len(sweep.q_grid)}"
    ]
    write_columns(cfg.out_dir / "sweep.csv",
                  ("policy", "q", "profit", "throughput", "transfer_rate", "blocking_rate"),
                  [[label for label in sweep.policies for _ in sweep.q_grid],
                   list(sweep.q_grid) * len(sweep.policies),
                   *sweep.rates[..., :4].reshape(-1, 4).T.tolist()],
                  comments)
    return ["sweep.csv"]


def _run_design(cfg: RunConfig) -> list[str]:
    inst = _load_instance(cfg.config) if "instance" in cfg.config else mkt.default_design_instance()
    market = mkt.MarketParams(**_section(mkt.MarketParams, cfg.config.get("market", {}), "market"))
    prefs = mkt.CustomerPrefs(**_section(mkt.CustomerPrefs, cfg.config.get("prefs", {}), "prefs"))
    bot = mkt.BotChannel(p_succ=0.0, **_section(mkt.BotChannel, cfg.config.get("bot", {}), "bot",
                                                 fixed="p_succ"))
    if cfg.config.get("wage") is not None:
        inst = replace(inst, econ=replace(inst.econ, c_wage=as_real(cfg.config["wage"], "wage")))
    cells = market.k_max * len(market.p_grid)   # at least; each a row of design.csv, 12 columns
    with _fit(f"k_max = {market.k_max} is too large: its design cells", 12 * cells):
        search = mkt.optimize_design(inst, market, prefs, bot)
    grid = search.grid
    write_columns(cfg.out_dir / "design.csv",
                  ("k", "policy", "p_succ", "profit", "q_agent", "q_bot",
                   "share_agent", "share_bot", "share_balk", "converged",
                   "iterations", "residual"),
                  [a.tolist() for a in (grid.k, grid.policy, grid.p_succ, search.profit, grid.q,
                                        grid.q_bot, *grid.shares[:3], grid.converged,
                                        grid.iterations, abs(grid.g))],
                  _comments(cfg))
    best = search.best
    print(
        f"best design: k={best.design.k_agent} policy={best.design.policy} "
        f"p_succ={best.design.p_succ} profit={fmt(best.profit)}"
    )
    if not best.converged:
        raise ConvergenceFailure("the best design's demand fixed point did not converge")
    return ["design.csv"]


def _run_simulate(cfg: RunConfig) -> list[str]:
    config = cfg.config
    horizon = as_int(config.get("horizon", 100_000), "horizon")
    seed = cfg.seeded()
    specs = config.get("targets", [])
    if not isinstance(specs, list):
        raise ValidationFailure(f"'targets' must be a JSON list, got {specs!r}")
    targets = []
    for i, spec in enumerate(specs):
        if not isinstance(spec, dict):
            raise ValidationFailure(f"target {i} must be a JSON object, got {spec!r}")
        kind = "instance" if "instance" in spec else "queue"
        check_keys(spec, f"target {i}", (kind, "policy"))
        if "policy" not in spec:
            raise ValidationFailure(f"target {i} is missing key 'policy'")
        if kind not in spec:
            raise ValidationFailure("each target needs an 'instance' or 'queue' object")
        policy = spec["policy"]
        labels = policy if kind == "instance" else [policy]
        if not (isinstance(labels, list) and all(isinstance(label, str) for label in labels)):
            shape = "a list of rule labels" if kind == "instance" else "a label string"
            raise ValidationFailure(f"target {i}: the policy must be {shape}, got {policy!r}")
        if kind == "instance":
            targets.append((instance_from_json(spec["instance"]), policy_from_names(policy)))
        else:
            targets.append((_load_queue_model(spec), waiting_room.queue_policy_from_label(policy)))
    if not targets:
        raise ValidationFailure("config must list at least one target")
    rows = []
    for i, (subject, pol) in enumerate(targets):
        # a target holds its rewards and, for a waiting room, its chain: name the larger
        room, floats = _room(subject, 1) if isinstance(subject, waiting_room.QueueModel) else ("", 0)
        what = (f"horizon = {horizon} is too long: its rewards" if WARMUP + horizon >= floats
                else f"target {i}, {room}, is too large: its chain's arrays")
        with _fit(what, max(WARMUP + horizon, floats)):
            rep = validate_target(i, (subject, pol), horizon, seed)
        rows.append((i, rep.kind, rep.analytic, rep.mean, rep.se, rep.passed))
    write_csv(cfg.out_dir / "sim.csv",
              ("target", "kind", "analytic", "mean", "se", "pass_3sigma"),
              rows, _comments(cfg))
    n_pass = sum(row[-1] for row in rows)
    print(f"cross-validation: {n_pass}/{len(rows)} targets within 3 sigma")
    return ["sim.csv"]


_RUNNERS = {
    "solve": _run_solve,
    "enumerate": _run_enumerate,
    "stationarity": _run_stationarity,
    "classify": _run_classify,
    "wspt": _run_wspt,
    "threshold-study": _run_threshold_study,
    "queue-sweep": _run_queue_sweep,
    "design": _run_design,
    "simulate": _run_simulate,
}
SUBCOMMANDS = tuple(_RUNNERS)


def _apply_overrides(config: dict, overrides: list[str]) -> dict:
    for item in overrides:
        if "=" not in item:
            raise ValidationFailure(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = config
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ValidationFailure(f"override {key!r} goes through {part!r}, not a JSON object")
        node[parts[-1]] = value
    return config


def usage() -> str:
    return (
        "usage: gatekeeper SUBCOMMAND --config PATH [--out DIR] [--seed U64] "
        "[--set key=value ...]\n"
        "subcommands: " + ", ".join(SUBCOMMANDS)
    )


def run(cfg: RunConfig) -> int:
    """Dispatch a run; returns the process exit code and writes artifacts."""
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    try:
        cfg.seeded()   # a seed outside [0, 2**64) fails before any work
        outputs = _RUNNERS[cfg.subcommand](cfg)
    except (ValidationFailure, ValueError, EnumerationCapError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ConvergenceFailure, RuntimeError) as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    write_manifest(cfg.out_dir, cfg.subcommand, cfg.config, cfg.seeded(), outputs)
    return EXIT_OK


def _parse_flags(args: list[str]) -> dict:
    """The flags after the subcommand, each `--flag value` or `--flag=value`,
    the value taken whatever it looks like; --set repeats, else the last wins."""
    opts = {"--out": "out", "--seed": None, "--set": []}
    tokens = iter(args)
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag not in ("--config", "--out", "--seed", "--set"):
            raise ValidationFailure(f"unknown argument {token!r}")
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise ValidationFailure(f"{flag} needs a value")
        opts[flag] = [*opts[flag], value] if flag == "--set" else value
    if "--config" not in opts:
        raise ValidationFailure("--config PATH is required")
    try:
        opts["--seed"] = None if opts["--seed"] is None else int(opts["--seed"])
    except ValueError:
        raise ValidationFailure(f"--seed must be an integer, got {opts['--seed']!r}") from None
    return opts


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or "-h" in argv or "--help" in argv:
        print(usage())
        return EXIT_OK
    sub = argv[0]
    if sub not in SUBCOMMANDS:
        print(usage(), file=sys.stderr)
        return EXIT_USAGE
    try:
        opts = _parse_flags(argv[1:])
    except ValidationFailure as exc:
        print(f"{usage()}\nerror: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    config_path = Path(opts["--config"])
    try:
        config = json.loads(config_path.read_text(encoding="utf-8"))
        if not isinstance(config, dict):
            raise ValidationFailure("the config must be a JSON object")
        config = _apply_overrides(config, opts["--set"])
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        print(f"validation failure: cannot read config file {config_path}: {reason}",
              file=sys.stderr)
        return EXIT_VALIDATION
    except (json.JSONDecodeError, ValidationFailure) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    return run(RunConfig(sub, config, Path(opts["--out"]), opts["--seed"]))


if __name__ == "__main__":
    sys.exit(main())
