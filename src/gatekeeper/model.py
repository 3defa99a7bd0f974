"""Domain model for a gatekeeper service channel.

A channel is described by a resolution profile (an ordered list of attempts,
each with an integer processing time and a conditional success probability,
the last attempt always succeeding), the channel economics (revenue, warm and
cold transfer fees, handoff duration, wage) and the traffic environment
(per-period arrival and expert-availability probabilities).  After every
failed attempt the agent applies a decision rule mapping the observed
congestion state (Q, A) to one of three actions: continue with the next
attempt, warm transfer, or cold transfer.
"""
from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass, replace
from enum import IntEnum
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

# Congestion states (Q, A) in canonical column order.  Q = 1 iff an arrival is
# waiting upstream, A = 1 iff an expert is available downstream.
CONGESTION_STATES: tuple[tuple[int, int], ...] = ((0, 0), (1, 0), (0, 1), (1, 1))
QA_INDEX = {qa: i for i, qa in enumerate(CONGESTION_STATES)}


class Action(IntEnum):
    """Action after a failed attempt. Enum order doubles as tie-break priority."""

    CONTINUE = 0
    WARM = 1
    COLD = 2

    @property
    def letter(self) -> str:
        return "nwc"[int(self)]


_ACTION_FROM_LETTER = {"n": Action.CONTINUE, "w": Action.WARM, "c": Action.COLD}


@dataclass(frozen=True)
class DecisionRule:
    """One action per congestion state, ordered as CONGESTION_STATES."""

    actions: tuple[Action, Action, Action, Action]
    label: Optional[str] = None

    def action(self, q: int, a: int) -> Action:
        return self.actions[QA_INDEX[(q, a)]]

    @property
    def letters(self) -> str:
        """Compact encoding, one of n/w/c per state (n = continue)."""
        return "".join(act.letter for act in self.actions)

    @property
    def name(self) -> str:
        return self.label if self.label is not None else self.letters

    @classmethod
    def from_letters(cls, letters: str, label: Optional[str] = None) -> "DecisionRule":
        if len(letters) != 4 or any(ch not in _ACTION_FROM_LETTER for ch in letters):
            raise ValueError(f"decision rule must be 4 letters from 'nwc', got {letters!r}")
        return cls(tuple(_ACTION_FROM_LETTER[ch] for ch in letters), label)


def _build_rules_table() -> dict[str, DecisionRule]:
    rows = [
        ("C", "nnnn"),
        ("H1", "nnww"),
        ("H2", "ncww"),
        ("H3", "ncwc"),
        ("H4", "ncnc"),
        ("T1", "wwww"),
        ("T2", "wcww"),
        ("T3w", "ccww"),
        ("T3c", "wcwc"),
        ("T4", "ccwc"),
        ("T5", "cccc"),
    ]
    return {label: DecisionRule.from_letters(s, label) for label, s in rows}


_RULES = _build_rules_table()
_RULE_BY_LETTERS = {r.letters: r for r in _RULES.values()}


def rules_table() -> dict[str, DecisionRule]:
    """The 11 dominance-admissible decision rules, keyed by canonical label.

    Insertion order is the quality order: C (always continue) first, then the
    hybrid rules H1..H4, then the transfer rules T1..T5 with T5 (always cold)
    last.
    """
    return dict(_RULES)


def dominance_admissible(rule: DecisionRule) -> bool:
    """Mechanical dominance filter over a rule's four actions.

    A rule survives iff: for each A, warm (resp. continue) at (Q=1, A) implies
    warm (resp. continue) at (Q=0, A); and for each Q, cold (resp. continue)
    at (Q, A=1) implies cold (resp. continue) at (Q, A=0).
    """
    act = rule.action
    for a in (0, 1):
        if act(1, a) is Action.WARM and act(0, a) is not Action.WARM:
            return False
        if act(1, a) is Action.CONTINUE and act(0, a) is not Action.CONTINUE:
            return False
    for q in (0, 1):
        if act(q, 1) is Action.COLD and act(q, 0) is not Action.COLD:
            return False
        if act(q, 1) is Action.CONTINUE and act(q, 0) is not Action.CONTINUE:
            return False
    return True


_ALL_RULES = tuple(
    _RULE_BY_LETTERS.get("".join(a.letter for a in combo)) or DecisionRule(combo)
    for combo in itertools.product(Action, repeat=4)
)


def all_decision_rules() -> list[DecisionRule]:
    """All 81 action vectors; the 11 table rules keep their labels.

    Rule i has actions the base-3 digits of i, first congestion state first.
    """
    return list(_ALL_RULES)


@dataclass(frozen=True)
class StationaryPolicy:
    """One decision rule per attempt 1..S-1 (the final attempt always resolves)."""

    rules: tuple[DecisionRule, ...]

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))

    @property
    def n_decisions(self) -> int:
        return len(self.rules)

    def rule_after(self, x: int) -> DecisionRule:
        """Rule applied after failed attempt x (1-based)."""
        return self.rules[x - 1]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.rules)


def uniform_policy(rule: DecisionRule | str, S: int) -> StationaryPolicy:
    """The same rule after every attempt; `rule` may be a table label."""
    if isinstance(rule, str):
        rule = _RULES[rule]
    return StationaryPolicy(tuple([rule] * (S - 1)))


def policy_from_names(names: Sequence[str]) -> StationaryPolicy:
    """Build a policy from rule labels ("H2") and/or letter strings ("ncww")."""
    rules = []
    for name in names:
        if name in _RULES:
            rules.append(_RULES[name])
        elif name in _RULE_BY_LETTERS:
            rules.append(_RULE_BY_LETTERS[name])
        else:
            rules.append(DecisionRule.from_letters(name))
    return StationaryPolicy(tuple(rules))


def policy_from_actions(actions) -> StationaryPolicy:
    """Policy from per-attempt rows of four actions; table rules keep their labels."""
    return StationaryPolicy(tuple(
        _ALL_RULES[((int(a0) * 3 + int(a1)) * 3 + int(a2)) * 3 + int(a3)]
        for a0, a1, a2, a3 in actions
    ))


@dataclass(frozen=True)
class ResolutionProfile:
    """Ordered attempt list: integer times tau and success probabilities rho."""

    tau: tuple[int, ...]
    rho: tuple[float, ...]

    def __post_init__(self):
        for name in ("tau", "rho"):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ValueError(f"{name} must be a list, got {getattr(self, name)!r}")
        object.__setattr__(self, "tau", tuple(as_int(t, "tau") for t in self.tau))
        object.__setattr__(self, "rho", tuple(as_real(p, "rho") for p in self.rho))

    @property
    def S(self) -> int:
        return len(self.tau)


@dataclass(frozen=True)
class EconomicParams:
    r: float
    c_w: float
    c_c: float
    tau_w: int
    c_wage: float = 0.0

    def __post_init__(self):
        for name in ("r", "c_w", "c_c", "c_wage"):
            object.__setattr__(self, name, as_real(getattr(self, name), name))
        object.__setattr__(self, "tau_w", as_int(self.tau_w, "tau_w"))


@dataclass(frozen=True)
class TrafficParams:
    q: float  # per-period arrival probability
    a: float  # per-period expert-availability probability

    def __post_init__(self):
        for name in ("q", "a"):
            object.__setattr__(self, name, as_real(getattr(self, name), name))


@dataclass(frozen=True)
class ProblemInstance:
    profile: ResolutionProfile
    econ: EconomicParams
    traffic: TrafficParams

    def __post_init__(self):
        bad = validate_instance(self)
        if bad:
            raise ValueError("invalid instance: " + "; ".join(bad))

    @property
    def S(self) -> int:
        return self.profile.S

    def with_q(self, q: float) -> "ProblemInstance":
        return replace(self, traffic=replace(self.traffic, q=q))

    def to_json_dict(self) -> dict:
        """JSON form; tau/rho arrays are 0-based (index 0 = attempt 1)."""
        return {
            "profile": {"S": self.S, "tau": list(self.profile.tau), "rho": list(self.profile.rho)},
            "econ": {
                "r": self.econ.r,
                "c_w": self.econ.c_w,
                "c_c": self.econ.c_c,
                "tau_w": self.econ.tau_w,
                "c_wage": self.econ.c_wage,
            },
            "traffic": {"q": self.traffic.q, "a": self.traffic.a},
        }


def as_int(value, name: str) -> int:
    """`value` as an int; a float must be integral, so no size is truncated,
    and a bool is none."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def as_real(value, name: str) -> float:
    """`value` as a float; it must be a finite number within float range, and
    a bool, a string or null is none."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:   # an int beyond the float range
            pass
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def as_seed(value, name: str = "seed") -> int:
    """`value` as a seed: an integer in [0, 2**64), the range of a Philox key
    word, so no two seeds share a stream."""
    seed = as_int(value, name)
    if not 0 <= seed < 2**64:
        raise ValueError(f"{name} must lie in [0, 2**64), got {seed}")
    return seed


def check_keys(section: dict, name: str, known: Iterable[str]) -> None:
    """Reject a config section that is not a JSON object or holds a key
    outside `known`, naming it."""
    if not isinstance(section, dict):
        raise ValueError(f"'{name}' must be a JSON object, got {section!r}")
    unknown = sorted(set(section) - set(known))
    if unknown:
        raise ValueError(f"unknown key(s) under '{name}': {', '.join(unknown)}")


def instance_from_json(data: dict) -> ProblemInstance:
    check_keys(data, "instance", ("profile", "econ", "traffic"))
    try:
        prof, econ, traffic = data["profile"], data["econ"], data["traffic"]
        check_keys(prof, "profile", ("S", "tau", "rho"))
        check_keys(econ, "econ", ("r", "c_w", "c_c", "tau_w", "c_wage"))
        check_keys(traffic, "traffic", ("q", "a"))
        profile = ResolutionProfile(prof["tau"], prof["rho"])
        if "S" in prof and as_int(prof["S"], "S") != profile.S:
            raise ValueError("profile.S does not match len(profile.tau)")
        return ProblemInstance(
            profile=profile,
            econ=EconomicParams(r=econ["r"], c_w=econ["c_w"], c_c=econ["c_c"], tau_w=econ["tau_w"],
                                c_wage=econ.get("c_wage", 0.0)),
            traffic=TrafficParams(q=traffic["q"], a=traffic["a"]),
        )
    except KeyError as exc:
        raise ValueError(f"instance is missing key {exc.args[0]!r}") from None


def validate_instance(inst: ProblemInstance) -> list[str]:
    """Return every violated invariant as a human-readable message.

    An empty list means the instance is valid.  ProblemInstance runs this
    when built and raises one ValueError that lists every violation, so no
    invalid instance exists and no caller checks again.
    """
    prof, econ, tr = inst.profile, inst.econ, inst.traffic
    if prof.S < 1:
        return ["profile must contain at least one attempt (S >= 1)"]
    if len(prof.rho) != prof.S:
        return ["tau and rho must have the same length"]
    return [msg for msg, bad in _lane_violations(prof.tau, prof.rho, econ.r, econ.c_w, econ.c_c,
                                                 econ.tau_w, econ.c_wage, tr.q, tr.a) if bad]


def _outside_unit(p):
    """p not in (0, 1], elementwise; NaN (p != p) is outside."""
    return (p != p) | (p <= 0.0) | (p > 1.0)


def _lane_violations(tau, rho, r, c_w, c_c, tau_w, c_wage, q, a) -> list[tuple[str, np.ndarray]]:
    """Each invariant of an instance with the lanes that break it (True where
    broken).  Takes one instance's values, tau and rho of length S and the
    rest scalars, or lanes of instances: tau and rho (S, N), the rest (N,)."""
    return [
        *((f"tau[{s}] must be a positive integer", t < 1) for s, t in enumerate(tau, start=1)),
        *((f"rho[{s}] must lie in (0, 1]", _outside_unit(p)) for s, p in enumerate(rho[:-1], start=1)),
        ("rho[S] must equal 1", rho[-1] != 1.0),
        ("r must be positive", r <= 0),
        ("c_w must be nonnegative", c_w < 0),
        ("c_c must exceed c_w", c_c <= c_w),
        ("tau_w must be a positive integer", tau_w < 1),
        ("c_wage must be nonnegative", c_wage < 0),
        ("q must lie in (0, 1]", _outside_unit(q)),
        ("a must lie in (0, 1]", _outside_unit(a)),
    ]


@dataclass(frozen=True)
class GeneratorConfig:
    """Sampling ranges for the random instance generator.

    The defaults span all five threshold cases of the transfer classification
    in practice; heuristic-study statistics are interpreted relative to this
    generator.
    """

    seed: int
    S: int = 3
    tau_range: tuple[int, int] = (1, 20)
    rho_range: tuple[float, float] = (0.1, 0.9)
    q_range: tuple[float, float] = (0.05, 0.95)
    a_range: tuple[float, float] = (0.05, 0.95)
    r_range: tuple[float, float] = (5.0, 50.0)
    c_w_range: tuple[float, float] = (0.5, 10.0)
    cost_ratio_range: tuple[float, float] = (1.1, 3.0)
    tau_w_range: tuple[int, int] = (1, 5)

    def __post_init__(self):
        object.__setattr__(self, "seed", as_seed(self.seed))
        object.__setattr__(self, "S", as_int(self.S, "S"))
        if self.S < 1:
            raise ValueError("S must be >= 1")
        for name in ("tau_range", "rho_range", "q_range", "a_range", "r_range",
                     "c_w_range", "cost_ratio_range", "tau_w_range"):
            pair = getattr(self, name)
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                raise ValueError(f"{name} must be a pair [lo, hi], got {pair!r}")
            read = as_int if name in ("tau_range", "tau_w_range") else as_real
            lo, hi = pair = (read(pair[0], f"{name} bound"), read(pair[1], f"{name} bound"))
            object.__setattr__(self, name, pair)
            if lo > hi:
                raise ValueError(f"{name} is empty: {lo} > {hi}")
            if read is as_int and hi >= 2**63:   # drawn as int64
                raise ValueError(f"{name} bounds must lie below 2**63, got {hi}")
        if self.tau_range[0] < 1 or self.tau_w_range[0] < 1:
            raise ValueError("processing times must be >= 1")
        if not (0.0 < self.rho_range[0] and self.rho_range[1] <= 1.0):
            raise ValueError("rho_range must lie in (0, 1]")
        for name in ("q_range", "a_range"):
            lo, hi = getattr(self, name)
            if not (0.0 < lo and hi <= 1.0):
                raise ValueError(f"{name} must lie in (0, 1]")
        if self.r_range[0] <= 0 or self.c_w_range[0] < 0:
            raise ValueError("r must be positive and c_w nonnegative")
        if self.cost_ratio_range[0] <= 1.0:
            raise ValueError("cold/warm cost ratio must exceed 1")


def _philox_state(seed: int, stream: int = 0) -> dict:
    """Philox state of the (seed, stream) stream before its first draw: key
    seed + stream * 2**64 for a seed that `as_seed` passed, counter 0 and
    nothing buffered (an odd count of 32-bit draws leaves half a word that
    must not carry over)."""
    return {"bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": [int(seed), int(stream)]},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based RNG; (seed, stream) pairs give independent streams.

    The same family backs the generator and every simulator, so seeds are
    portable across modules; parallel harnesses must use disjoint (seed,
    stream) pairs.
    """
    bits = np.random.Philox(0)
    bits.state = _philox_state(as_seed(seed), stream)
    return np.random.Generator(bits)


class InstanceBlock(NamedTuple):
    """Instances with one S as lanes, one per seed: tau and rho (S, N), the
    rest (N,); the field order is `evaluate.block_terms`'s."""

    tau: np.ndarray
    rho: np.ndarray
    r: np.ndarray
    c_w: np.ndarray
    c_c: np.ndarray
    tau_w: np.ndarray
    q: np.ndarray
    a: np.ndarray

    @classmethod
    def of(cls, insts: Sequence[ProblemInstance]) -> "InstanceBlock":
        """Instances with one S as lanes, every field as floats (the inverse of `instance`)."""
        for inst in insts:
            if inst.S != insts[0].S:
                raise ValueError(f"invalid instance: S = {inst.S} in a block of S = {insts[0].S}")
        econ = [(i.econ.r, i.econ.c_w, i.econ.c_c, i.econ.tau_w, i.traffic.q, i.traffic.a) for i in insts]
        return cls(np.array([i.profile.tau for i in insts], dtype=float).T,
                   np.array([i.profile.rho for i in insts]).T, *np.array(econ).T)

    def instance(self, i: int) -> ProblemInstance:
        """Lane i as a ProblemInstance, which checks itself when built."""
        return ProblemInstance(
            profile=ResolutionProfile(self.tau[:, i].tolist(), self.rho[:, i].tolist()),
            econ=EconomicParams(r=float(self.r[i]), c_w=float(self.c_w[i]), c_c=float(self.c_c[i]),
                                tau_w=int(self.tau_w[i])),
            traffic=TrafficParams(q=float(self.q[i]), a=float(self.a[i])),
        )


def _lemire(halves: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """`Generator.integers(lo, hi + 1)` on 32-bit draws `halves` (uint64 <
    2**32), for a range of fewer than 2**32 - 1 steps: Lemire's multiply-shift
    onto hi - lo + 1 values, with True where numpy would reject the draw and
    draw again."""
    span = hi - lo + 1
    m = halves * np.uint64(span)
    return (m >> np.uint64(32)).astype(np.int64) + lo, (m & np.uint64(2**32 - 1)) < 2**32 % span


def _draw_words(bits: np.random.Philox, cfg: GeneratorConfig, seeds: Sequence[int]):
    """Each seed's draws from one `random_raw` call: tau (n, S), the S + 4
    uniforms (n, S + 4), tau_w (n,), and True on the lanes where a Lemire
    draw was rejected, whose later draws the words do not give."""
    S, n = cfg.S, len(seeds)
    (t_lo, t_hi), (w_lo, w_hi) = cfg.tau_range, cfg.tau_w_range
    n_tau = -(-S // 2) if t_hi > t_lo else 0
    words = np.empty((n, n_tau + S + 5), np.uint64)
    state = _philox_state(0)   # re-keyed per seed: counter 0, nothing buffered
    for i, seed in enumerate(seeds):
        state["state"]["key"][0] = int(seed)
        bits.state = state
        words[i] = bits.random_raw(n_tau + S + 5)
    redo = np.zeros(n, bool)
    tau = np.full((n, S), t_lo, np.int64)
    if n_tau:
        halves = np.empty((n, 2 * n_tau), np.uint64)
        halves[:, 0::2] = words[:, :n_tau] & np.uint64(2**32 - 1)   # low half first
        halves[:, 1::2] = words[:, :n_tau] >> np.uint64(32)
        tau, rejected = _lemire(halves[:, :S], t_lo, t_hi)
        redo |= rejected.any(axis=1)
    u = (words[:, n_tau:n_tau + S + 4] >> np.uint64(11)) * 2.0**-53   # Generator.random
    tau_w = np.full(n, w_lo, np.int64)
    if w_hi > w_lo:
        # odd S leaves the high half of tau's last word buffered for tau_w
        half = halves[:, S] if n_tau and S % 2 else words[:, n_tau + S + 4] & np.uint64(2**32 - 1)
        tau_w, rejected = _lemire(half, w_lo, w_hi)
        redo |= rejected
    return tau, u, tau_w, redo


def _draw_block(cfg: GeneratorConfig, seeds: Sequence[int]) -> InstanceBlock:
    """The lanes of `seeds` as drawn, their invariants unchecked (see
    `generate_block`); the seeds' range is checked once for the block."""
    S, n = cfg.S, len(seeds)
    # numpy's wider routes fill these: held before the seeds' scan, a block past memory fails at once
    tau, u, tau_w = np.empty((n, S), np.int64), np.empty((n, S + 4)), np.empty(n, np.int64)
    redo = np.ones(n, bool)
    if n:
        as_seed(min(seeds))
        as_seed(max(seeds))
    bits = np.random.Philox(0)
    (t_lo, t_hi), (w_lo, w_hi) = cfg.tau_range, cfg.tau_w_range
    if max(t_hi - t_lo, w_hi - w_lo) < 2**32 - 1:
        tau, u, tau_w, redo = _draw_words(bits, cfg, seeds)
    gen = np.random.Generator(bits)
    for i in np.flatnonzero(redo).tolist():
        bits.state = _philox_state(seeds[i])
        tau[i] = gen.integers(t_lo, t_hi + 1, size=S)
        gen.random(out=u[i])
        tau_w[i] = gen.integers(w_lo, w_hi + 1)
    bounds = np.array([cfg.rho_range] * (S - 1) + [cfg.q_range, cfg.a_range, cfg.r_range,
                                                   cfg.c_w_range, cfg.cost_ratio_range], dtype=float)
    x = bounds[:, 0] + (bounds[:, 1] - bounds[:, 0]) * u   # Generator.uniform's operations
    rho = np.ones((S, n))
    rho[:-1] = x[:, :S - 1].T
    q, a, r, c_w, ratio = x[:, S - 1:].T
    return InstanceBlock(tau.T, rho, r, c_w, c_w * ratio, tau_w, q, a)


def generate_block(cfg: GeneratorConfig, seeds: Sequence[int]) -> InstanceBlock:
    """Draw the instance of each seed in `seeds` (cfg.seed plays no part).

    Each lane comes from its seed's (seed, 0) stream, the draws that
    `Generator` calls would make: S attempt times, then S + 4 uniforms for
    rho_1..rho_{S-1}, q, a, r, c_w and the cold/warm cost ratio, then tau_w.
    The stream's 64-bit words are read in order, one `random_raw` call per
    seed, and mapped as arrays:
    - tau takes the 32-bit halves of the first ceil(S/2) words, low half
      first, each mapped by Lemire's multiply-shift onto the range's values;
    - each uniform takes one word w as (w >> 11) 2**-53 and maps to
      lo + (hi - lo) u, the operations of `Generator.uniform`;
    - tau_w takes, for odd S, the unused high half of tau's last word, else
      the low half of the word after the uniforms.
    A range of one value draws nothing.  A lane with a draw that Lemire's
    method rejects (16 in 2**32 per draw on the default tau range) is drawn
    again by `Generator` calls, as is every lane when a range spans 2**32
    values or more, which numpy draws another way.  A lane that breaks an
    instance invariant raises one ValueError listing what is wrong and
    naming its seed.
    """
    block = _draw_block(cfg, seeds)
    checks = _lane_violations(*block[:6], np.zeros(len(seeds)), block.q, block.a)
    bad = np.logical_or.reduce([lanes for _, lanes in checks])
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError("invalid instance: " + "; ".join(msg for msg, lanes in checks if lanes[i])
                         + f" (seed {seeds[i]})")
    return block


def generate_instance(cfg: GeneratorConfig) -> ProblemInstance:
    """Draw one instance, deterministic in cfg.seed: the lane of cfg.seed."""
    return _draw_block(cfg, [cfg.seed]).instance(0)
