import dataclasses
import re

import numpy as np
import pytest

import seed_generator
from gatekeeper import (
    Action,
    EconomicParams,
    GeneratorConfig,
    ProblemInstance,
    QueuePolicy,
    ResolutionProfile,
    TrafficParams,
    all_decision_rules,
    default_queue_model,
    dominance_admissible,
    generate_block,
    generate_instance,
    instance_from_json,
    rules_table,
    uniform_policy,
    validate_instance,
)
from gatekeeper.evaluate import block_terms, renewal_terms
from gatekeeper.model import _draw_words, rng_stream


def make_instance(**overrides):
    base = dict(
        profile=ResolutionProfile((4, 6), (0.8, 1.0)),
        econ=EconomicParams(r=20.0, c_w=2.0, c_c=5.0, tau_w=3),
        traffic=TrafficParams(q=0.5, a=0.8),
    )
    base.update(overrides)
    return ProblemInstance(**base)


def test_valid_instance_has_no_violations():
    assert validate_instance(make_instance()) == []


def test_final_attempt_must_resolve():
    with pytest.raises(ValueError, match=r"rho\[S\] must equal 1"):
        make_instance(profile=ResolutionProfile((4, 6), (0.8, 0.9)))


def test_cold_fee_must_exceed_warm_fee():
    with pytest.raises(ValueError, match="c_c must exceed c_w"):
        make_instance(econ=EconomicParams(r=20.0, c_w=5.0, c_c=4.0, tau_w=3))


def test_validator_reports_every_violation():
    with pytest.raises(ValueError, match="invalid instance: ") as err:
        ProblemInstance(
            profile=ResolutionProfile((0, 6), (1.5, 0.9)),
            econ=EconomicParams(r=-1.0, c_w=5.0, c_c=4.0, tau_w=0),
            traffic=TrafficParams(q=0.0, a=1.5),
        )
    messages = str(err.value).removeprefix("invalid instance: ").split("; ")
    assert len(messages) >= 6


def test_construction_and_replace_check_the_invariants():
    inst = make_instance()
    with pytest.raises(ValueError, match=r"invalid instance: q must lie in \(0, 1\]"):
        inst.with_q(0.0)
    with pytest.raises(ValueError, match=r"invalid queue model: q must lie in \[0, 1\]"):
        dataclasses.replace(default_queue_model(), q=1.5)
    with pytest.raises(ValueError, match="S must be >= 1"):
        GeneratorConfig(seed=1, S=0)
    for n in (-1, True, 1.5, "2"):
        with pytest.raises(ValueError, match=r"\bn must be"):
            QueuePolicy(n)
    with pytest.raises(ValueError, match="threshold n must be >= 1"):
        QueuePolicy.when_queue_at_least(0)


class TestRulesTable:
    def test_eleven_rules_quality_ordered(self):
        table = rules_table()
        labels = list(table)
        assert len(labels) == 11
        assert labels[0] == "C" and labels[-1] == "T5"

    @pytest.mark.parametrize(
        "label,letters",
        [
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
        ],
    )
    def test_row(self, label, letters):
        assert rules_table()[label].letters == letters

    def test_specific_action_vectors(self):
        table = rules_table()
        assert [a.name for a in table["C"].actions] == ["CONTINUE"] * 4
        assert table["H2"].actions == (Action.CONTINUE, Action.COLD, Action.WARM, Action.WARM)
        assert table["T5"].actions == (Action.COLD,) * 4

    def test_dominance_filter_selects_exactly_the_table(self):
        survivors = {r.letters for r in all_decision_rules() if dominance_admissible(r)}
        assert len(all_decision_rules()) == 81
        assert survivors == {r.letters for r in rules_table().values()}
        assert len(survivors) == 11


# The routes of the block draw besides the default ranges: ranges of one
# value, which draw nothing; spans where Lemire's multiply-shift rejects about
# half of all draws, so those lanes are redrawn one seed at a time; and spans of
# 2**32 values and more, which numpy draws by other routes.
DRAW_ROUTES = {
    "one-tau": {"tau_range": (3, 3)},
    "one-tau_w": {"tau_w_range": (2, 2)},
    "rejecting-tau": {"tau_range": (1, 2**31 + 1)},
    "rejecting-tau_w": {"tau_w_range": (1, 2**31 + 1)},
    "span-2**32": {"tau_range": (1, 2**32)},
    "span-2**40": {"tau_range": (5, 2**40 + 4)},
}


class TestGenerator:
    def test_deterministic_in_seed(self):
        cfg = GeneratorConfig(seed=42, S=4)
        assert generate_instance(cfg) == generate_instance(cfg)

    def test_distinct_seeds_differ(self):
        assert generate_instance(GeneratorConfig(seed=1)) != generate_instance(GeneratorConfig(seed=2))

    def test_cold_always_dearer_than_warm(self):
        for seed in range(200):
            inst = generate_instance(GeneratorConfig(seed=seed, S=2))
            assert inst.econ.c_c > inst.econ.c_w

    def test_ten_thousand_draws_all_valid(self):
        for seed in range(10_000):
            inst = generate_instance(GeneratorConfig(seed=seed, S=1 + seed % 5))
            assert validate_instance(inst) == []

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            generate_instance(GeneratorConfig(seed=1, S=0))
        with pytest.raises(ValueError):
            generate_instance(GeneratorConfig(seed=1, cost_ratio_range=(0.5, 0.9)))
        with pytest.raises(ValueError):
            generate_instance(GeneratorConfig(seed=1, q_range=(0.0, 0.5)))

    @pytest.mark.parametrize("ranges, S", [
        *(pytest.param({}, S, id=str(S)) for S in range(1, 9)),
        *(pytest.param(ranges, S, id=f"{route}-{S}") for route, ranges in DRAW_ROUTES.items() for S in (3, 4)),
    ])
    def test_block_equals_the_per_seed_oracle_bit_for_bit(self, ranges, S):
        # odd S leaves half a 64-bit word buffered that the tau_w draw takes
        seeds = [*range(1000 * S, 1000 * S + 500), 2**40 + 7, 2**63, 2**63 + 5, 2**64 - 1]
        cfg = GeneratorConfig(seed=0, S=S, **ranges)
        if 2**31 + 1 in (cfg.tau_range[1], cfg.tau_w_range[1]):
            # the lanes with a rejected draw take the per-seed route, the others the words'
            redo = _draw_words(np.random.Philox(0), cfg, seeds)[3]
            assert 0 < np.count_nonzero(redo) < len(seeds)
        insts = [seed_generator.generate_instance(dataclasses.replace(cfg, seed=s)) for s in seeds]
        block = generate_block(cfg, seeds)
        want = {
            "tau": np.array([i.profile.tau for i in insts]).T,
            "rho": np.array([i.profile.rho for i in insts]).T,
            **{k: np.array([getattr(i.econ, k) for i in insts]) for k in ("r", "c_w", "c_c", "tau_w")},
            **{k: np.array([getattr(i.traffic, k) for i in insts]) for k in ("q", "a")},
        }
        for name in block._fields:
            assert np.array_equal(getattr(block, name), want[name]), name
        for got, expected in zip(block_terms(*block), renewal_terms(insts)):
            assert np.array_equal(got, expected)
        for i in (0, 1, -4, -3, -2, -1):
            assert generate_instance(dataclasses.replace(cfg, seed=seeds[i])) == insts[i]
            one = generate_block(cfg, [seeds[i]])
            assert all(np.array_equal(got, lanes[..., [i]]) for got, lanes in zip(one, block))

    def test_rng_stream_is_the_keyed_philox_stream(self):
        for seed, stream in ((0, 0), (5, 17), (2**63 + 5, 3), (2**64 - 1, 1)):
            got, want = rng_stream(seed, stream), seed_generator.keyed_stream(seed, stream)
            assert np.array_equal(got.integers(1, 21, size=3), want.integers(1, 21, size=3))
            assert np.array_equal(got.random(7), want.random(7))
            assert got.integers(1, 6) == want.integers(1, 6)

    def test_a_block_past_any_array_fails_before_its_seeds_are_scanned(self):
        # a scan of 2**62 seeds would not end; the block's arrays are refused first
        with pytest.raises((ValueError, MemoryError)):
            generate_block(GeneratorConfig(seed=0), range(2**62))

    def test_an_invalid_draw_names_its_seed(self):
        cfg = GeneratorConfig(seed=0, c_w_range=(0.0, 0.0))
        with pytest.raises(ValueError, match=r"^invalid instance: c_c must exceed c_w$"):
            generate_instance(cfg)
        with pytest.raises(ValueError, match=r"^invalid instance: c_c must exceed c_w \(seed 0\)$"):
            generate_block(cfg, [0])
        # c_w below the smallest normal float: c_c = c_w * ratio rounds to c_w on some seeds
        cfg = GeneratorConfig(seed=0, c_w_range=(0.0, 1e-323))
        failing = []
        for seed in range(20):
            try:
                seed_generator.generate_instance(dataclasses.replace(cfg, seed=seed))
            except ValueError:
                failing.append(seed)
        assert 0 < failing[0] and failing[1] - failing[0] > 1 and len(failing) < 20
        for lo in (0, failing[0] + 1):
            with pytest.raises(ValueError, match=rf"c_c must exceed c_w \(seed {min(f for f in failing if f >= lo)}\)$"):
                generate_block(cfg, range(lo, 20))
        generate_block(cfg, [seed for seed in range(20) if seed not in failing])

    @pytest.mark.parametrize("kwargs, message", [
        ({"seed": 2.5}, "seed must be an integer, got 2.5"),
        ({"S": 2.5}, "S must be an integer, got 2.5"),
        ({"tau_range": (1.9, 2.9)}, "tau_range bound must be an integer, got 1.9"),
        ({"tau_w_range": (1, 2.5)}, "tau_w_range bound must be an integer, got 2.5"),
        ({"tau_range": 5}, "tau_range must be a pair [lo, hi], got 5"),
        ({"rho_range": (0.1, 0.5, 0.9)}, "rho_range must be a pair [lo, hi], got (0.1, 0.5, 0.9)"),
    ])
    def test_config_rejects_fractional_counts_and_malformed_ranges(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            GeneratorConfig(**{"seed": 1, **kwargs})

    def test_seeds_outside_u64_are_rejected_not_aliased(self):
        message = re.escape("seed must lie in [0, 2**64), got ")
        with pytest.raises(ValueError, match=message + "-1$"):
            GeneratorConfig(seed=-1)
        with pytest.raises(ValueError, match=message + f"{2**64}$"):
            generate_block(GeneratorConfig(seed=0), [5, 2**64, 7])
        with pytest.raises(ValueError, match=message + f"{-2**64}$"):
            rng_stream(-2**64, 3)

    def test_config_takes_integral_floats_as_integers(self):
        cfg = GeneratorConfig(seed=3.0, S=2.0, tau_range=(1.0, 20.0), tau_w_range=[1, 5])
        assert cfg == GeneratorConfig(seed=3, S=2)
        assert generate_instance(cfg) == generate_instance(GeneratorConfig(seed=3, S=2))

    def test_seed_blocks_statistically_indistinguishable(self):
        # sanity check, not a sharp assertion: disjoint seed blocks should
        # give the same parameter distributions
        from scipy.stats import ks_2samp

        qs1 = [generate_instance(GeneratorConfig(seed=s)).traffic.q for s in range(600)]
        qs2 = [generate_instance(GeneratorConfig(seed=s)).traffic.q for s in range(10**6, 10**6 + 600)]
        rs1 = [generate_instance(GeneratorConfig(seed=s)).econ.r for s in range(600)]
        rs2 = [generate_instance(GeneratorConfig(seed=s)).econ.r for s in range(10**6, 10**6 + 600)]
        assert ks_2samp(qs1, qs2).pvalue > 1e-5
        assert ks_2samp(rs1, rs2).pvalue > 1e-5


def test_sizes_must_be_integral():
    for build, name in (
        (lambda v: ResolutionProfile((4, v), (0.8, 1.0)), "tau"),
        (lambda v: EconomicParams(r=20.0, c_w=2.0, c_c=5.0, tau_w=v), "tau_w"),
        (lambda v: dataclasses.replace(default_queue_model(), N=v), "N"),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got 2.7$"):
            build(2.7)
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got '3'$"):
            build("3")
    # an integral float is taken as the integer it is
    assert ResolutionProfile((4, 6.0), (0.8, 1.0)).tau == (4, 6)
    assert type(EconomicParams(r=20.0, c_w=2.0, c_c=5.0, tau_w=3.0).tau_w) is int
    assert dataclasses.replace(default_queue_model(), N=2.0).N == 2


def test_json_round_trip():
    inst = make_instance()
    data = inst.to_json_dict()
    assert data["profile"]["S"] == 2
    assert instance_from_json(data) == inst


def test_json_rejects_inconsistent_length():
    data = make_instance().to_json_dict()
    data["profile"]["S"] = 3
    with pytest.raises(ValueError):
        instance_from_json(data)


def test_types_are_immutable():
    inst = make_instance()
    with pytest.raises(dataclasses.FrozenInstanceError):
        inst.econ.r = 5.0
    rule = rules_table()["H2"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        rule.label = "X"


def test_uniform_policy_shape():
    pol = uniform_policy("H1", 4)
    assert pol.n_decisions == 3
    assert all(r.label == "H1" for r in pol.rules)
