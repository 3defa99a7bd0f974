import dataclasses

import pytest

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
    generate_instance,
    instance_from_json,
    rules_table,
    uniform_policy,
    validate_instance,
)


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
    with pytest.raises(ValueError, match="unknown policy kind 'bogus'"):
        QueuePolicy("bogus")
    with pytest.raises(ValueError, match="threshold n must be >= 1"):
        QueuePolicy("qge", 0)


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
