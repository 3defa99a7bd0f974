import pytest
from hypothesis import strategies as st

from gatekeeper import (
    EconomicParams,
    GeneratorConfig,
    ProblemInstance,
    ResolutionProfile,
    TrafficParams,
    generate_instance,
    rules_table,
)
from gatekeeper.model import rng_stream


@pytest.fixture
def saturated_two_attempt():
    """S=2 instance at full saturation (q = a = 1) with known closed forms."""
    return ProblemInstance(
        profile=ResolutionProfile((6, 15), (0.7, 1.0)),
        econ=EconomicParams(r=20.0, c_w=2.0, c_c=5.0, tau_w=3),
        traffic=TrafficParams(q=1.0, a=1.0),
    )


@pytest.fixture
def single_attempt():
    """S=1 instance: renewal cycle = one service period plus geometric idle."""
    return ProblemInstance(
        profile=ResolutionProfile((1,), (1.0,)),
        econ=EconomicParams(r=20.0, c_w=1.0, c_c=2.0, tau_w=1),
        traffic=TrafficParams(q=0.5, a=0.5),
    )


def random_instance(seed: int, S: int) -> ProblemInstance:
    return generate_instance(GeneratorConfig(seed=seed, S=S))


def random_policy(seed: int, S: int, labels=None):
    """Uniformly random per-attempt rules drawn from the admissible table."""
    rng = rng_stream(seed, stream=17)
    table = list(rules_table().values())
    if labels is not None:
        table = [r for r in table if r.label in labels]
    idx = rng.integers(0, len(table), size=S - 1)
    from gatekeeper import StationaryPolicy

    return StationaryPolicy(tuple(table[i] for i in idx))


# q and a at the edges of the valid box, or inside it
EDGE = st.sampled_from([1e-8, 1.0]) | st.floats(0.01, 1.0)


@st.composite
def instances(draw, S=None, traffic=EDGE):
    """Instances over S = 1..7 (or the given S) whose attempts may always
    resolve (rho = 1) before the last one, with q and a drawn from `traffic`."""
    S = draw(st.integers(1, 7)) if S is None else S
    rho = draw(st.lists(st.sampled_from([1.0]) | st.floats(0.05, 0.95), min_size=S - 1, max_size=S - 1))
    c_w = draw(st.sampled_from([0.0]) | st.floats(0.5, 10.0))
    return ProblemInstance(
        profile=ResolutionProfile(
            tuple(draw(st.lists(st.integers(1, 20), min_size=S, max_size=S))), tuple(rho) + (1.0,)
        ),
        econ=EconomicParams(r=draw(st.floats(5.0, 50.0)), c_w=c_w,
                            c_c=c_w + draw(st.floats(0.1, 20.0)), tau_w=draw(st.integers(1, 5))),
        traffic=TrafficParams(q=draw(traffic), a=draw(traffic)),
    )
