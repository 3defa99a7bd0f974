"""Instance generator one seed at a time, the oracle for `generate_block`.

Each instance gets a fresh Philox generator built by numpy's own keyed
constructor and makes its draws one `Generator` call per parameter, as the
generator did before whole seed blocks were drawn as arrays.  The block draw
must give every field of every instance bit for bit.
"""
import numpy as np

from gatekeeper.model import (
    EconomicParams,
    GeneratorConfig,
    ProblemInstance,
    ResolutionProfile,
    TrafficParams,
)


def keyed_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """The (seed, stream) stream from Philox's `key` argument."""
    return np.random.Generator(np.random.Philox(key=(int(seed) & (2**64 - 1)) + (int(stream) << 64)))


def generate_instance(cfg: GeneratorConfig) -> ProblemInstance:
    """Draw one instance from the (cfg.seed, 0) stream."""
    rng = keyed_stream(cfg.seed)
    tau = rng.integers(cfg.tau_range[0], cfg.tau_range[1] + 1, size=cfg.S)
    rho = np.empty(cfg.S)
    rho[:-1] = rng.uniform(cfg.rho_range[0], cfg.rho_range[1], size=cfg.S - 1)
    rho[-1] = 1.0
    q = rng.uniform(*cfg.q_range)
    a = rng.uniform(*cfg.a_range)
    r = rng.uniform(*cfg.r_range)
    c_w = rng.uniform(*cfg.c_w_range)
    c_c = c_w * rng.uniform(*cfg.cost_ratio_range)
    tau_w = int(rng.integers(cfg.tau_w_range[0], cfg.tau_w_range[1] + 1))
    return ProblemInstance(
        profile=ResolutionProfile(tuple(int(t) for t in tau), tuple(rho)),
        econ=EconomicParams(r=r, c_w=c_w, c_c=c_c, tau_w=tau_w),
        traffic=TrafficParams(q=q, a=a),
    )
