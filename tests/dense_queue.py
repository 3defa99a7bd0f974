"""Whole-chain waiting-room solves, the oracles for the level solve.

`gatekeeper.waiting_room` solves each interior q level by level.  These
routes solve the full chain q P[1] + (1 - q) P[0] instead, one q at a time:

- `dense_rates` by one LU solve of the balance equations
  (`evaluate.stationary_distribution`), as the package did before;
- `gth_rates` by Grassmann-Taksar-Heyman state reduction in long double.
  GTH subtracts nothing, so it keeps every small probability to round-off;
  the wider type keeps the reference's own round-off (and its ratios of
  probabilities, up to 1e±4932) out of any comparison with float64 results.

Both return the five rates of `QueueEvaluation`: profit, throughput,
transfer, blocking and resolve rate per period.
"""
import numpy as np

from gatekeeper.evaluate import stationary_distribution
from gatekeeper.waiting_room import QueueModel, QueuePolicy, _branch_chains

# x86 long double carries 64 mantissa bits; where it is plain double,
# `gth_rates` is no more exact than the solve it checks
EXTENDED = np.finfo(np.longdouble).nmant > np.finfo(np.float64).nmant


def dense_rates(model: QueueModel, pol: QueuePolicy) -> np.ndarray:
    states, P, rates = _branch_chains(model, pol)
    q = model.q
    pi = stationary_distribution(q * P[1] + (1 - q) * P[0],
                                 tuple(f"{act}/{w}" for act, w in states))
    return (q * rates[1] + (1 - q) * rates[0]) @ pi


def gth_stationary(P: np.ndarray) -> np.ndarray:
    """Stationary vector of a chain in which every state reaches state 0.

    States n - 1, ..., 1 are removed in turn; each pivot is the removed
    state's outflow to the states still kept, summed, not 1 - P[k, k].
    """
    A = P.copy()
    n = len(A)
    for k in range(n - 1, 0, -1):
        A[:k, k] /= A[k, :k].sum()
        A[:k, :k] += np.outer(A[:k, k], A[k, :k])
    x = np.zeros(n, dtype=A.dtype)
    x[0] = 1
    for k in range(1, n):
        x[k] = x[:k] @ A[:k, k]
    return x / x.sum()


def gth_rates(model: QueueModel, pol: QueuePolicy) -> np.ndarray:
    """For 0 < q < 1, where every state reaches the empty idle system (state
    0).  The branch weights are the float64 q and 1 - q that the package
    uses, so both solve the same chain."""
    states, P, rates = _branch_chains(model, pol)
    assert states[0] == (("idle",), 0)
    ld = np.longdouble
    q, p = ld(model.q), ld(1.0 - model.q)
    pi = gth_stationary(q * P[1].astype(ld) + p * P[0].astype(ld))
    return (q * rates[1].astype(ld) + p * rates[0].astype(ld)) @ pi
