"""Oracles for `gatekeeper.structure`'s block forms.

`study_gaps` runs the nested (threshold-class) Dinkelbach search on every
lane of a study block, where `structure._study_gaps` runs it only on the
lanes whose unrestricted optimum it cannot certify.  `wspt_loop` checks the
risk-adjusted shortest-processing-time condition one lane at a time, in
Python floats, as `check_wspt` did before it worked on blocks.
"""
import numpy as np

from gatekeeper.solve import dinkelbach
from gatekeeper.structure import GAP_TOL


def study_gaps(terms) -> np.ndarray:
    """Relative gap of the best threshold policy to the optimum, per instance
    of a block; within GAP_TOL it is 0 (the two maximizations round apart)."""
    (r_opt, _), (r_thr, _) = dinkelbach(terms), dinkelbach(terms, nested=True)
    gap = (r_opt - r_thr) / r_opt
    return np.where(gap <= GAP_TOL, 0.0, gap)


def wspt_loop(tau, rho, q, a) -> tuple[str, bool, int | None]:
    """(condition, holds, first violating attempt X) of one instance: the
    ratios tau_X/rho_X rise, each step by at most (1/p)/rho_X
    + ((1-p)/p)(1-rho_{X-1})/rho_{X-1}, with p = a if 1/a > 1/q else q."""
    if 1 / a > 1 / q:
        cond, p = "a", a
    else:
        cond, p = "q", q
    for x in range(2, len(tau) + 1):
        step = tau[x - 1] / rho[x - 1] - tau[x - 2] / rho[x - 2]
        slack = (1 / p) / rho[x - 1] + ((1 - p) / p) * (1 - rho[x - 2]) / rho[x - 2]
        if not 0.0 <= step <= slack:
            return cond, False, x
    return cond, True, None
