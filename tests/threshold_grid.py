"""Exhaustive threshold-policy grid, the oracle for the nested-set DP.

A threshold policy picks, per congestion state, an index n in 1..S and a
transfer mode: it continues through attempt n - 1 and then transfers with
that mode (n = S never transfers, so its mode is irrelevant).  The grid
holds every distinct such policy once, (2S - 1)^4 of them.
"""
from functools import lru_cache

import numpy as np

from gatekeeper import Action
from gatekeeper.evaluate import average_reward_batch


@lru_cache(maxsize=None)
def threshold_options(S: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct (n, mode) choices per congestion state: 2(S-1) + 1 of them."""
    ns, modes = [], []
    for n in range(1, S):
        for mode in (Action.WARM, Action.COLD):
            ns.append(n)
            modes.append(int(mode))
    ns.append(S)               # never transfer; mode irrelevant
    modes.append(int(Action.COLD))
    return np.array(ns), np.array(modes)


@lru_cache(maxsize=None)
def threshold_grid(S: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All distinct threshold policies as an (P, S-1, 4) action array, with
    each policy's (P, 4) indices and modes."""
    ns, modes = threshold_options(S)
    k = len(ns)
    idx = np.indices((k, k, k, k)).reshape(4, -1).T  # (P, 4) option per state
    n_grid = ns[idx]
    mode_grid = modes[idx]
    acts = np.zeros((idx.shape[0], S - 1, 4), dtype=np.int8)
    for x in range(1, S):
        acts[:, x - 1, :] = np.where(x >= n_grid, mode_grid, int(Action.CONTINUE))
    return acts, n_grid, mode_grid


def best_threshold_reward(inst) -> float:
    """Largest renewal-route average reward over the whole grid."""
    return float(average_reward_batch(inst, threshold_grid(inst.S)[0]).max())
