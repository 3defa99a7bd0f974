"""Channel shares on an n x n midpoint lattice, the oracle for the exact areas.

The valuation square [0, v_max]^2 is cut into n x n cells and every cell
votes with the choice at its midpoint: the live channel iff its expected
utility is at least both alternatives', else the bot iff it strictly beats
the outside option.  Utilities are affine in the agent valuation, so each
bot-valuation column reduces to a count.  The counts converge to
`gatekeeper.market.compute_demand_shares` at rate O(1/n).
"""
from typing import Optional

import numpy as np

from gatekeeper.evaluate import PerformanceMeasures
from gatekeeper.market import BotChannel, CustomerPrefs, Shares, agent_service_cost


def lattice_shares(
    perf: Optional[PerformanceMeasures],
    bot: Optional[BotChannel],
    prefs: CustomerPrefs,
    p_admit: float,
    n: int,
) -> Shares:
    h = prefs.v_max / n
    v = (np.arange(n) + 0.5) * h
    if bot is None:
        best_alt, bot_ok = np.full(n, prefs.u0), np.zeros(n, dtype=bool)
    else:
        u_bot = v - prefs.c_time * bot.tau_bot - (1 - bot.p_succ) * prefs.delta_cold * prefs.tau_exp_cold
        best_alt, bot_ok = np.maximum(u_bot, prefs.u0), u_bot > prefs.u0
    cost = 0.0 if perf is None else agent_service_cost(perf, prefs)
    # U_agent(v_a, v_b) = p_admit (v_a - cost) + (1 - p_admit)(-c_na + best_alt)
    # >= best_alt  iff  v_a >= best_alt + cost + c_na (1 - p_admit) / p_admit.
    if p_admit > 0:
        x = best_alt + cost + prefs.c_not_admit * (1 - p_admit) / p_admit
        count = n - np.clip(np.ceil(x / h - 0.5), 0, n)   # per column, agents among n rows
    else:
        count = np.zeros(n)
    picked = count.sum()
    fallback = count[bot_ok].sum()
    agent = picked / n**2
    bot_direct = (n * np.count_nonzero(bot_ok) - fallback) / n**2
    return Shares(agent, bot_direct, 1.0 - agent - bot_direct,
                  fallback / picked if picked > 0 else 0.0)
