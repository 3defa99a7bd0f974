"""One design cell's EquilibriumResult assembled from scalars, the oracle
for the column pricing of `gatekeeper.market`.

`equilibrium_result` reads cell j of a solved grid (a `DesignGrid`) as
Python floats, prices it with the scalar profit formula and converts its
actions to a policy on its own, so the lazily built results of the priced
ranking (a `DesignSearch`, from `DesignGrid.price`) must equal it, bit for
bit.
"""
from dataclasses import replace
from typing import Optional

from gatekeeper.evaluate import PerformanceMeasures
from gatekeeper.market import (
    BotChannel,
    DesignGrid,
    EquilibriumResult,
    MarketParams,
    Shares,
    bot_training_cost,
)
from gatekeeper.model import EconomicParams, policy_from_actions


def profit(
    k: int, agent_reward: float, wage: float, q_bot: float,
    bot: Optional[BotChannel], econ: EconomicParams,
) -> tuple[float, dict[str, float]]:
    parts = {
        "agent_revenue": k * agent_reward,
        "wages": k * wage,
        "bot_margin": 0.0,
        "bot_training": 0.0,
    }
    if bot is not None:
        parts["bot_margin"] = q_bot * (econ.r - (1 - bot.p_succ) * econ.c_c)
        parts["bot_training"] = bot_training_cost(bot)
    total = parts["agent_revenue"] - parts["wages"] + parts["bot_margin"] - parts["bot_training"]
    return total, parts


def equilibrium_result(grid: DesignGrid, j: int, market: MarketParams, econ: EconomicParams,
                       bot_curve: BotChannel) -> EquilibriumResult:
    d = grid.designs[j]
    q, R, g = (float(a[j]) for a in (grid.q, grid.R, grid.g))
    perf = PerformanceMeasures(*(float(v) for v in grid.measures[:, j]))
    shares = Shares(*(float(v) for v in grid.shares[:, j]))
    q_bot = market.lam * (
        shares.bot_direct + shares.agent * (1 - perf.p_admit) * shares.fallback_fraction
    )
    bot = replace(bot_curve, p_succ=d.p_succ) if d.p_succ else None
    total, parts = profit(d.k_agent, R, econ.c_wage, q_bot, bot, econ)
    staffed = d.k_agent > 0
    return EquilibriumResult(
        design=d, q_per_agent=q, q_bot_effective=q_bot, shares=shares,
        perf=perf if staffed else None,
        policy=policy_from_actions(grid.actions[..., j]) if staffed else None,
        agent_reward=R, profit=total, profit_parts=parts, converged=bool(grid.converged[j]),
        iterations=int(grid.iterations[j]), residual=abs(g),
    )
