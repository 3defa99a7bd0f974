"""Gatekeeper channel control: solvers, structural analysis, and design tools."""

__version__ = "0.1.0"

from .evaluate import (
    EvaluationError,
    PerformanceMeasures,
    PolicyEvaluation,
    average_reward,
    build_chain,
    evaluate_policy,
)
from .market import (
    BotChannel,
    CustomerPrefs,
    DesignPoint,
    EquilibriumResult,
    MarketParams,
    Shares,
    bot_training_cost,
    compute_demand_shares,
    default_design_instance,
    default_scenario_grid,
    design_points,
    optimize_design,
    solve_designs,
    solve_equilibrium,
)
from .model import (
    Action,
    CONGESTION_STATES,
    DecisionRule,
    EconomicParams,
    GeneratorConfig,
    ProblemInstance,
    ResolutionProfile,
    StationaryPolicy,
    TrafficParams,
    all_decision_rules,
    dominance_admissible,
    generate_block,
    generate_instance,
    instance_from_json,
    policy_from_names,
    rules_table,
    uniform_policy,
    validate_instance,
)
from .simulate import SimReport, cross_validate, simulate_policy, simulate_queue
from .solve import (
    EnumerationCapError,
    FiniteHorizonSolution,
    TerminalConditions,
    backward_induction,
    enumerate_policies,
    solve_average_reward,
    stationary_terminals,
    verify_stationarity,
    zero_terminals,
)
from .structure import (
    CaseClassification,
    StudyReport,
    TransferThresholds,
    WsptCheck,
    check_wspt,
    check_wspt_block,
    classify_case,
    compute_thresholds,
    is_threshold_policy,
    run_heuristic_study,
    search_threshold_policies,
)
from .waiting_room import (
    QueueEvaluation,
    QueueModel,
    QueuePolicy,
    admissible_queue_policies,
    default_queue_model,
    evaluate_queue_policy,
    sweep_queue_policies,
)
