"""Solvers and finite-agent verification tools for multi-population
mean-field games and mean-field-type control.

Workflow in one breath: describe a game (model), solve the measure-flow
fixed point over regression FBSDE solvers (fixedpoint / fbsde), then
check the answer from the outside with finite-agent simulations (nagent)
and assumption audits (validation). The cli module drives the same
pipelines from YAML configs.
"""

from .model import (
    ActionSet,
    CoefficientError,
    CostFunctions,
    DiffusionCoefficients,
    DriftCoefficients,
    GameSpec,
    ModelConstants,
    PopulationLq,
    PopulationSpec,
    StructuralFlags,
    COMPETITIVE,
    COOPERATIVE,
    builtin_game,
    builtin_library,
    gaussian_initial_law,
    population_from_lq,
    split_crowd_initial_law,
)
from .measures import (
    MeasureFlow,
    ParticleCloud,
    TimeGrid,
    empirical_from_states,
    flow_distance,
    flow_from_csv,
    flow_to_csv,
    resample,
    sliced_w2,
    truncate_phi_n,
    wasserstein2_1d,
    wasserstein2_1d_any,
)
from .hamiltonian import (
    HamiltonianContext,
    MinimizeError,
    dx_hamiltonian,
    hamiltonian_value,
    minimize,
    minimize_controls,
    reduced_hamiltonian,
    vi_residual,
)
from .fbsde import (
    DecouplingField,
    FbsdeSolution,
    KnotRegression,
    LqSolution,
    LqSpec,
    PicardError,
    RiccatiError,
    SolverConfig,
    SufficiencyReport,
    lq_from_game,
    optimal_cost,
    solve_adjoint,
    solve_lq_riccati,
    verify_sufficiency,
)
from .fixedpoint import (
    EquilibriumReport,
    FixedPointConfig,
    solve_matching,
    truncated_solve,
    uncontrolled_flows,
    write_history_csv,
)
from .nagent import (
    ALL_MODES,
    MODE_COMPETITIVE,
    MODE_COOPERATIVE,
    MODE_MIXED_AGENT,
    MODE_MIXED_POPULATION,
    AgentSystem,
    ChaosReport,
    Deviation,
    NashGapReport,
    StructuralFlagError,
    chaos_rate,
    chaos_to_csv,
    default_deviations,
    eps_bar,
    eps_chaos_sq,
    nash_gap,
    nash_to_csv,
    prepare_best_response,
    simulate_iid_copies,
    simulate_interacting,
)
from .validation import CheckResult, ValidationReport, validate_game
from .rng import parallel_map, substream

__version__ = "0.1.0"
