"""Numerics for expectations under volatility uncertainty.

The package works with the sublinear expectation generated by a
volatility band ``[sigma_lo, sigma_hi]``: values of path functionals are
computed two independent ways — backward marching of the band's nonlinear
heat equation, and suprema of seeded Monte Carlo runs over admissible
volatility controls — and the pathwise calculus connecting them
(stochastic integrals, quadratic-variation ledgers, martingale
decompositions, backward equations) is exposed with exact, re-checkable
discrete identities wherever the mathematics has one.
"""

from .core import (
    ConstantControl,
    ControlProcess,
    CylinderFunctional,
    FeedbackControl,
    GParams,
    PerturbationSchedule,
    SelfDependentControl,
    SpaceGrid,
    StepControl,
    TimeGrid,
    g_eps_value,
    g_value,
)
from .errors import (
    CapabilityError,
    ConfigurationError,
    DataError,
    DomainError,
    ExtrapolationError,
    GBrownianError,
    UsageError,
)
from .gbsde import (
    EquivalenceReport,
    GBSDEProblem,
    GBSDEResidualReport,
    GBSDESolution,
    equivalence_check,
    gbsde_residual,
    ppde_residual,
    solve_ppde,
    solve_ppde_picard,
)
from .gexp import (
    conditional_frames,
    g_expectation,
)
from .gheat import (
    ValueSurface,
    cfl_dt_max,
    check_cfl,
    export_surface_csv,
    feedback_field,
    pde_residual,
    solve_gheat,
)
from .ito import (
    ItoDecomposition,
    MartingaleReport,
    identify_drift,
    k_process,
    martingale_decomposition,
    martingale_table,
    martingale_test,
    qn_integrand,
    qn_quadratic_variation,
    realized_qv,
    step2_limit_check,
    stochastic_integral,
)
from .mc import (
    MarginalMatchResult,
    McEstimate,
    PathBundle,
    PerturbedControl,
    block_budget_gap,
    marginal_match_table,
    marginal_match_test,
    mc_expectation,
    perturb_control,
    qv_band_violation,
    simulate,
    sup_over_controls_table,
)

__version__ = "0.1.0"

__all__ = [
    "CapabilityError",
    "ConfigurationError",
    "ConstantControl",
    "ControlProcess",
    "CylinderFunctional",
    "DataError",
    "DomainError",
    "EquivalenceReport",
    "ExtrapolationError",
    "FeedbackControl",
    "GBSDEProblem",
    "GBSDEResidualReport",
    "GBSDESolution",
    "GBrownianError",
    "GParams",
    "ItoDecomposition",
    "MarginalMatchResult",
    "MartingaleReport",
    "McEstimate",
    "PathBundle",
    "PerturbationSchedule",
    "PerturbedControl",
    "SelfDependentControl",
    "SpaceGrid",
    "StepControl",
    "TimeGrid",
    "UsageError",
    "ValueSurface",
    "block_budget_gap",
    "cfl_dt_max",
    "check_cfl",
    "conditional_frames",
    "equivalence_check",
    "export_surface_csv",
    "feedback_field",
    "g_eps_value",
    "g_expectation",
    "g_value",
    "gbsde_residual",
    "identify_drift",
    "k_process",
    "marginal_match_table",
    "marginal_match_test",
    "martingale_decomposition",
    "martingale_table",
    "martingale_test",
    "mc_expectation",
    "pde_residual",
    "perturb_control",
    "ppde_residual",
    "qn_integrand",
    "qn_quadratic_variation",
    "qv_band_violation",
    "realized_qv",
    "simulate",
    "solve_gheat",
    "solve_ppde",
    "solve_ppde_picard",
    "step2_limit_check",
    "stochastic_integral",
    "sup_over_controls_table",
]
