"""Spectral calculus for variable-coefficient elliptic operators.

Assembles divergence-form operators on uniform grids, computes their
fractional powers and propagators by dense functional calculus, evaluates
the weighted harmonic extension and its conormal trace, runs contraction
and artificial-viscosity schemes for the associated dispersive equation,
and probes the nonlocality / unique-continuation dichotomy.
"""

__version__ = "0.1.0"

from .evolution import (
    BlowUpError,
    Nonlinearity,
    PicardConvergenceError,
    Trajectory,
    estimate_t_star,
    gradient_nonlinearity,
    kato_ponce_check,
    picard_solve,
    polynomial_nonlinearity,
    t_star_from_radius,
    viscosity_convergence,
    viscous_solve,
)
from .extension import (
    ExtensionField,
    conormal_constant,
    conormal_recover,
    doubling_ratio,
    energy_report,
    extend,
    geometric_ladder,
)
from .gridop import (
    CoefficientField,
    DiscreteOperator,
    Grid,
    HypothesisReport,
    NumericalError,
    assemble,
    build_grid,
    check_hypotheses,
    load_coefficients_csv,
    make_coefficients,
)
from .spectral import (
    NormEquivalenceReport,
    SpectralDecomposition,
    apply_function,
    bessel_apply,
    eigendecompose,
    fractional_power,
    l2_norm,
    norm_equivalence,
    sobolev_norm,
    unitary_propagate,
)
from .ucprobe import (
    VanishingSpec,
    bump_state,
    dichotomy_sweep,
)
