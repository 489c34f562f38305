"""Spectral calculus for variable-coefficient elliptic operators.

Assembles divergence-form operators on uniform grids, computes their
fractional powers and propagators by dense functional calculus, evaluates
the weighted harmonic extension and its conormal trace, runs contraction
and artificial-viscosity schemes for the associated dispersive equation,
and probes the nonlocality / unique-continuation dichotomy. The names below
resolve on first use (PEP 562), so that ``fracspec.cli`` loads no numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {  # module -> the names of it that the package exports
    "evolution": "BlowUpError Nonlinearity PicardConvergenceError Trajectory estimate_t_star "
                 "gradient_nonlinearity kato_ponce_check picard_solve polynomial_nonlinearity "
                 "t_star_from_radius viscosity_convergence viscous_solve",
    "extension": "ExtensionField conormal_constant conormal_recover doubling_ratio energy_report "
                 "extend geometric_ladder",
    "gridop": "CoefficientField DiscreteOperator Grid HypothesisReport NumericalError assemble "
              "build_grid check_hypotheses load_coefficients_csv make_coefficients",
    "spectral": "NormEquivalenceReport SpectralDecomposition apply_function eigendecompose "
                "fractional_power l2_norm norm_equivalence sobolev_norm unitary_propagate",
    "ucprobe": "VanishingSpec bump_state dichotomy_sweep",
}
_MODULES = (*_EXPORTS, "cli", "tasks")
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = [*_EXPORTS, *_OWNER]  # what ``import *`` took when these were imported eagerly


def __getattr__(name):
    if name not in _MODULES and name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_OWNER.get(name, name)}")
    return getattr(module, name) if name in _OWNER else module


def __dir__():
    return sorted({*globals(), *_MODULES, *_OWNER})
