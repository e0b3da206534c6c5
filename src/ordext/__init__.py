"""Ordered bivariate extreme-value modelling for minima.

Library + CLI for bivariate extreme-value distributions of minima under
the stochastic ordering X < Y: restricted-logistic dependence functions,
exponential/Frechet measure functions, non-parametric and parametric
estimation, ordered-pair simulation and fit diagnostics.
"""

from .dependence import (AffineLogisticModel, AsymLogisticModel,
                         AsymLogisticParams, DependenceEval, DependenceModel,
                         IntervalRestrictedModel, IntervalRestrictedParams,
                         NadarajahGeneralParams, PointMassModel,
                         RestrictedLogisticModel, RestrictedLogisticParams,
                         UpperRestrictedModel, UpperRestrictedParams,
                         a_numeric_oracle, make_model, nadarajah_density,
                         validate_dependence)
from .diagnostics import (CurveTable, DiagnosticTables, depfn_curves,
                          pp_qq_tables, read_table, render_svg, write_table)
from .errors import (BoundaryError, DomainError, InputError, NumericError,
                     OrdextError, ParameterError)
from .estimation import (FitConfig, FitResult, PickandsCurve, estimate_c_hat,
                         fit_restricted, pickands_curve, pickands_modified,
                         pickands_raw, trend_penalized)
from .margins import (GevmParams, TrendSpec, exp_scale, exp_scale_inverse,
                      frechet_scale, gevm_survival)
from .measure import (ExpPair, FrechetPair, c_from_margins,
                      joint_log_density_gevm, joint_survival_gevm, v_closed,
                      v_frechet, v_from_a, v_numeric, v_partials)
from .series import BivariateSeries
from .simulate import StudyConfig, StudySummary, run_study, sample_pair, sample_pairs

__version__ = "0.1.0"

__all__ = [
    "AffineLogisticModel", "AsymLogisticModel", "AsymLogisticParams",
    "BivariateSeries", "BoundaryError", "CurveTable", "DependenceEval",
    "DependenceModel", "DiagnosticTables", "DomainError", "ExpPair",
    "FitConfig", "FitResult", "FrechetPair", "GevmParams", "InputError",
    "IntervalRestrictedModel", "IntervalRestrictedParams",
    "NadarajahGeneralParams", "NumericError", "OrdextError",
    "ParameterError", "PickandsCurve", "PointMassModel",
    "RestrictedLogisticModel", "RestrictedLogisticParams", "StudyConfig",
    "StudySummary", "TrendSpec", "UpperRestrictedModel",
    "UpperRestrictedParams", "a_numeric_oracle", "c_from_margins",
    "depfn_curves", "estimate_c_hat", "exp_scale", "exp_scale_inverse",
    "fit_restricted", "frechet_scale", "gevm_survival",
    "joint_log_density_gevm", "joint_survival_gevm", "make_model",
    "nadarajah_density", "pickands_curve", "pickands_modified",
    "pickands_raw", "pp_qq_tables", "read_table", "render_svg",
    "run_study", "sample_pair", "sample_pairs", "trend_penalized",
    "v_closed", "v_frechet", "v_from_a", "v_numeric", "v_partials",
    "validate_dependence", "write_table",
]
