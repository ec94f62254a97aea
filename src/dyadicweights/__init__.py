"""Dyadic-grid machinery for weighted oscillation functionals.

Exact shifted dyadic grids, Muckenhoupt-type weight estimates, oscillation
and difference-quotient level-set functionals, Daubechies wavelet
diagnostics, and scripted sharpness experiments, all at desk scale with
explicit constant tracking.
"""

from dyadicweights.diffquot import DiffQuotConfig, diffquot_functional, lower_constant, verify_diffquot
from dyadicweights.oscillation import (
    OscillationConfig,
    oscillation_functional,
    check_domination,
    classify_good,
    level_set,
    mean_functional,
    verify_oscillation,
)
from dyadicweights.experiments import sharpness_sweep, weight_classifier
from dyadicweights.funcspace import Quadrature, catalog, omega, sobolev_seminorm
from dyadicweights.grid import AxisCube, Cube, GridWindow, Shift, window_1d
from dyadicweights.records import FunctionalProfile, VerificationRecord
from dyadicweights.wavelet import IndexSet, build_daubechies, verify_almost_char
from dyadicweights.weights import (
    ApEstimate,
    ConstantWeight,
    PowerWeight,
    ProductWeight,
    ap_constant,
)

__all__ = [
    "ApEstimate",
    "AxisCube",
    "DiffQuotConfig",
    "OscillationConfig",
    "ConstantWeight",
    "Cube",
    "FunctionalProfile",
    "GridWindow",
    "IndexSet",
    "PowerWeight",
    "ProductWeight",
    "Quadrature",
    "Shift",
    "VerificationRecord",
    "ap_constant",
    "diffquot_functional",
    "build_daubechies",
    "catalog",
    "oscillation_functional",
    "check_domination",
    "classify_good",
    "level_set",
    "lower_constant",
    "mean_functional",
    "omega",
    "sharpness_sweep",
    "sobolev_seminorm",
    "verify_almost_char",
    "verify_diffquot",
    "verify_oscillation",
    "weight_classifier",
    "window_1d",
]

__version__ = "0.1.0"
