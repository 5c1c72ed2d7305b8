"""Polynomial chaos surrogates for expensive black-box models with uniform inputs.

Build a spectral surrogate from a modest number of model evaluations on a
full Gauss-Legendre or sparse Clenshaw-Curtis quadrature grid, then use it
for fast evaluation, uncertainty quantification, validation error metrics,
and analytic variance-based sensitivity indices.
"""

__version__ = "0.1.0"

from .blackbox import (
    BlackBoxModel,
    EvaluationCache,
    EvaluationRecord,
    ModelSpec,
    evaluate_batch,
)
from .errors import (
    ConfigurationError,
    EvaluationError,
    ModelFormatError,
    PcekitError,
    ZeroVarianceError,
)
from .multiindex import TENSOR_PRODUCT, TOTAL_ORDER, Neighborhood, cardinality, enumerate_indices
from .polybasis import legendre_eval
from .quadrature import (
    GridQuadrature,
    QuadratureRule1D,
    clenshaw_curtis_1d,
    full_grid,
    gauss_legendre_1d,
    integrate,
    sparse_grid,
)
from .sampling import (
    LhsDesign,
    SummaryStats,
    empirical_distribution,
    latin_hypercube,
    rmse,
    rrmse,
    summarize,
)
from .sobol import SobolReport, full_report, sobol_index, total_index
from .surrogate import (
    FullGrid,
    InputVariable,
    PceModel,
    SparseGrid,
    build_pce,
    load,
    rescale,
    save,
    unscale,
)

__all__ = [
    "BlackBoxModel",
    "ConfigurationError",
    "EvaluationCache",
    "EvaluationError",
    "EvaluationRecord",
    "FullGrid",
    "GridQuadrature",
    "InputVariable",
    "LhsDesign",
    "ModelFormatError",
    "ModelSpec",
    "Neighborhood",
    "PceModel",
    "PcekitError",
    "QuadratureRule1D",
    "SobolReport",
    "SparseGrid",
    "SummaryStats",
    "TENSOR_PRODUCT",
    "TOTAL_ORDER",
    "ZeroVarianceError",
    "build_pce",
    "cardinality",
    "clenshaw_curtis_1d",
    "empirical_distribution",
    "enumerate_indices",
    "evaluate_batch",
    "full_grid",
    "full_report",
    "gauss_legendre_1d",
    "integrate",
    "latin_hypercube",
    "legendre_eval",
    "load",
    "rescale",
    "rmse",
    "rrmse",
    "save",
    "sobol_index",
    "sparse_grid",
    "summarize",
    "total_index",
    "unscale",
]
