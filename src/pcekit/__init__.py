"""Polynomial chaos surrogates for expensive black-box models with uniform inputs.

Build a spectral surrogate from a modest number of model evaluations on a
full Gauss-Legendre or sparse Clenshaw-Curtis quadrature grid, then use it
for fast evaluation, uncertainty quantification, validation error metrics,
and analytic variance-based sensitivity indices.

The package namespace is lazy (PEP 562): `import pcekit` loads no
submodule, and each name below imports its module on first access, so a
command pays only for the modules it uses.  `from pcekit import *` still
binds every name in __all__.
"""

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "blackbox": "BlackBoxModel EvaluationCache ModelSpec",
        "errors": "ConfigurationError EvaluationError ModelFormatError PcekitError "
        "ZeroVarianceError",
        "multiindex": "TENSOR_PRODUCT TOTAL_ORDER Neighborhood cardinality enumerate_indices",
        "quadrature": "GridQuadrature QuadratureRule1D clenshaw_curtis_1d full_grid "
        "gauss_legendre_1d sparse_grid",
        "sampling": "LhsDesign latin_hypercube rmse rrmse",
        "sobol": "SobolReport full_report sobol_index total_index",
        "surrogate": "FullGrid InputVariable PceModel SparseGrid build_pce load save",
    }.items()
    for name in names.split()
}
# Submodules, also reachable as attributes of the package.
_SUBMODULES = "blackbox errors multiindex polybasis quadrature sampling sobol surrogate".split()

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS and name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Importing a submodule binds it here; an exported name is bound here too.
    # __import__ rather than importlib, so that -X importtime reports it.
    module = __import__(f"{__name__}.{_EXPORTS.get(name, name)}", fromlist=["*"])
    if name in _SUBMODULES:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    names = set(globals()) - {"_EXPORTS", "_SUBMODULES", "__getattr__", "__dir__"}
    return sorted(names | set(__all__) | set(_SUBMODULES))
