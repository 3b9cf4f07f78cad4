"""tcm2d: pseudo-spectral solver for a 2D coupled barotropic/baroclinic/
temperature flow, with a verification harness that certifies energy
identities and a priori bounds on computed trajectories.

The package root imports none of its modules: each exported name, and each
module reached as an attribute (``tcm2d.spectral``), is imported on first
access (PEP 562), so a command loads only the modules its work runs."""

import importlib

__version__ = "0.1.0"

#: the module of each name the package root exports
_EXPORTS = {
    "errors": (
        "BadParams",
        "BadSeries",
        "BadWindow",
        "CflViolation",
        "ChecksumMismatch",
        "ConfigParseError",
        "EmptyTrajectory",
        "EpsOutOfRange",
        "Infeasible",
        "NonFiniteState",
        "NonZeroMean",
        "TcmError",
    ),
    "spectral": (
        "Grid",
        "SpectralField",
        "VectorField",
        "advect",
        "derivative",
        "div",
        "grad",
        "grad_inv_neg_laplacian",
        "inner",
        "inv_neg_laplacian",
        "laplacian",
        "leray_project",
        "norm",
        "riesz_double",
        "seminorm",
        "smoothing_inverse",
    ),
    "model": ("SimConfig", "State", "imex_step", "make_initial", "simulate"),
    "derived": (
        "commutator_f",
        "commutator_f_gradform",
        "pseudo_baroclinic",
        "residual_flux_equation",
        "residual_phi_equation",
        "residual_w_equation",
        "temperature_potential",
        "viscous_flux",
    ),
    "records": ("COLUMNS", "DiagnosticsSeries", "make_record"),
    "gronwall": ("GronwallSeries", "conclusion_check", "fit_min_k", "q_of_t", "verify_hypothesis"),
    "diagnostics": (
        "bgw_ratio",
        "certified_envelope",
        "commutator_estimate_ratio",
        "energy_identity_residual",
        "epsilon_sweep",
        "h1_temperature_functionals",
        "lipschitz_budget",
        "lipschitz_budget_curve",
        "max_principle_check",
        "twin_divergence",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULES = frozenset(_EXPORTS) | {"cli", "config", "storage"}


def __getattr__(name):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF, *_MODULES})
