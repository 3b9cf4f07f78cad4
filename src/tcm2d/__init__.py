"""tcm2d: pseudo-spectral solver for a 2D coupled barotropic/baroclinic/
temperature flow, with a verification harness that certifies energy
identities and a priori bounds on computed trajectories."""

__version__ = "0.1.0"

from .errors import (
    BadParams,
    BadSeries,
    BadWindow,
    CflViolation,
    ChecksumMismatch,
    ConfigParseError,
    EmptyTrajectory,
    EpsOutOfRange,
    Infeasible,
    NonFiniteState,
    NonZeroMean,
    TcmError,
)
from .spectral import (
    Grid,
    SpectralField,
    VectorField,
    advect,
    derivative,
    div,
    grad,
    grad_inv_neg_laplacian,
    inner,
    inv_neg_laplacian,
    laplacian,
    leray_project,
    norm,
    riesz_double,
    seminorm,
    smoothing_inverse,
)
from .model import (
    SimConfig,
    State,
    imex_step,
    make_initial,
    simulate,
)
from .derived import (
    commutator_f,
    commutator_f_gradform,
    pseudo_baroclinic,
    residual_flux_equation,
    residual_phi_equation,
    residual_w_equation,
    temperature_potential,
    viscous_flux,
)
from .records import COLUMNS, DiagnosticsSeries, make_record
from .gronwall import (
    GronwallSeries,
    conclusion_check,
    fit_min_k,
    q_of_t,
    verify_hypothesis,
)
from .diagnostics import (
    bgw_ratio,
    certified_envelope,
    commutator_estimate_ratio,
    energy_identity_residual,
    epsilon_sweep,
    h1_temperature_functionals,
    lipschitz_budget,
    lipschitz_budget_curve,
    max_principle_check,
    twin_divergence,
)
