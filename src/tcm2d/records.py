"""Per-record trajectory observables and the time-indexed series they form.

A record collects, at one instant, the norms and functionals the
verification layer consumes: energy and dissipation, Lebesgue/Sobolev norms
of (u, v, theta) and of the pseudo baroclinic velocity w, the sup norm of
the effective viscous flux, the H1-estimate functionals

    A(t) = ||grad theta||_2^2 + t ||(lap u, lap w)||_2^2 + 1,
    B(t) = A(t) + t ||(grad lap u, grad lap w)||_2^2 + eps ||lap theta||_2^2 + e,

mean/divergence bookkeeping, and the fraction of temperature variance in
the top third of the active spectral band (an under-resolution flag).
"""

from __future__ import annotations

import numpy as np

from . import derived
from .errors import EmptyTrajectory
from .spectral import _grad_norms, div, grad_l4, norm, seminorm

# CSV column order; "t" must stay first
COLUMNS = (
    "t",
    "energy",
    "dissipation",
    "u_l2",
    "v_l2",
    "theta_l2",
    "grad_u_l2",
    "grad_v_l2",
    "grad_theta_l2",
    "grad_w_l2",
    "lap_u_l2",
    "lap_w_l2",
    "lap_theta_l2",
    "grad_lap_u_l2",
    "grad_lap_w_l2",
    "theta_l4",
    "theta_linf",
    "u_linf",
    "v_linf",
    "uv_linf",
    "grad_u_linf",
    "grad_u_l4",
    "grad_w_l4",
    "phi_linf",
    "a_func",
    "b_func",
    "theta_tail_frac",
    "mean_theta",
    "mean_u_x",
    "mean_u_y",
    "div_u_rel",
)


class DiagnosticsSeries:
    """Append-only list of records, each a float64 row in ``COLUMNS`` order,
    with array-style column access."""

    def __init__(self):
        self.rows: list[np.ndarray] = []

    def append(self, row: np.ndarray) -> None:
        self.rows.append(row)

    def col(self, name: str) -> np.ndarray:
        if not self.rows:
            raise EmptyTrajectory("diagnostics series is empty")
        return np.array(self.rows)[:, COLUMNS.index(name)]

    @property
    def times(self) -> np.ndarray:
        return self.col("t")

    def __len__(self) -> int:
        return len(self.rows)


def _tail_fraction(theta, use_dealias: bool) -> float:
    grid = theta.grid
    active = grid.n / 3.0 if use_dealias else grid.n / 2.0
    cut = 2.0 / 3.0 * active
    band = np.maximum(np.abs(grid.kx_int), np.abs(grid.ky_int))
    power = grid.herm_weight * np.abs(theta.spec) ** 2
    total = power.sum()
    if total <= 0.0:
        return 0.0
    return float(power[band > cut].sum() / total)


def _h1_functionals(t, eps, gth, lu, lw, lth, glu, glw):
    """(A, B) of the H1 estimate from their constituent norms; works on
    floats and on arrays alike."""
    a_func = gth**2 + t * (lu**2 + lw**2) + 1.0
    b_func = a_func + t * (glu**2 + glw**2) + eps * lth**2 + np.e
    return a_func, b_func


def make_record(state, use_dealias: bool) -> np.ndarray:
    """Evaluate all observables of one state, as a float64 row in
    ``COLUMNS`` order."""
    u, v, th, t, eps = state.u, state.v, state.theta, state.t, state.eps
    w = derived.pseudo_baroclinic(state)
    flux = derived.viscous_flux(state)

    u_l2, v_l2, th_l2 = norm(u, "L2"), norm(v, "L2"), norm(th, "L2")
    gu, gv, gth, gw = seminorm(u, 1), seminorm(v, 1), seminorm(th, 1), seminorm(w, 1)
    lu, lw, lth = seminorm(u, 2), seminorm(w, 2), seminorm(th, 2)
    glu, glw = seminorm(u, 3), seminorm(w, 3)

    gu_linf, gu_l4 = _grad_norms(u)
    uv_sq = u.x.phys**2 + u.y.phys**2 + v.x.phys**2 + v.y.phys**2
    a_func, b_func = _h1_functionals(t, eps, gth, lu, lw, lth, glu, glw)

    div_u = norm(div(u), "L2")
    u_h1 = float(np.hypot(u_l2, gu))

    values = dict(
        t=t,
        energy=0.5 * (u_l2**2 + v_l2**2 + th_l2**2),
        dissipation=gu**2 + gv**2 + eps * gth**2,
        u_l2=u_l2,
        v_l2=v_l2,
        theta_l2=th_l2,
        grad_u_l2=gu,
        grad_v_l2=gv,
        grad_theta_l2=gth,
        grad_w_l2=gw,
        lap_u_l2=lu,
        lap_w_l2=lw,
        lap_theta_l2=lth,
        grad_lap_u_l2=glu,
        grad_lap_w_l2=glw,
        theta_l4=norm(th, "L4"),
        theta_linf=norm(th, "Linf"),
        u_linf=norm(u, "Linf"),
        v_linf=norm(v, "Linf"),
        uv_linf=float(np.sqrt(np.max(uv_sq))),
        grad_u_linf=gu_linf,
        grad_u_l4=gu_l4,
        grad_w_l4=grad_l4(w),
        phi_linf=norm(flux, "Linf"),
        a_func=a_func,
        b_func=b_func,
        theta_tail_frac=_tail_fraction(th, use_dealias),
        # from the grid samples the sup norms above already hold
        mean_theta=float(th.phys.mean()),
        mean_u_x=float(u.x.phys.mean()),
        mean_u_y=float(u.y.phys.mean()),
        div_u_rel=div_u / u_h1 if u_h1 > 0.0 else 0.0,
    )
    return np.array([values[c] for c in COLUMNS])
