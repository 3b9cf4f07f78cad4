"""Per-record trajectory observables and the time-indexed series they form.

A record collects, at one instant, the norms and functionals the
verification layer consumes: energy and dissipation, Lebesgue/Sobolev norms
of (u, v, theta) and of the pseudo baroclinic velocity w, the sup norm of
the effective viscous flux, the H1-estimate functionals

    A(t) = ||grad theta||_2^2 + t ||(lap u, lap w)||_2^2 + 1,
    B(t) = A(t) + t ||(grad lap u, grad lap w)||_2^2 + eps ||lap theta||_2^2 + e,

mean/divergence bookkeeping, and the fraction of temperature variance in
the top third of the active spectral band (an under-resolution flag).

A record is one batched pass, taken by ``model._Stepper.record_norms`` in
the stage buffers of the step for the same grid and mask, which sit idle
between steps: every L2 norm, seminorm and the tail fraction is a Parseval
sum, read off one stack of spectral powers reduced against weights built
once per grid, and every grid norm comes from two batched inverse
transforms. This module assembles the row from those sums and norms.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyTrajectory, NonZeroMean
from .spectral import MEAN_ZERO_RTOL

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


def make_record(state, use_dealias: bool) -> np.ndarray:
    """Evaluate all observables of one state, as a float64 row in
    ``COLUMNS`` order.

    The norms come from one batched pass through the stage buffers of the
    step for (grid, use_dealias), which sit idle between steps
    (``model._Stepper.record_norms``): every L2 norm and seminorm, of u, v,
    theta, the pseudo baroclinic velocity w and div u, and the tail
    fraction from one power stack of the spectra reduced against weights
    built once per grid; the 14 grid fields (u, v, theta, the effective
    viscous flux, grad u, grad w) from two batched inverse transforms. So
    a record allocates no array of grid size. Like ``imex_step``, whose
    buffers it shares, it reads only the block of modes the product mask
    keeps: a mode off it, which only a state built by hand can hold, is
    dropped, as the step drops it. It is not thread-safe. Requires
    mean-zero theta, as w does.
    """
    from .model import _stepper  # model imports this module

    th, t, eps = state.theta, state.t, state.eps
    g = th.grid
    sums, grid = _stepper(g, use_dealias).record_norms(state)
    # rows u, v, theta, w, div u; columns |k|^0, |k|^2, |k|^4, |k|^6, then
    # the tail band
    l2 = g.length / g.n**2 * np.sqrt(sums[:, :4])
    (u_l2, gu, lu, glu), (v_l2, gv), (th_l2, gth, lth), (gw, lw, glw) = l2[0], l2[1, :2], l2[2, :3], l2[3, 1:]
    if abs(th.mean) > MEAN_ZERO_RTOL * th_l2:
        raise NonZeroMean(f"theta must be mean-zero for w, |mean| = {abs(th.mean):.3e}")
    a_func = gth**2 + t * (lu**2 + lw**2) + 1.0
    b_func = a_func + t * (glu**2 + glw**2) + eps * lth**2 + np.e
    u_h1 = np.hypot(u_l2, gu)
    div_u = g.length / g.n**2 * np.sqrt(sums[4, 0])

    values = dict(
        grid,
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
        a_func=a_func,
        b_func=b_func,
        theta_tail_frac=sums[2, 4] / sums[2, 0] if sums[2, 0] > 0.0 else 0.0,
        div_u_rel=div_u / u_h1 if u_h1 > 0.0 else 0.0,
    )
    return np.array([values[c] for c in COLUMNS])
