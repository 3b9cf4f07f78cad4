"""Per-record trajectory observables and the time-indexed series they form.

A record collects, at one instant, the norms and functionals the
verification layer consumes: energy and dissipation, Lebesgue/Sobolev norms
of (u, v, theta) and of the pseudo baroclinic velocity w, the sup norm of
the effective viscous flux, the H1-estimate functionals

    A(t) = ||grad theta||_2^2 + t ||(lap u, lap w)||_2^2 + 1,
    B(t) = A(t) + t ||(grad lap u, grad lap w)||_2^2 + eps ||lap theta||_2^2 + e,

mean/divergence bookkeeping, and the fraction of temperature variance in
the top third of the kept band |k|_max <= n/3 (an under-resolution flag).

A record is one batched pass over the state's block, taken by
``model._Stepper.record_norms`` in the stage buffers of the step for the
same grid, which sit idle between steps: every L2 norm, seminorm and the
tail fraction is a Parseval sum, read off one stack of spectral powers
reduced against weights built once per grid, and every grid norm comes
from three batched inverse transforms. This module assembles the row
from those sums and norms.

Energy, dissipation, A and B are defined once, in :func:`derived_columns`,
which ``make_record`` and ``check`` share. A series is one read-only table.
"""

from __future__ import annotations

import numpy as np

from .errors import BadParams, EmptyTrajectory, NonZeroMean
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
    """A run's records: one read-only float64 table, a row per record in
    ``COLUMNS`` order; ``col`` returns a read-only view of a column."""

    def __init__(self, table: np.ndarray):
        if table.dtype != np.float64 or table.shape[1:] != (len(COLUMNS),):
            raise BadParams(f"a series table is float64 (records, {len(COLUMNS)}), got {table.dtype} {table.shape}")
        self.table = table.view()
        self.table.flags.writeable = False

    def col(self, name: str) -> np.ndarray:
        if not len(self.table):
            raise EmptyTrajectory("diagnostics series is empty")
        return self.table[:, COLUMNS.index(name)]

    @property
    def times(self) -> np.ndarray:
        return self.col("t")

    def __len__(self) -> int:
        return len(self.table)


def derived_columns(c, eps: float) -> dict:
    """energy, dissipation, a_func and b_func from the columns ``c`` (scalars
    of one record, or arrays of a table's) and eps: the one definition, which
    ``make_record`` and ``check`` share, so both use one order of operations."""
    a_func = c["grad_theta_l2"] ** 2 + c["t"] * (c["lap_u_l2"] ** 2 + c["lap_w_l2"] ** 2) + 1.0
    return dict(
        energy=0.5 * (c["u_l2"] ** 2 + c["v_l2"] ** 2 + c["theta_l2"] ** 2),
        dissipation=c["grad_u_l2"] ** 2 + c["grad_v_l2"] ** 2 + eps * c["grad_theta_l2"] ** 2,
        a_func=a_func,
        b_func=a_func + c["t"] * (c["grad_lap_u_l2"] ** 2 + c["grad_lap_w_l2"] ** 2) + eps * c["lap_theta_l2"] ** 2 + np.e,
    )


def make_record(state) -> np.ndarray:
    """Evaluate all observables of one state, as a float64 row in
    ``COLUMNS`` order.

    The norms come from one batched pass through the stage buffers of the
    step for the state's grid, which sit idle between steps
    (``model._Stepper.record_norms``): every L2 norm and seminorm, of u, v,
    theta, the pseudo baroclinic velocity w and div u, and the tail
    fraction from one power stack of the spectra reduced against weights
    built once per grid; the 14 grid fields (u, v, theta, the effective
    viscous flux, grad u, grad w) from three batched inverse transforms of
    6 + 4 + 4 fields. So a record allocates no array of grid size. Like
    ``imex_step``, whose buffers it shares, it reads the state's block as
    it is, and theta's mean from its (0, 0) mode. It is not thread-safe.
    Requires mean-zero theta, as w does.
    """
    from .model import _stepper  # model imports this module

    g, t, eps = state.grid, state.t, state.eps
    sums, grid = _stepper(g).record_norms(state)
    # rows u, v, theta, w, div u; columns |k|^0, |k|^2, |k|^4, |k|^6, then
    # the tail band
    l2 = g.length / g.n**2 * np.sqrt(sums[:, :4])
    (u_l2, gu, lu, glu), (v_l2, gv), (th_l2, gth, lth), (gw, lw, glw) = l2[0], l2[1, :2], l2[2, :3], l2[3, 1:]
    mean = float(state.spec[4, 0, 0].real) / g.n**2  # theta's (0, 0) mode
    if abs(mean) > MEAN_ZERO_RTOL * th_l2:
        raise NonZeroMean(f"theta must be mean-zero for w, |mean| = {abs(mean):.3e}")
    u_h1 = np.hypot(u_l2, gu)
    div_u = g.length / g.n**2 * np.sqrt(sums[4, 0])

    values = dict(
        grid,
        t=t,
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
        theta_tail_frac=sums[2, 4] / sums[2, 0] if sums[2, 0] > 0.0 else 0.0,
        div_u_rel=div_u / u_h1 if u_h1 > 0.0 else 0.0,
    )
    values.update(derived_columns(values, eps))
    return np.array([values[c] for c in COLUMNS])
