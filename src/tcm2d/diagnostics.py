"""Trajectory-level verification: energy identity, temperature sup bound,
H1 functionals feeding the logarithmic Gronwall machinery, Lipschitz
budget, inequality-ratio monitors, twin-run separation in smoothed norms,
and the convergence sweep in the temperature diffusivity.

Everything here is read-only over immutable trajectories or series; a
series with no records raises EmptyTrajectory on its first column read.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import gronwall
from .derived import commutator_f
from .errors import BadParams
from .gronwall import _cumtrapz
from .model import (
    SimConfig,
    State,
    _band_fields,
    _check_band,
    _overflowing_field,
    _trajectory,
    make_initial,
    simulate,
)
from .records import DiagnosticsSeries
from .spectral import (
    SpectralField,
    VectorField,
    _modes_field,
    grad_linf,
    leray_project,
    norm,
    perp_grad,
    seminorm,
    smoothing_inverse,
)


def energy_identity_residual(series: DiagnosticsSeries) -> np.ndarray:
    """Residual of E(t) + 2 int_0^t D ds = E(0), normalized by E(0).

    E is the total energy record and D the dissipation record (which
    already carries the eps weight on the temperature gradient).
    """
    t = series.times
    energy = series.col("energy")
    # an energy or dissipation near the top of the float range gives an
    # infinite or NaN residual: that is the result, not a fault to report
    with np.errstate(over="ignore", invalid="ignore"):
        dissipated = _cumtrapz(series.col("dissipation"), t)
        res = 2.0 * energy + 2.0 * dissipated - 2.0 * energy[0]
        e0 = 2.0 * energy[0]
        return res / e0 if e0 > 0.0 else res


def max_principle_check(series: DiagnosticsSeries) -> np.ndarray:
    """Margin of ||theta(t)||_inf <= ||theta_0||_inf + int_0^t ||flux||_inf.

    Nonnegative margins mean the bound holds at that record.
    """
    t = series.times
    budget = series.col("theta_linf")[0] + _cumtrapz(series.col("phi_linf"), t)
    return budget - series.col("theta_linf")


def h1_temperature_functionals(series: DiagnosticsSeries) -> gronwall.GronwallSeries:
    """Assemble (A, B, alpha, beta) from a trajectory's records.

    A and B are the H1-estimate functionals, read from the records'
    ``a_func`` and ``b_func``; alpha collects the sup-norm coefficient
    multiplying A in the differential inequality and beta the remaining
    integrable forcing. K defaults to 1 and is meant to be replaced by a
    fitted value.
    """
    t = series.times
    # a huge norm gives an infinite alpha or beta, which GronwallSeries rejects
    with np.errstate(over="ignore"):
        alpha = (t + 1.0) * (series.col("uv_linf") ** 2 + series.col("grad_u_linf") + 1.0)
        beta = (t + 1.0) * (
            series.col("grad_u_l4") ** 4
            + series.col("grad_w_l4") ** 4
            + series.col("theta_l4") ** 4
            + series.col("grad_v_l2") ** 2
            + series.col("lap_u_l2") ** 2
            + series.col("lap_w_l2") ** 2
        )
    return gronwall.GronwallSeries(
        times=t, A=series.col("a_func"), B=series.col("b_func"), alpha=alpha, beta=beta, K=1.0
    )


@dataclass(frozen=True)
class EnvelopeReport:
    """Fitted-K certification of a run's H1 functionals."""

    fit: gronwall.FitResult
    conclusion: gronwall.ConclusionReport
    series: gronwall.GronwallSeries


def certified_envelope(series: DiagnosticsSeries, tol: float = gronwall.DEFAULT_TOL) -> EnvelopeReport:
    """Fit the smallest K for the run's (A, B) and check the envelope."""
    g = h1_temperature_functionals(series)
    fit = gronwall.fit_min_k(g.times, g.A, g.B, g.alpha, g.beta)
    g = replace(g, K=fit.K)
    return EnvelopeReport(fit=fit, conclusion=gronwall.conclusion_check(g, tol=tol), series=g)


def lipschitz_budget(series: DiagnosticsSeries) -> float:
    """Trapezoidal integral of ||grad u||_inf over the recorded horizon."""
    return float(lipschitz_budget_curve(series)[-1])


def lipschitz_budget_curve(series: DiagnosticsSeries) -> np.ndarray:
    return _cumtrapz(series.col("grad_u_linf"), series.times)


def bgw_ratio(u: SpectralField) -> float:
    """Sup-to-log-interpolation ratio of the velocity gradient:

        ||grad u||_inf / [(1 + ||grad u||_{H1}) * log^{1/2}(e + ||grad u||_{H2}^2)].

    Returns 0 for the zero field. Over families of fields this ratio stays
    bounded; its observed maximum is an empirical constant, not asserted.
    """
    s1 = seminorm(u, 1)
    s2 = seminorm(u, 2)
    s3 = seminorm(u, 3)
    sup = grad_linf(u)
    if sup == 0.0:
        return 0.0
    h1 = np.hypot(s1, s2)
    h2_sq = s1**2 + s2**2 + s3**2
    return float(sup / ((1.0 + h1) * np.sqrt(np.log(np.e + h2_sq))))


def commutator_estimate_ratio(u: SpectralField, theta: SpectralField) -> float:
    """||F(u, theta)||_2 / (||grad u||_2 ||theta||_2); 0 when degenerate.

    Exactly invariant under independent amplitude scalings of u and theta.
    """
    den = seminorm(u, 1) * norm(theta, "L2")
    if den == 0.0:
        return 0.0
    return float(norm(commutator_f(u, theta), "L2") / den)


# ---------------------------------------------------------------------------
# twin-run separation experiment


#: factor between the twin envelope and the bare exponential bound
TWIN_SAFETY = 10.0


@dataclass(frozen=True)
class TwinReport:
    """Separation of two runs in smoothed norms against a computed envelope.

    separation(t) = ||(I - lap)^{-1}(u1-u2, v1-v2, th1-th2)||_{H1};
    coefficient(t) instantiates the growth rate of the difference estimate
    (all absolute constants set to one) from the two trajectories;
    envelope(t) = TWIN_SAFETY * delta * exp(int_0^t coefficient ds).
    """

    times: np.ndarray
    separation: np.ndarray
    coefficient: np.ndarray
    envelope: np.ndarray
    delta: float

    @property
    def passed(self) -> np.ndarray:
        return self.separation <= self.envelope

    @property
    def all_passed(self) -> bool:
        return bool(np.all(self.passed))


def _smoothed_h1(du: SpectralField, dv: SpectralField, dth: SpectralField) -> float:
    parts = (
        norm(smoothing_inverse(du), "H1"),
        norm(smoothing_inverse(dv), "H1"),
        norm(smoothing_inverse(dth), "H1"),
    )
    return float(np.sqrt(sum(p**2 for p in parts)))


def _separation(f1, f2) -> float:
    # of the fields (u, v, theta) of two members
    return _smoothed_h1(*(a - b for a, b in zip(f1, f2)))


def _growth_coefficient(base, pert) -> float:
    """1 + ||th2||_inf^2 + ||grad u1||_inf + ||(u1,u2,v1,v2)||_2^2 *
    ||(grad u1, grad u2, grad v1, grad v2)||_2^2 + ||(grad u2, grad v1)||_2^4,
    with run 1 the unperturbed member; base and pert are the fields
    (u, v, theta) of each."""
    (u1, v1, _), (u2, v2, th2) = base, pert
    th2_sup = norm(th2, "Linf")
    gu1_sup = grad_linf(u1)
    l2s = norm(u1, "L2") ** 2 + norm(u2, "L2") ** 2 + norm(v1, "L2") ** 2 + norm(v2, "L2") ** 2
    g2s = seminorm(u1, 1) ** 2 + seminorm(u2, 1) ** 2 + seminorm(v1, 1) ** 2 + seminorm(v2, 1) ** 2
    tail = (seminorm(u2, 1) ** 2 + seminorm(v1, 1) ** 2) ** 2
    return float(1.0 + th2_sup**2 + gu1_sup + l2s * g2s + tail)


PERTURBATION_SHAPES = ("mode", "band", "theta")


def _perturbation(cfg: SimConfig, shape: str):
    """Unit-size perturbation triple: divergence-free u part, v, theta.

    Normalized so the smoothed-H1 size of the triple is exactly one. The
    "band" shape takes the config's band, raised to at least (1, 2).
    """
    grid = cfg.grid()
    zero = SpectralField.zeros(grid)
    # the trigonometric shapes are written into the block; with a = 2 pi / L:
    if shape == "mode":
        # psi = cos(ax) cos(ay), v = (sin(ay), 0), theta = sin(a(x + y))
        pu = perp_grad(_modes_field(grid, [((1, 1), 0.25), ((1, -1), 0.25)]))
        pv = VectorField(_modes_field(grid, [((0, 1), -0.5j)]), zero)
        pth = _modes_field(grid, [((1, 1), -0.5j)])
    elif shape == "theta":
        # theta = sin(ax) cos(ay)
        pu = pv = VectorField(zero, zero)
        pth = _modes_field(grid, [((1, 1), -0.25j), ((1, -1), -0.25j)])
    else:  # "band"
        lo, hi = max(cfg.band_lo, 1), max(cfg.band_hi, 2)
        _check_band(lo, hi, grid.n)
        pu, pv, pth = _band_fields(grid, lo, hi, cfg.seed + 9973)
        pu = leray_project(pu)
    size = _smoothed_h1(pu, pv, pth)
    return pu * (1.0 / size), pv * (1.0 / size), pth * (1.0 / size)


def _perturbed(cfg: SimConfig, base: State, delta: float, shape: str) -> State:
    # the twin's perturbed initial state (see twin_divergence)
    pu, pv, pth = _perturbation(cfg, shape)
    u, v, theta = base.u, base.v, base.theta
    # an overflow is found once, below, not warned of at each operation
    with np.errstate(over="ignore", invalid="ignore"):
        fields = leray_project(u + pu * delta), v + pv * delta, theta + pth * delta
        bad = _overflowing_field(*fields)
        if bad and _overflowing_field(u, v, theta):
            bad = None  # the base is not finite itself: step 1's guard names the field
    if bad:
        raise BadParams(f"the perturbed initial {bad} of the twin overflows the float range at delta={delta!r}: "
                        f"lower delta")
    return State.from_fields(*fields, t=0.0, eps=cfg.eps)


def twin_divergence(cfg: SimConfig, delta: float, shape: str = "mode") -> TwinReport:
    """Run the configured simulation twice, the second from initial data
    perturbed by delta times a unit shape, and compare the smoothed-norm
    separation against the computed exponential envelope.

    With delta = 0 the two runs are the same computation and the
    separation is identically zero. An unknown shape, or a delta that is
    not finite and nonnegative (NaN included), raises BadParams, and so
    does a delta whose perturbed initial data overflow the float range, as
    ``make_initial`` does for the preset's.
    """
    if shape not in PERTURBATION_SHAPES:
        raise BadParams(f"shape must be one of {PERTURBATION_SHAPES}, got {shape!r}")
    if not (np.isfinite(delta) and delta >= 0):
        raise BadParams(f"delta must be finite and nonnegative, got {delta}")
    base = make_initial(cfg)
    pert = base if delta == 0.0 else _perturbed(cfg, base, delta, shape)

    times, seps, coeffs = [], [], []
    runs = zip(_trajectory(cfg, base), _trajectory(cfg, pert))
    del base, pert  # so that each run holds its initial state only until its first step
    for (k, b), (_, p) in runs:
        if k % cfg.diag_stride == 0:
            fb, fp = (b.u, b.v, b.theta), (p.u, p.v, p.theta)
            times.append(b.t)
            seps.append(_separation(fb, fp))
            coeffs.append(_growth_coefficient(fb, fp))

    times = np.array(times)
    coeffs = np.array(coeffs)
    # an exponent past 709 gives an infinite envelope, which every separation passes
    with np.errstate(over="ignore"):
        envelope = TWIN_SAFETY * delta * np.exp(_cumtrapz(coeffs, times))
    return TwinReport(
        times=times,
        separation=np.array(seps),
        coefficient=coeffs,
        envelope=envelope,
        delta=delta,
    )


# ---------------------------------------------------------------------------
# diffusivity sweep


@dataclass(frozen=True)
class SweepReport:
    """Distances of each member run to the reference (smallest-eps) run.

    Velocity distances are L2 in time of the H1 spatial norm of (u, v)
    differences; temperature distances are L2 in time of the L2 norm.
    """

    eps_levels: np.ndarray
    reference_eps: float
    dist_velocity: np.ndarray
    dist_theta: np.ndarray
    monotone_velocity: bool
    monotone_theta: bool
    slope_velocity: float
    slope_theta: float


def loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log y against log x over the points where both
    are positive; NaN with fewer than two such points."""
    good = (x > 0) & (y > 0)
    if good.sum() < 2:
        return float("nan")
    return float(np.polyfit(np.log(x[good]), np.log(y[good]), 1)[0])


def epsilon_sweep(base: SimConfig, levels) -> SweepReport:
    """Run ``base`` at every eps of ``levels`` and report the distance of
    each member to the smallest-eps member, in the two sweep metrics.

    The members run in lockstep with the reference member: at each of the
    reference's snapshots, every other member's run is advanced to the same
    step and compared with it. Like every run, a member's initial state
    passes step 1's guard before its step-0 distance is taken. The sweep
    holds one state per member whatever the horizon, and makes no
    diagnostics records. The members share the step's buffers and each keep
    their own trapezoidal factors (see ``model._factors``), so stepping them
    in turn rebuilds nothing. Members are not stepped past the reference's
    last snapshot.

    An empty ``levels`` raises BadParams, and so does a level that
    SimConfig rejects. Repeated levels are allowed and give zero distance.
    """
    configs = [replace(base, eps=float(e)) for e in levels]
    if not configs:
        raise BadParams("need at least one eps level")
    eps_levels = np.array([c.eps for c in configs])
    ref = int(np.argmin(eps_levels))
    cfg = configs[ref]
    members = {i: _trajectory(c, make_initial(c)) for i, c in enumerate(configs) if i != ref}
    ts = []
    vel_sq = {i: [] for i in members}
    th_sq = {i: [] for i in members}

    def follow(step: int, r: State) -> None:
        ru, rv, rth = r.u, r.v, r.theta
        for i, states in members.items():
            s = next(s for k, s in states if k == step)
            vel_sq[i].append(norm(s.u - ru, "H1") ** 2 + norm(s.v - rv, "H1") ** 2)
            th_sq[i].append(norm(s.theta - rth, "L2") ** 2)
        ts.append(r.t)

    simulate(cfg, on_snapshot=follow, record=False)

    dv = np.zeros(len(configs))
    dth = np.zeros(len(configs))
    for i in members:
        dv[i] = float(np.sqrt(np.trapezoid(vel_sq[i], ts)))
        dth[i] = float(np.sqrt(np.trapezoid(th_sq[i], ts)))

    others = [i for i in range(len(configs)) if i != ref]
    order = sorted(others, key=lambda i: eps_levels[i], reverse=True)

    def monotone(d):
        vals = [d[i] for i in order]
        return all(x > y for x, y in zip(vals, vals[1:]))

    gaps = np.array([eps_levels[i] - eps_levels[ref] for i in order])
    return SweepReport(
        eps_levels=eps_levels,
        reference_eps=float(eps_levels[ref]),
        dist_velocity=dv,
        dist_theta=dth,
        monotone_velocity=monotone(dv) if len(order) > 1 else True,
        monotone_theta=monotone(dth) if len(order) > 1 else True,
        slope_velocity=loglog_slope(gaps, np.array([dv[i] for i in order])),
        slope_theta=loglog_slope(gaps, np.array([dth[i] for i in order])),
    )
