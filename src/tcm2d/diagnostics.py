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
    _modes_field,
    _step,
    make_initial,
    simulate,
)
from .records import DiagnosticsSeries
from .spectral import (
    SpectralField,
    VectorField,
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


def bgw_ratio(u: VectorField) -> float:
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


def commutator_estimate_ratio(u: VectorField, theta: SpectralField) -> float:
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


def _smoothed_h1(du: VectorField, dv: VectorField, dth: SpectralField) -> float:
    parts = (
        norm(smoothing_inverse(du), "H1"),
        norm(smoothing_inverse(dv), "H1"),
        norm(smoothing_inverse(dth), "H1"),
    )
    return float(np.sqrt(sum(p**2 for p in parts)))


def _separation(s1: State, s2: State) -> float:
    return _smoothed_h1(s1.u - s2.u, s1.v - s2.v, s1.theta - s2.theta)


def _growth_coefficient(base: State, pert: State) -> float:
    """1 + ||th2||_inf^2 + ||grad u1||_inf + ||(u1,u2,v1,v2)||_2^2 *
    ||(grad u1, grad u2, grad v1, grad v2)||_2^2 + ||(grad u2, grad v1)||_2^4,
    with run 1 the unperturbed member."""
    th2_sup = norm(pert.theta, "Linf")
    gu1_sup = grad_linf(base.u)
    l2s = (
        norm(base.u, "L2") ** 2
        + norm(pert.u, "L2") ** 2
        + norm(base.v, "L2") ** 2
        + norm(pert.v, "L2") ** 2
    )
    g2s = (
        seminorm(base.u, 1) ** 2
        + seminorm(pert.u, 1) ** 2
        + seminorm(base.v, 1) ** 2
        + seminorm(pert.v, 1) ** 2
    )
    tail = (seminorm(pert.u, 1) ** 2 + seminorm(base.v, 1) ** 2) ** 2
    return float(1.0 + th2_sup**2 + gu1_sup + l2s * g2s + tail)


PERTURBATION_SHAPES = ("mode", "band", "theta")


def _perturbation(cfg: SimConfig, shape: str):
    """Unit-size perturbation triple: divergence-free u part, v, theta.

    Normalized so the smoothed-H1 size of the triple is exactly one. The
    "band" shape takes the config's band, raised to at least (1, 2).
    """
    grid = cfg.grid()
    zero = SpectralField.zeros(grid)
    # the trigonometric shapes are written into the half plane, so they
    # leave no transform roundoff outside the step's mask; with a = 2 pi / L:
    if shape == "mode":
        # psi = cos(ax) cos(ay), v = (sin(ay), 0), theta = sin(a(x + y))
        pu = perp_grad(_modes_field(grid, [((1, 1), 0.25), ((1, -1), 0.25)]))
        pv = VectorField(_modes_field(grid, [((0, 1), -0.5j)]), zero)
        pth = _modes_field(grid, [((1, 1), -0.5j)])
    elif shape == "theta":
        # theta = sin(ax) cos(ay)
        pu = VectorField(zero, zero)
        pv = VectorField(zero, zero)
        pth = _modes_field(grid, [((1, 1), -0.25j), ((1, -1), -0.25j)])
    else:  # "band"
        lo, hi = max(cfg.band_lo, 1), max(cfg.band_hi, 2)
        _check_band(lo, hi, grid.n)
        pu, pv, pth = _band_fields(grid, lo, hi, cfg.seed + 9973)
        pu = leray_project(pu)
    size = _smoothed_h1(pu, pv, pth)
    return pu * (1.0 / size), pv * (1.0 / size), pth * (1.0 / size)


def twin_divergence(cfg: SimConfig, delta: float, shape: str = "mode") -> TwinReport:
    """Run the configured simulation twice, the second from initial data
    perturbed by delta times a unit shape, and compare the smoothed-norm
    separation against the computed exponential envelope.

    With delta = 0 the two runs are the same computation and the
    separation is identically zero. An unknown shape, or a delta that is
    not finite and nonnegative (NaN included), raises BadParams.
    """
    if shape not in PERTURBATION_SHAPES:
        raise BadParams(f"shape must be one of {PERTURBATION_SHAPES}, got {shape!r}")
    if not (np.isfinite(delta) and delta >= 0):
        raise BadParams(f"delta must be finite and nonnegative, got {delta}")
    base = make_initial(cfg)
    if delta == 0.0:
        pert = base
    else:
        pu, pv, pth = _perturbation(cfg, shape)
        pert = State(
            u=leray_project(base.u + pu * delta),
            v=base.v + pv * delta,
            theta=base.theta + pth * delta,
            t=0.0,
            eps=cfg.eps,
        )

    for s in (base, pert):  # step 1's guard, before either state is measured
        _step(1, s, cfg, guard_only=True)
    nsteps = cfg.num_steps()
    times = [0.0]
    seps = [_separation(base, pert)]
    coeffs = [_growth_coefficient(base, pert)]
    for k in range(1, nsteps + 1):
        base = _step(k, base, cfg)
        pert = _step(k, pert, cfg)
        if k % cfg.diag_stride == 0:
            times.append(base.t)
            seps.append(_separation(base, pert))
            coeffs.append(_growth_coefficient(base, pert))

    times = np.array(times)
    coeffs = np.array(coeffs)
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
    reference's snapshots, every other member is stepped from where it
    stands to the same step and compared with it. The sweep holds one state
    per member whatever the horizon, and makes no diagnostics records. The
    members share the step's buffers and each keep their own trapezoidal
    factors (see ``model._factors``), so stepping them in turn rebuilds
    nothing. Members are not stepped past the reference's last snapshot.

    An empty ``levels`` raises BadParams, and so does a level that
    SimConfig rejects. Repeated levels are allowed and give zero distance.
    """
    configs = [replace(base, eps=float(e)) for e in levels]
    if not configs:
        raise BadParams("need at least one eps level")
    eps_levels = np.array([c.eps for c in configs])
    ref = int(np.argmin(eps_levels))
    cfg = configs[ref]
    members = {i: make_initial(c) for i, c in enumerate(configs) if i != ref}
    done = 0  # the step every member stands at
    ts = []
    vel_sq = {i: [] for i in members}
    th_sq = {i: [] for i in members}

    def follow(step: int, r: State) -> None:
        nonlocal done
        for i, s in members.items():
            for k in range(done + 1, step + 1):
                s = _step(k, s, cfg)
            members[i] = s
            vel_sq[i].append(norm(s.u - r.u, "H1") ** 2 + norm(s.v - r.v, "H1") ** 2)
            th_sq[i].append(norm(s.theta - r.theta, "L2") ** 2)
        done = step
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
