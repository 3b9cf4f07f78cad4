"""Auxiliary fields of the flow and residual checks of their evolution laws.

The temperature potential Phi = grad((-lap)^{-1} theta) absorbs the
temperature gradient of the baroclinic equation: w = v + Phi/(1 - eps)
(the pseudo baroclinic velocity) is one derivative smoother than v, and
flux = div v - theta/(1 - eps) (the effective viscous flux) satisfies a
transport-diffusion equation with better regularity than its parts.

Residual functions verify, on three equally spaced snapshots of one eps
(which they take as the equations' eps), that the derived evolution
equations hold: the time derivative is approximated by a centered
difference, every spatial term is computed spectrally, with products
under the integrator's two-thirds mask, and the residual norm
is normalized by the sum of the term magnitudes so values are comparable
across presets.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import BadWindow, EpsOutOfRange
from .spectral import (
    SpectralField,
    VectorField,
    advect,
    derivative,
    div,
    grad_inv_neg_laplacian,
    inner,
    laplacian,
    multiply,
    norm,
    require_mean_zero,
    riesz_double,
    smoothing_inverse,
)


@dataclass(frozen=True)
class ResidualNorms:
    """Normalized residual of a derived equation, in two metrics.

    ``l2`` uses plain L2 norms; ``smoothed`` measures residual and terms
    after the multiplier (1 + |k|^2)^(-1/2), an H^{-1}-type norm.
    """

    l2: float
    smoothed: float


def _check_eps(eps: float) -> None:
    """The one admissible range of eps, [0, 1), for a State and for the
    formulas here: a nonnegative diffusivity with 1/(1 - eps) defined.
    Raises :class:`EpsOutOfRange` otherwise, also for NaN."""
    if not 0.0 <= eps < 1.0:
        raise EpsOutOfRange(f"eps must lie in [0, 1), got {eps}")


def temperature_potential(theta: SpectralField) -> SpectralField:
    """Phi with -lap(Phi_i) = d_i theta; requires mean-zero theta."""
    return grad_inv_neg_laplacian(theta)


def pseudo_baroclinic(s) -> SpectralField:
    """w = v + Phi/(1 - eps); affine in (v, theta)."""
    _check_eps(s.eps)
    return s.v + temperature_potential(s.theta) * (1.0 / (1.0 - s.eps))


def commutator_f(u: SpectralField, theta: SpectralField) -> SpectralField:
    """Commutator of the double Riesz transform with multiplication by u:

        F_i = sum_j [ R_i R_j (u^j theta) - u^j R_i R_j theta ].

    Bilinear in (u, theta); vanishes when u is constant. The product
    u^j*theta may carry a nonzero mean, which the R_i R_j multiplier
    annihilates by convention. Requires mean-zero theta.
    """
    require_mean_zero(theta, "commutator input theta")
    comps = []
    for i in "xy":
        acc = None
        for j, uj in zip("xy", u):
            term = riesz_double(i, j, multiply(uj, theta)) - multiply(uj, riesz_double(i, j, theta))
            acc = term if acc is None else acc + term
        comps.append(acc)
    return VectorField(*comps)


def commutator_f_gradform(u: SpectralField, theta: SpectralField) -> SpectralField:
    """Equivalent form grad((-lap)^{-1}(u.grad theta)) - (u.grad)Phi.

    Agrees with :func:`commutator_f` when div u = 0; computed independently
    so the two can cross-check each other. The advective product's mean is
    dropped before inverting the Laplacian (it vanishes for div-free u up
    to roundoff).
    """
    require_mean_zero(theta, "commutator input theta")
    adv = advect(u, theta)
    spec = adv.spec.copy()
    spec[0, 0] = 0.0
    lead = grad_inv_neg_laplacian(SpectralField(adv.grid, spec=spec))
    return lead - advect(u, temperature_potential(theta))


def viscous_flux(s) -> SpectralField:
    """flux = div v - theta/(1 - eps); mean(flux) = -mean(theta)/(1 - eps)."""
    _check_eps(s.eps)
    return div(s.v) - s.theta * (1.0 / (1.0 - s.eps))


def _window(snaps):
    if len(snaps) != 3:
        raise BadWindow(f"need exactly 3 snapshots, got {len(snaps)}")
    a, b, c = snaps
    h1, h2 = b.t - a.t, c.t - b.t
    if not (np.isfinite(h1) and np.isfinite(h2)) or h1 <= 0 or abs(h1 - h2) > 1e-9 * max(h1, h2):
        raise BadWindow(f"snapshots not equally spaced: spacings {h1}, {h2}")
    if not all(abs(s.eps - b.eps) < 1e-15 for s in snaps):
        raise BadWindow("snapshots of different eps")
    return a, b, c, h1, b.eps


def _l2(f) -> float:
    return norm(f, "L2")


def _hminus1(f: SpectralField) -> float:
    if f.spec.ndim == 3:
        return float(np.hypot(_hminus1(f.x), _hminus1(f.y)))
    # ||(I-lap)^{-1/2} f||_2 = sqrt(<f, (I-lap)^{-1} f>)
    return float(np.sqrt(max(inner(f, smoothing_inverse(f)), 0.0)))


def _normalized_residual(ddt, terms) -> ResidualNorms:
    res = ddt
    for t in terms:
        res = res + t
    out = []
    for mag in (_l2, _hminus1):
        denom = mag(ddt) + sum(mag(t) for t in terms)
        out.append(0.0 if denom <= 0.0 else mag(res) / denom)
    return ResidualNorms(l2=out[0], smoothed=out[1])


def residual_w_equation(snaps) -> ResidualNorms:
    """Residual of the pseudo-baroclinic evolution law

        dt(w) + (u.grad)w - lap(w) + (v.grad)u
              + [grad((-lap)^{-1} div v) + F] / (1 - eps) = 0,

    evaluated at the middle snapshot with a centered time difference, with
    the eps of the snapshots.
    """
    a, b, c, h, eps = _window(snaps)
    _check_eps(eps)
    scale = 1.0 / (1.0 - eps)
    w_mid = pseudo_baroclinic(b)
    ddt = (pseudo_baroclinic(c) - pseudo_baroclinic(a)) * (0.5 / h)
    f_comm = commutator_f_gradform(b.u, b.theta)
    terms = [
        advect(b.u, w_mid),
        -1.0 * laplacian(w_mid),
        advect(b.v, b.u),
        (grad_inv_neg_laplacian(div(b.v)) + f_comm) * scale,
    ]
    return _normalized_residual(ddt, terms)


def residual_phi_equation(snaps) -> ResidualNorms:
    """Residual of the temperature-potential evolution law

        dt(Phi) + (u.grad)Phi - eps*lap(Phi)
                + grad((-lap)^{-1} div v) + F = 0.
    """
    a, b, c, h, eps = _window(snaps)
    phi_mid = temperature_potential(b.theta)
    ddt = (temperature_potential(c.theta) - temperature_potential(a.theta)) * (0.5 / h)
    terms = [
        advect(b.u, phi_mid),
        (-eps) * laplacian(phi_mid),
        grad_inv_neg_laplacian(div(b.v)),
        commutator_f_gradform(b.u, b.theta),
    ]
    return _normalized_residual(ddt, terms)


def residual_flux_equation(snaps) -> ResidualNorms:
    """Residual of the effective-viscous-flux evolution law

        dt(flux) + u.grad(flux) - lap(flux)
                 + 2 sum_ij (d_i u^j)(d_j v^i) - div v / (1 - eps) = 0.
    """
    a, b, c, h, eps = _window(snaps)
    _check_eps(eps)
    scale = 1.0 / (1.0 - eps)
    ddt = (viscous_flux(c) - viscous_flux(a)) * (0.5 / h)
    f_mid = viscous_flux(b)

    cross = None
    for i, vi in zip("xy", b.v):
        for uj, j in zip(b.u, "xy"):
            term = multiply(derivative(uj, i), derivative(vi, j))
            cross = term if cross is None else cross + term
    cross = cross * 2.0

    terms = [
        advect(b.u, f_mid),
        -1.0 * laplacian(f_mid),
        cross,
        (-scale) * div(b.v),
    ]
    return _normalized_residual(ddt, terms)
