"""Tendencies and IMEX time integration for the coupled system

    dt(u) + (u.grad)u - lap(u) + grad(p) + div(v (x) v) = 0,    div u = 0,
    dt(v) + (u.grad)v - lap(v) + grad(theta) + (v.grad)u = 0,
    dt(theta) + u.grad(theta) - eps*lap(theta) + div v = 0,

on the periodic square, with eps = 0 as the target system and eps > 0 as
its regularized variant. The pressure gradient is eliminated by the Leray
projection. Time stepping treats the Laplacians with the trapezoidal rule
and everything else explicitly at second order (predictor/corrector), so
smooth runs converge at order two in dt.

The explicit stage evaluates the quadratic terms in divergence and
rotational form, with curl(a) = d_x a^y - d_y a^x:

    (u.grad)u + div(v (x) v)    as  div(u (x) u + v (x) v),
    (u.grad)v + (v.grad)u       as  grad(u.v) - (u^y curl(v) + v^y curl(u),
                                                 -(u^x curl(v) + v^x curl(u))),
    u.grad(theta)               as  div(u theta),

which the advective forms equal when div u = 0. Under the two-thirds mask
the products carry no aliasing error, so both forms give one discrete
operator to roundoff; without it they differ by their aliasing errors.

A step works on the stacked half-plane spectra (u^x, u^y, v^x, v^y, theta),
shape (5, n, n//2 + 1); the returned State holds views of that array. Each
explicit stage is one batched inverse transform of seven fields (u, v,
theta, curl(u), curl(v)), eight grid products, and one batched forward transform.
The CFL check transforms u and v once; the first stage reuses those grid
velocities when the dealiasing mask drops none of their coefficients. That
makes 30 real field-transforms per step (16 forward, 14 inverse) when the
mask is a no-op on u and v, and 34 otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from . import records
from .errors import BadParams, CflViolation, NonFiniteState
from .spectral import (
    Grid,
    SpectralField,
    VectorField,
    _project,
    leray_project,
    norm,
    perp_grad,
)

PRESETS = ("taylor_green", "single_mode", "random_band")


@dataclass(frozen=True)
class State:
    """Solution triple at one instant: divergence-free u, v, temperature."""

    u: VectorField
    v: VectorField
    theta: SpectralField
    t: float
    eps: float

    def __post_init__(self):
        if not (0.0 <= self.eps < 1.0) or not np.isfinite(self.eps):
            raise BadParams(f"eps must lie in [0, 1), got {self.eps}")

    @property
    def grid(self) -> Grid:
        return self.theta.grid


@dataclass(frozen=True)
class SimConfig:
    """Run description: grid, stepping, regularization, initial data, output."""

    n: int
    dt: float
    horizon: float
    length: float = 2.0 * np.pi
    eps: float = 0.0
    preset: str = "taylor_green"
    amplitude: float = 1.0
    mode_x: int = 1
    mode_y: int = 0
    band_lo: int = 1
    band_hi: int = 4
    u_amp: float = 1.0
    v_amp: float = 0.5
    theta_amp: float = 0.5
    seed: int = 0
    dealias: bool = True
    cfl_max: float = 0.5
    diag_stride: int = 1
    snap_stride: int = 1
    outdir: str | None = None

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not np.isfinite(value):
                raise BadParams(f"{name} must be finite, got {value}")
        if self.dt <= 0:
            raise BadParams(f"dt must be positive, got {self.dt}")
        if self.horizon < 0:
            raise BadParams(f"horizon must be nonnegative, got {self.horizon}")
        if not (0.0 <= self.eps < 0.5):
            raise BadParams(f"eps must lie in [0, 1/2), got {self.eps}")
        if self.diag_stride < 1 or self.snap_stride < 1:
            raise BadParams("strides must be >= 1")
        if self.preset not in PRESETS:
            raise BadParams(f"unknown preset {self.preset!r}")

    def grid(self) -> Grid:
        return Grid(self.n, self.length)

    def num_steps(self) -> int:
        steps = int(round(self.horizon / self.dt))
        if abs(steps * self.dt - self.horizon) > 1e-8 * max(self.dt, self.horizon, 1.0):
            raise BadParams(
                f"horizon {self.horizon} is not an integer number of steps of {self.dt}"
            )
        return steps


@dataclass
class SimResult:
    """Trajectory handle: snapshot states plus the diagnostics series."""

    config: SimConfig
    snapshots: list[State] = field(default_factory=list)
    diagnostics: "records.DiagnosticsSeries" = None


def _band_modes(lo: int, hi: int) -> list[tuple[int, int]]:
    # canonical half-plane representatives, in a grid-independent order
    out = []
    for k1 in range(0, hi + 1):
        for k2 in range(-hi, hi + 1):
            if k1 == 0 and k2 <= 0:
                continue
            if lo**2 <= k1**2 + k2**2 <= hi**2:
                out.append((k1, k2))
    return out


def _random_band_field(grid: Grid, modes, rng) -> SpectralField:
    spec = np.zeros(grid.spec_shape, dtype=np.complex128)
    for k1, k2 in modes:
        z = complex(rng.standard_normal(), rng.standard_normal()) * grid.n**2
        # half-plane slots of mode (k1, k2) and of its conjugate (-k1, -k2)
        if k2 >= 0:
            spec[k1 % grid.n, k2] = z
        if k2 <= 0:
            spec[-k1 % grid.n, -k2] = np.conj(z)
    return SpectralField(grid, spec=spec)


def _normalized(f, target: float):
    size = norm(f, "L2")
    if target == 0.0 or size == 0.0:
        zero = SpectralField.zeros(f.grid if isinstance(f, SpectralField) else f.x.grid)
        return zero if isinstance(f, SpectralField) else VectorField(zero, zero)
    return f * (target / size)


def make_initial(cfg: SimConfig) -> State:
    """Build the initial state of a preset; deterministic given cfg.seed."""
    grid = cfg.grid()
    zero = SpectralField.zeros(grid)

    if cfg.preset == "taylor_green":
        xx, yy = grid.meshgrid()
        a = 2.0 * np.pi / grid.length
        ux = cfg.amplitude * np.sin(a * xx) * np.cos(a * yy)
        uy = -cfg.amplitude * np.cos(a * xx) * np.sin(a * yy)
        u = VectorField(SpectralField.from_phys(grid, ux), SpectralField.from_phys(grid, uy))
        v, theta = VectorField(zero, zero), zero
    elif cfg.preset == "single_mode":
        m = (cfg.mode_x, cfg.mode_y)
        if m == (0, 0) or max(abs(m[0]), abs(m[1])) > grid.n // 2 - 1:
            raise BadParams(f"mode {m} outside resolved modes for n={grid.n}")
        xx, yy = grid.meshgrid()
        a = 2.0 * np.pi / grid.length
        theta = SpectralField.from_phys(
            grid, cfg.amplitude * np.sin(a * (m[0] * xx + m[1] * yy))
        )
        u = v = VectorField(zero, zero)
    else:  # random_band
        if not (1 <= cfg.band_lo <= cfg.band_hi) or cfg.band_hi > grid.n // 2 - 1:
            raise BadParams(
                f"band ({cfg.band_lo}, {cfg.band_hi}) outside resolved modes for n={grid.n}"
            )
        rng = np.random.default_rng(cfg.seed)
        modes = _band_modes(cfg.band_lo, cfg.band_hi)
        psi = _random_band_field(grid, modes, rng)
        vx = _random_band_field(grid, modes, rng)
        vy = _random_band_field(grid, modes, rng)
        th = _random_band_field(grid, modes, rng)
        u = _normalized(perp_grad(psi), cfg.u_amp)
        v = _normalized(VectorField(vx, vy), cfg.v_amp)
        theta = _normalized(th, cfg.theta_amp)

    return State(u=leray_project(u), v=v, theta=theta, t=0.0, eps=cfg.eps)


def _stack(s: State) -> np.ndarray:
    return np.stack((s.u.x.spec, s.u.y.spec, s.v.x.spec, s.v.y.spec, s.theta.spec))


def _products(g: Grid, y: np.ndarray, mask, w: np.ndarray | None) -> np.ndarray:
    # u^x u^x + v^x v^x, u^x u^y + v^x v^y, u^y u^y + v^y v^y, u.v,
    # u^y curl(v) + v^y curl(u), u^x curl(v) + v^x curl(u), u^x theta and
    # u^y theta on the grid, from the spectra y masked by mask and, when
    # given, the grid velocities w of the masked u and v. Apart from
    # _explicit so that the masked spectra and the grid fields made here are
    # freed before the forward transform (peak RSS).
    ik = g.ik
    z = np.empty((7, *g.spec_shape), dtype=np.complex128)
    np.multiply(y, mask, out=z[:5])
    z[5] = ik[0] * z[1] - ik[1] * z[0]
    z[6] = ik[0] * z[3] - ik[1] * z[2]
    f = np.fft.irfft2(z if w is None else z[4:], s=(g.n, g.n))
    ux, uy, vx, vy = f[:4] if w is None else w
    th, cu, cv = f[-3:]
    p = np.empty((8, g.n, g.n))
    p[0] = ux * ux + vx * vx
    p[1] = ux * uy + vx * vy
    p[2] = uy * uy + vy * vy
    p[3] = ux * vx + uy * vy
    p[4] = uy * cv + vy * cu
    p[5] = ux * cv + vx * cu
    p[6] = ux * th
    p[7] = uy * th
    return p


def _explicit(g: Grid, y: np.ndarray, use_dealias: bool, w: np.ndarray | None = None) -> np.ndarray:
    """Everything except the implicit Laplacians, for the stacked spectra
    y = (u^x, u^y, v^x, v^y, theta), with P the Leray projection and
    curl(a) = d_x a^y - d_y a^x:

        -P div(u (x) u + v (x) v),
        -[grad(u.v + theta) - (u^y curl(v) + v^y curl(u), -(u^x curl(v) + v^x curl(u)))],
        -[div(u theta) + div v].

    These are the divergence and rotational forms of the advective terms
    (u.grad)u + div(v (x) v), (u.grad)v + (v.grad)u and u.grad(theta): equal
    for div u = 0, and to roundoff under the two-thirds mask, whose products
    carry no aliasing error. Factors and products are masked once each
    (two-thirds rule when ``use_dealias``, no mask otherwise). ``w``, if
    given, holds the grid velocities (u^x, u^y, v^x, v^y) of the masked
    spectra, which then are not transformed again.
    """
    mask = g.dealias_mask if use_dealias else True
    p = np.fft.rfft2(_products(g, y, mask, w))
    p *= mask
    ik = g.ik
    out = np.empty_like(y)
    out[0] = ik[0] * p[0] + ik[1] * p[1]
    out[1] = ik[0] * p[1] + ik[1] * p[2]
    p[3] += y[4]  # u.v + theta
    out[2] = ik[0] * p[3] - p[4]
    out[3] = ik[1] * p[3] + p[5]
    out[4] = ik[0] * (p[6] + y[2]) + ik[1] * (p[7] + y[3])
    out *= -1.0
    _project(g, out[:2])
    return out


def _trapezoid(g: Grid, a: np.ndarray, inv: np.ndarray, dt: float, y0: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    # y = ((1 + h) y0 + dt*rhs) * (1 / (1 - h)), given a = 1 + h and
    # inv = 1 / (1 - h); then project u
    y = (a * y0 + dt * rhs) * inv
    _project(g, y[:2])
    return y


def imex_step(
    s: State, dt: float, use_dealias: bool = True, cfl_max: float = 0.5
) -> State:
    """Advance one step of size dt; deterministic, CFL-guarded.

    The CFL ratio is dt * max(||u||_Linf, ||v||_Linf) / spacing, from one
    batched transform of u and v. A state whose u or v holds a NaN or an
    infinity raises :class:`NonFiniteState` naming that field instead of
    stepping on.

    Diffusion (full Laplacian for u and v, eps-scaled for theta) is implicit
    by the trapezoidal rule; advection and coupling are explicit through a
    two-stage predictor/corrector, with the quadratic terms in divergence
    and rotational form (see the module docstring). u is re-projected after
    each stage. A step takes 30 real field-transforms (16 forward,
    14 inverse) when the dealiasing mask is a no-op on u and v (always so
    without dealiasing), and 34 otherwise.
    """
    if dt <= 0:
        raise BadParams(f"dt must be positive, got {dt}")
    g = s.grid
    y0 = _stack(s)
    w = np.fft.irfft2(y0[:4], s=(g.n, g.n))
    # ||u||_Linf and ||v||_Linf, as norm(., "Linf") computes them
    linf = np.sqrt(np.max(w[0::2] ** 2 + w[1::2] ** 2, axis=(1, 2)))
    bad = ~np.isfinite(linf)
    if bad.any():
        raise NonFiniteState(s.t, "uv"[int(np.argmax(bad))])
    ratio = dt * float(np.max(linf)) / g.spacing
    if not ratio <= cfl_max:
        raise CflViolation(ratio, cfl_max)
    if use_dealias and np.any(y0[:4][:, ~g.dealias_mask]):
        w = None  # the mask changes u or v: the first stage transforms the masked spectra

    # trapezoidal rule (1 - h) y = (1 + h) y0 + dt*rhs with h = dt*lam/2,
    # lam = -|k|^2 for u and v and -eps*|k|^2 for theta
    h = 0.5 * dt * np.stack((-g.k2,) * 4 + (-s.eps * g.k2,))
    a = 1.0 + h
    inv = 1.0 / (1.0 - h)  # a real reciprocal: no complex division
    del h
    n0 = _explicit(g, y0, use_dealias, w)
    del w  # free the grid velocities before the second stage
    y1 = _trapezoid(g, a, inv, dt, y0, n0)  # predictor
    n1 = _explicit(g, y1, use_dealias)
    y2 = _trapezoid(g, a, inv, dt, y0, 0.5 * (n0 + n1))  # corrector
    f = [SpectralField(g, spec=c) for c in y2]
    return State(u=VectorField(f[0], f[1]), v=VectorField(f[2], f[3]), theta=f[4], t=s.t + dt, eps=s.eps)


def simulate(cfg: SimConfig) -> SimResult:
    """Advance from the configured initial data to the horizon.

    Diagnostics are recorded every ``diag_stride`` steps and snapshots kept
    every ``snap_stride`` steps, both including step 0.
    """
    state = make_initial(cfg)
    nsteps = cfg.num_steps()
    series = records.DiagnosticsSeries()
    series.append(records.make_record(state, cfg.dealias))
    result = SimResult(config=cfg, snapshots=[state], diagnostics=series)

    for k in range(1, nsteps + 1):
        state = imex_step(state, cfg.dt, use_dealias=cfg.dealias, cfl_max=cfg.cfl_max)
        if k % cfg.diag_stride == 0:
            series.append(records.make_record(state, cfg.dealias))
        if k % cfg.snap_stride == 0:
            result.snapshots.append(state)
    return result
