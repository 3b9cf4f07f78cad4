"""Tendencies and IMEX time integration for the coupled system

    dt(u) + (u.grad)u - lap(u) + grad(p) + div(v (x) v) = 0,    div u = 0,
    dt(v) + (u.grad)v - lap(v) + grad(theta) + (v.grad)u = 0,
    dt(theta) + u.grad(theta) - eps*lap(theta) + div v = 0,

on the periodic square, with eps = 0 as the target system and eps > 0 as
its regularized variant. The pressure gradient is eliminated by the Leray
projection. Time stepping treats the Laplacians with the trapezoidal rule
and everything else explicitly at second order (predictor/corrector), so
smooth runs converge at order two in dt.
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
    advect,
    derivative,
    div,
    grad,
    leray_project,
    multiply,
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
    spec = np.zeros((grid.n, grid.n), dtype=np.complex128)
    for k1, k2 in modes:
        z = complex(rng.standard_normal(), rng.standard_normal())
        spec[k1 % grid.n, k2 % grid.n] = z * grid.n**2
        spec[-k1 % grid.n, -k2 % grid.n] = np.conj(z) * grid.n**2
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


def _div_outer(v: VectorField, use_dealias: bool) -> VectorField:
    # component i of div(v (x) v) = d_j (v^j v^i)
    vxx = multiply(v.x, v.x, use_dealias)
    vxy = multiply(v.x, v.y, use_dealias)
    vyy = multiply(v.y, v.y, use_dealias)
    return VectorField(
        derivative(vxx, "x") + derivative(vxy, "y"),
        derivative(vxy, "x") + derivative(vyy, "y"),
    )


def _explicit(s: State, use_dealias: bool):
    """Everything except the implicit Laplacians; quadratic products formed
    in physical space, dealiased via the two-thirds rule when
    ``use_dealias`` is on."""
    nu = leray_project(-1.0 * (advect(s.u, s.u, use_dealias) + _div_outer(s.v, use_dealias)))
    nv = -1.0 * (advect(s.u, s.v, use_dealias) + grad(s.theta) + advect(s.v, s.u, use_dealias))
    nth = -1.0 * (advect(s.u, s.theta, use_dealias) + div(s.v))
    return nu, nv, nth


def _cn_solve(x: SpectralField, n0: SpectralField, n1, lam: np.ndarray, dt: float) -> SpectralField:
    """One trapezoidal/explicit update in spectral space.

    Predictor (n1 is None):  (1 - dt*lam/2) x' = (1 + dt*lam/2) x + dt n0
    Corrector:               (1 - dt*lam/2) x' = (1 + dt*lam/2) x + dt (n0+n1)/2
    """
    num = (1.0 + 0.5 * dt * lam) * x.spec
    if n1 is None:
        num = num + dt * n0.spec
    else:
        num = num + 0.5 * dt * (n0.spec + n1.spec)
    return SpectralField(x.grid, spec=num / (1.0 - 0.5 * dt * lam))


def _cn_solve_vec(a: VectorField, n0: VectorField, n1, lam, dt) -> VectorField:
    return VectorField(
        _cn_solve(a.x, n0.x, None if n1 is None else n1.x, lam, dt),
        _cn_solve(a.y, n0.y, None if n1 is None else n1.y, lam, dt),
    )


def cfl_ratio(s: State, dt: float) -> float:
    vmax = max(norm(s.u, "Linf"), norm(s.v, "Linf"))
    return dt * vmax / s.grid.spacing


def imex_step(
    s: State, dt: float, use_dealias: bool = True, cfl_max: float = 0.5
) -> State:
    """Advance one step of size dt; deterministic, CFL-guarded.

    A state whose CFL ratio is not finite (a NaN or infinity in u or v)
    raises :class:`NonFiniteState` instead of stepping on.

    Diffusion (full Laplacian for u and v, eps-scaled for theta) is implicit
    by the trapezoidal rule; advection and coupling are explicit through a
    two-stage predictor/corrector. u is re-projected after each stage.
    """
    if dt <= 0:
        raise BadParams(f"dt must be positive, got {dt}")
    ratio = cfl_ratio(s, dt)
    if not ratio <= cfl_max:
        if not np.isfinite(ratio):
            raise NonFiniteState(s.t)
        raise CflViolation(ratio, cfl_max)

    grid = s.grid
    lam_uv = -grid.k2
    lam_th = -s.eps * grid.k2

    nu0, nv0, nth0 = _explicit(s, use_dealias)
    u1 = leray_project(_cn_solve_vec(s.u, nu0, None, lam_uv, dt))
    v1 = _cn_solve_vec(s.v, nv0, None, lam_uv, dt)
    th1 = _cn_solve(s.theta, nth0, None, lam_th, dt)
    mid = State(u=u1, v=v1, theta=th1, t=s.t + dt, eps=s.eps)

    nu1, nv1, nth1 = _explicit(mid, use_dealias)
    u2 = leray_project(_cn_solve_vec(s.u, nu0, nu1, lam_uv, dt))
    v2 = _cn_solve_vec(s.v, nv0, nv1, lam_uv, dt)
    th2 = _cn_solve(s.theta, nth0, nth1, lam_th, dt)
    return State(u=u2, v=v2, theta=th2, t=s.t + dt, eps=s.eps)


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
