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

which the advective forms equal when div u = 0. The Leray projection kills
gradients, so the u tendency takes only the trace-free part of the stress
S = u (x) u + v (x) v,

    P div S  =  P div(S - tr(S) I / 2),

which needs the two products S_xx - S_yy and S_xy instead of three: the
masked product of the trace is still a gradient.

Every factor and product is masked by the two-thirds rule
(``Grid.dealias_mask``). So no state carries Nyquist modes, u stays in
the range of the Leray projection, and the products carry no aliasing
error, so both forms give one discrete operator to roundoff.

Layout. The mask keeps exactly one block of the half plane
(:func:`kept_block`): the rows [0, lo) and [hi, n) of its leading cols
columns (lo = 86, hi = 171, cols = 86 at n = 256, 44.5 % of the half
plane). Every state the system makes lies on that block, since
``SimConfig`` rejects a band or a mode past it, and a snapshot stores only
the block (``storage``). A step gathers that block of the five spectra
(u^x, u^y, v^x, v^y, theta) once, into held contiguous (5, r, cols)
arrays, and does all of its spectral arithmetic there: curls, tendency
assembly, trapezoidal factors, Leray projection. Each inverse transform scatters a
block into the held transform buffer with zeros at every other mode, and
each forward transform gathers the block back, so no mask is multiplied.
A mode off the block, which only a state built by hand can hold, is
dropped by the gather, as the mask drops it from every product. The
result is a fresh (5, n, n//2 + 1) array with the block scattered in;
the returned State holds views of it.

Each explicit stage is one batched inverse transform of seven fields (u,
v, theta, curl(u), curl(v)), seven grid products, and one batched forward
transform of seven fields, whose complex passes run only over the leading
cols columns (a pruned FFT). The CFL check transforms u and v once, and
the first stage reuses them: 28 real field-transforms per step (14
forward, 14 inverse). The stage returns the unprojected u tendency, and
the step projects the predictor and the corrector: one projection per
stage result, the same operator in exact arithmetic. The corrector
accumulates into the state block, so a warm step allocates its result and
small temporaries only.

What a step reuses sits in two private caches. The buffers and the
gathered multipliers depend on the grid and sit in a one-entry cache
(about 14 MB of buffers at n = 256), the trapezoidal factors on (grid,
dt, eps) in a small cache of their own, so runs that differ only
in eps, such as the members of an eps sweep stepped in lockstep, share
one set of buffers. A record borrows the same buffers between steps
(``_Stepper.record_norms``, which ``records.make_record`` calls), so
neither ``imex_step`` nor ``make_record`` is thread-safe.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import records
from .derived import _check_eps
from .errors import BadParams, CflViolation, NonFiniteState
from .spectral import (
    Grid,
    _check_grid,
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
        _check_eps(self.eps)

    @property
    def grid(self) -> Grid:
        return self.theta.grid


@dataclass(frozen=True)
class SimConfig:
    """Run description: grid, stepping, regularization, initial data, output.

    eps lies in [0, 1/2), inside the [0, 1) of a :class:`State` and of
    ``derived._check_eps``, where the factor 1/(1 - eps) of w and the flux
    is defined: eps > 0 is the regularized variant of the target system
    eps = 0, whose limit eps -> 0 the harness studies, and below 1/2 that
    factor stays under 2.
    Every rule is checked here, the grid's and the preset's mode or band
    included, so a config that constructs can run. A mode or band must lie
    within the modes the two-thirds mask keeps, |k1|, |k2| <= n // 3, so
    every state a run makes lies on the block a step works on.
    """

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
        if self.cfl_max <= 0:
            raise BadParams(f"cfl_max must be positive, got {self.cfl_max}")
        if self.horizon < 0:
            raise BadParams(f"horizon must be nonnegative, got {self.horizon}")
        if not (0.0 <= self.eps < 0.5):
            raise BadParams(f"eps must lie in [0, 1/2), got {self.eps}")
        if self.diag_stride < 1 or self.snap_stride < 1:
            raise BadParams("strides must be >= 1")
        if self.seed < 0:
            raise BadParams(f"seed must be nonnegative, got {self.seed}")
        if self.preset not in PRESETS:
            raise BadParams(f"unknown preset {self.preset!r}")
        _check_grid(int(self.n), self.length)
        if abs(self.num_steps() * self.dt - self.horizon) > 1e-8 * max(self.dt, self.horizon, 1.0):
            raise BadParams(f"horizon {self.horizon} is not an integer number of steps of {self.dt}")
        if self.preset == "single_mode":
            m = (self.mode_x, self.mode_y)
            if m == (0, 0) or max(map(abs, m)) > _kept_max(self.n):
                raise BadParams(f"mode {m} outside the kept modes |k| <= {_kept_max(self.n)} for n={self.n}")
        elif self.preset == "random_band":
            _check_band(self.band_lo, self.band_hi, self.n)

    def grid(self) -> Grid:
        return Grid(self.n, self.length)

    def num_steps(self) -> int:
        return int(round(self.horizon / self.dt))


@dataclass
class SimResult:
    """Trajectory handle: snapshot states plus the diagnostics series.

    ``snapshots`` is empty when :func:`simulate` handed them to a sink, and
    ``diagnostics`` holds no rows when it handed those to one.
    """

    snapshots: list[State] = field(default_factory=list)
    diagnostics: "records.DiagnosticsSeries" = None


def _kept_max(n: int) -> int:
    # the largest |k1|, |k2| that Grid.dealias_mask keeps: |k| <= n/3
    return n // 3


def kept_block(n: int) -> tuple[int, int, int]:
    """(lo, hi, cols) of the block of the n-point rfft2 half plane that the
    two-thirds mask keeps: the rows [0, lo) and [hi, n) of the columns
    [0, cols), with k = n // 3 the rows [0, k] and [n - k, n) of the columns
    [0, k]. It holds (2k + 1)(k + 1) modes, 171 x 86 at n = 256. The step
    and the snapshot format both read the block from here."""
    k = _kept_max(n)
    return k + 1, n - k, k + 1


def _check_band(lo: int, hi: int, n: int) -> None:
    # the band rule: 1 <= lo <= hi <= _kept_max, so a band state lies on the
    # block that the two-thirds mask keeps
    if not (1 <= lo <= hi) or hi > _kept_max(n):
        raise BadParams(f"band ({lo}, {hi}) outside the kept modes |k| <= {_kept_max(n)} for n={n}")


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


def _modes_field(grid: Grid, coeffs) -> SpectralField:
    # the real field with Fourier coefficient z at mode (k1, k2) and conj(z)
    # at (-k1, -k2) for each ((k1, k2), z) of coeffs, written into the
    # half-plane slots of both with rfft2's scaling n^2; no mode may be
    # another's conjugate
    spec = np.zeros(grid.spec_shape, dtype=np.complex128)
    for (k1, k2), z in coeffs:
        z = z * grid.n**2
        if k2 >= 0:
            spec[k1 % grid.n, k2] = z
        if k2 <= 0:
            spec[-k1 % grid.n, -k2] = np.conj(z)
    return SpectralField(grid, spec)


def _band_fields(grid: Grid, lo: int, hi: int, seed: int) -> tuple[VectorField, VectorField, SpectralField]:
    # (perp_grad(psi), v, theta), each of psi, v^x, v^y and theta drawn in
    # that order from the seeded generator, with a standard normal real and
    # imaginary part at every mode of the band
    rng = np.random.default_rng(seed)
    modes = _band_modes(lo, hi)
    psi, vx, vy, theta = (
        _modes_field(grid, [(m, complex(rng.standard_normal(), rng.standard_normal())) for m in modes])
        for _ in range(4)
    )
    return perp_grad(psi), VectorField(vx, vy), theta


def _normalized(f, target: float):
    size = norm(f, "L2")
    if target == 0.0 or size == 0.0:
        zero = SpectralField.zeros(f.grid if isinstance(f, SpectralField) else f.x.grid)
        return zero if isinstance(f, SpectralField) else VectorField(zero, zero)
    return f * (target / size)


def make_initial(cfg: SimConfig) -> State:
    """Build the initial state of a preset; deterministic given cfg.seed.

    Every preset writes its Fourier coefficients straight into the half
    plane, so no transform roundoff lies outside the step's mask.
    """
    grid = cfg.grid()
    zero = SpectralField.zeros(grid)

    if cfg.preset == "taylor_green":
        # u = perp_grad(psi) = A (sin(ax) cos(ay), -cos(ax) sin(ay)) for the
        # stream function psi = -(A/a) sin(ax) sin(ay)
        a = 2.0 * np.pi / grid.length
        c = cfg.amplitude / (4.0 * a)
        u = perp_grad(_modes_field(grid, [((1, 1), c), ((1, -1), -c)]))
        v, theta = VectorField(zero, zero), zero
    elif cfg.preset == "single_mode":
        # theta = A sin(a (m_x x + m_y y))
        theta = _modes_field(grid, [((cfg.mode_x, cfg.mode_y), -0.5j * cfg.amplitude)])
        u = v = VectorField(zero, zero)
    else:  # random_band
        u, v, theta = _band_fields(grid, cfg.band_lo, cfg.band_hi, cfg.seed)
        u = _normalized(u, cfg.u_amp)
        v = _normalized(v, cfg.v_amp)
        theta = _normalized(theta, cfg.theta_amp)

    return State(u=leray_project(u), v=v, theta=theta, t=0.0, eps=cfg.eps)


def _gather(a: np.ndarray, lo: int, hi: int, cols: int, out: np.ndarray | None = None) -> np.ndarray:
    # the rows [0, lo) and [hi, n) of a's leading cols columns, as one
    # contiguous array (into out if given); an axis of length 1, as in a
    # broadcast multiplier, is kept as it is
    return np.concatenate((a[..., :lo, :cols], a[..., hi:, :cols]), axis=-2, out=out)


def _scatter(a: np.ndarray, out: np.ndarray, lo: int, hi: int, cols: int) -> None:
    # the inverse of _gather: the block array a into the half-plane array
    # out, with zeros at every mode off the block
    out[..., :lo, :cols] = a[..., :lo, :]
    out[..., hi:, :cols] = a[..., lo:, :]
    out[..., lo:hi, :cols] = 0
    out[..., cols:] = 0


def _scale(c: np.ndarray, y: np.ndarray) -> np.ndarray:
    # y *= c in place, for c with the rows (u and v, theta)
    y[:4] *= c[0]
    y[4] *= c[1]
    return y


def _mul_add(a, b, c, d, out: np.ndarray, tmp: np.ndarray) -> None:
    # out = a*b + c*d, with c*d in tmp
    np.multiply(c, d, out=tmp)
    np.multiply(a, b, out=out)
    out += tmp


def _irfft2(a: np.ndarray, out: np.ndarray, cols: int) -> None:
    # np.fft.irfft2(a, s=out.shape[-2:]) into out, for a zero beyond its
    # first cols columns, overwriting a: irfft2 is a complex inverse along
    # axis -2 and a real one along axis -1, but drops out=, so both passes
    # are taken here with it, the first in place over those cols columns
    # only. Equal to irfft2 (zeros may differ in sign).
    np.fft.ifftn(a[..., :cols], axes=(-2,), out=a[..., :cols])
    np.fft.irfft(a, out.shape[-1], axis=-1, out=out)


def _rfft2(a: np.ndarray, out: np.ndarray, cols: int) -> None:
    # np.fft.rfft2(a) into out's first cols columns; the later ones take
    # only the real pass along axis -1, for the caller's gather or mask to
    # drop. (fftn along one axis is fft, under the n-d name that
    # bench/trace_child.py and the transform-count tests wrap)
    np.fft.rfft(a, axis=-1, out=out)
    np.fft.fftn(out[..., :cols], axes=(-2,), out=out[..., :cols])


class _Stepper:
    """What :func:`imex_step` reuses from step to step for one grid. The
    two-thirds mask keeps one block of the half plane, the rows
    [0, lo) and [hi, n) of its leading cols columns (``key`` = (lo, hi,
    cols)), and the stepper holds the multipliers gathered onto that block
    and the arrays a step works in: on the block, contiguous (..., r, cols)
    arrays with r = n - hi + lo, the gathered state y, the stage results y1
    and the scratch c, (5, r, cols), (5, r, cols) and (2, r, cols) complex,
    2.8 MB at n = 256; on the grid, the transform buffer z, the grid factors
    f (u, v, theta, curl(u), curl(v)) and the grid products p, whose memory
    q then holds the block of their spectra. A step writes each buffer
    before reading it, so :meth:`record_norms` may work in them between
    steps.
    """

    def __init__(self, g: Grid):
        self.g = g
        # the columns of the block are the only ones a stage transform's
        # complex pass takes (86 of 129 at n = 256)
        self.key = kept_block(g.n)
        lo, hi, self.cols = self.key
        shape = (g.n - hi + lo, self.cols)
        self.ik = self.gather(g.ik)
        self.minus_ik = -self.ik  # the tendency is minus the terms
        # what _project reads of a grid
        self.kx, self.ky, self.inv_k2 = (self.gather(a) for a in (g.kx, g.ky, g.inv_k2))
        self.z = np.empty((7, *g.spec_shape), dtype=np.complex128)
        self.f, self.p = np.empty((7, g.n, g.n)), np.empty((7, g.n, g.n))
        # y1: b n0 / 2, then the predictor, then b n1 / 2 over it
        self.y, self.y1, self.c = (np.empty((k, *shape), dtype=np.complex128) for k in (5, 5, 2))
        self.q = self.p.reshape(-1)[: 14 * shape[0] * shape[1]].view(np.complex128).reshape(7, *shape)

    def gather(self, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The modes of the half-plane array a on the block."""
        return _gather(a, *self.key, out)

    def scatter(self, a: np.ndarray, out: np.ndarray) -> None:
        """The block array a into the half-plane array out, with zeros at
        every mode off the block."""
        _scatter(a, out, *self.key)

    def load(self, s) -> np.ndarray:
        """y, with the block of s's five spectra gathered into it. A mode off
        the block is dropped, as the mask drops it from every product."""
        for a, out in zip((s.u.x.spec, s.u.y.spec, s.v.x.spec, s.v.y.spec, s.theta.spec), self.y):
            self.gather(a, out)
        return self.y

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """The Parseval weights of a record, as the rows of one (5, r cols)
        array: herm_weight |k|^(2j) for j = 0..3, then herm_weight on the
        tail band, the top third of the kept band |k|_max <= n/3."""
        g = self.g
        band = np.maximum(np.abs(g.kx_int), np.abs(g.ky_int))
        rows = [g.seminorm_weight(j) for j in range(4)] + [g.herm_weight * (band > 2.0 / 3.0 * (g.n / 3.0))]
        return self.gather(np.stack(rows)).reshape(5, -1)

    def guard(self, s, dt: float, cfl_max: float) -> np.ndarray:
        """The guard of :func:`imex_step` from s, norms as norm(., "Linf")
        computes them; returns y, s loaded, with the grid velocities of u
        and v in f[:4]."""
        y, f, sq, z = self.load(s), self.f, self.p[:4], self.z[:4]
        self.scatter(y[:4], z)
        _irfft2(z, f[:4], self.cols)
        with np.errstate(over="ignore"):  # the squares of a finite field past 1e154 overflow
            np.square(f[0:4:2], out=sq[:2])
            np.square(f[1:4:2], out=sq[2:])
            sq[:2] += sq[2:]
            linf = np.sqrt(np.max(sq[:2], axis=(1, 2)))
            if not np.isfinite(linf).all():  # again without overflow, so only a NaN or an infinity stays
                linf = np.max(np.hypot(f[0:4:2], f[1:4:2]), axis=(1, 2))
        bad = ~np.isfinite(linf)
        if bad.any():
            raise NonFiniteState(s.t, "uv"[int(np.argmax(bad))])
        ratio = dt * float(np.max(linf)) / self.g.spacing
        if not ratio <= cfl_max:
            raise CflViolation(ratio, cfl_max, s.t)
        return y

    def _products(self, y: np.ndarray, grid_uv: bool) -> None:
        # S_xx - S_yy, S_xy (S = u (x) u + v (x) v), u.v,
        # u^y curl(v) + v^y curl(u), u^x curl(v) + v^x curl(u), u^x theta and
        # u^y theta on the grid into p, from the spectra y, scattered with
        # their curls into z, and, if grid_uv, the grid velocities of u and v
        # in f[:4]
        ik, z, f, p, c, q = self.ik, self.z, self.f, self.p, self.c[0], self.q
        np.multiply(ik[0], y[1], out=q[5])
        np.multiply(ik[1], y[0], out=c)
        q[5] -= c
        np.multiply(ik[0], y[3], out=q[6])
        np.multiply(ik[1], y[2], out=c)
        q[6] -= c
        k = 4 if grid_uv else 0
        self.scatter(y[k:], z[k:5])
        self.scatter(q[5:], z[5:])
        _irfft2(z[k:], f[k:], self.cols)
        ux, uy, vx, vy, th, cu, cv = f
        _mul_add(ux, ux, vx, vx, p[0], p[1])
        _mul_add(uy, uy, vy, vy, p[1], p[2])
        p[0] -= p[1]
        sums = ((ux, uy, vx, vy), (ux, vx, uy, vy), (uy, cv, vy, cu), (ux, cv, vx, cu))
        for k, factors in enumerate(sums, 1):
            _mul_add(*factors, p[k], p[k + 1])  # p[k + 1] is written next
        np.multiply(ux, th, out=p[5])
        np.multiply(uy, th, out=p[6])

    def explicit(self, y: np.ndarray, grid_uv: bool, out: np.ndarray) -> np.ndarray:
        """Everything except the implicit Laplacians, for the spectra
        y = (u^x, u^y, v^x, v^y, theta) on the block, with P the Leray
        projection and curl(a) = d_x a^y - d_y a^x:

            -div(S - tr(S) I / 2),  whose projection -P div S the step keeps,
            -[grad(u.v + theta) - (u^y curl(v) + v^y curl(u), -(u^x curl(v) + v^x curl(u)))],
            -[div(u theta) + div v].

        These are the divergence and rotational forms of the advective terms
        (u.grad)u + div(v (x) v), (u.grad)v + (v.grad)u and u.grad(theta):
        equal for div u = 0, and to roundoff under the two-thirds mask, whose
        products carry no aliasing error. P kills gradients, so the u
        tendency takes the trace-free part of the stress S = u (x) u + v (x) v,
        P div S = P div(S - tr(S) I / 2), which needs S_xx - S_yy and S_xy
        only: seven products in all. The u tendency is returned
        unprojected: the step projects each stage result. Factors and
        products are masked once each, by the block's scatter and gather.
        With ``grid_uv``, f[:4] already holds the grid velocities of y (as
        :meth:`guard` leaves them). The result is written into
        ``out``, which may be ``y``.
        """
        self._products(y, grid_uv)
        q, c = self.q, self.c[0]
        _rfft2(self.p, self.z, self.cols)
        self.gather(self.z, q)
        q[0] *= 0.5  # (S_xx - S_yy) / 2, the trace-free stress (q[0], q[1]; q[1], -q[0])
        q[2] += y[4]  # u.v + theta
        q[5] += y[2]  # u^x theta + v^x
        q[6] += y[3]  # u^y theta + v^y
        # y is not read below this line, so out may be y
        mik = self.minus_ik
        _mul_add(mik[0], q[0], mik[1], q[1], out[0], c)
        np.multiply(mik[0], q[1], out=out[1])
        np.multiply(mik[1], q[0], out=c)
        out[1] -= c
        np.multiply(mik[0], q[2], out=out[2])
        out[2] += q[3]
        np.multiply(mik[1], q[2], out=out[3])
        out[3] -= q[4]
        _mul_add(mik[0], q[5], mik[1], q[6], out[4], c)
        return out

    def record_norms(self, s) -> tuple[np.ndarray, dict]:
        """What ``records.make_record`` assembles the record of the state s
        from, in one batched pass through the buffers, which sit idle
        between steps, on the block a step of s works on:

        - the (5, 5) Parseval sums  sum herm_weight |k|^(2j) |a_k|^2  for
          j = 0..3 and over the tail band (columns), of u, v, theta, the
          pseudo baroclinic velocity w and div u (rows), from one power
          stack (re^2 + im^2) of the block's modes reduced by one matmul
          against :attr:`weights`;
        - the grid norms and means of the record, keyed by their column
          names, from two seven-field inverse transforms pruned to the
          block's columns, each reduced in place in the order of
          operations of ``norm`` and ``grad_linf``.

        Allocates no array of grid size.
        """
        eps = s.eps
        g, ik, y, e, q = self.g, self.ik, self.load(s), self.y1, self.q
        z, f, p = self.z, self.f, self.p
        shape = y.shape[1:]
        m = y[0].size
        scale = 1.0 / (1.0 - eps)

        # w = v + grad((-lap)^-1 theta) / (1 - eps) and div u into e[:3]
        np.multiply(self.inv_k2, y[4], out=e[2])
        np.multiply(ik, e[2], out=e[:2])
        e[:2] *= scale
        e[:2] += y[2:4]
        np.multiply(ik[0], y[0], out=e[2])
        np.multiply(ik[1], y[1], out=e[3])
        e[2] += e[3]

        # the power stack of (u^x, u^y, v^x, v^y, theta, w^x, w^y, div u)
        # in p, the squared real and imaginary parts of five spectra at a
        # time in f; 8 and 10 blocks of floats, which fit in 7 n^2 for
        # every n >= 8 that Grid allows
        power = p.reshape(-1)[: 8 * m].reshape(8, *shape)
        for spec, pw in ((y, power[:5]), (e[:3], power[5:])):
            sq = f.reshape(-1)[: 2 * spec.size].reshape(*spec.shape[:-1], -1)
            np.square(spec.view(np.float64), out=sq)
            np.add(sq[..., 0::2], sq[..., 1::2], out=pw)
        raw = power.reshape(8, m) @ self.weights.T
        sums = np.array([raw[0] + raw[1], raw[2] + raw[3], raw[4], raw[5] + raw[6], raw[7]])

        # the grid fields: f = (u^x, u^y, v^x, v^y, theta, flux, d_x u^x),
        # with the flux div v - theta / (1 - eps) and d_x u^x in e[3:], and
        # p = (d_y u^x, d_x u^y, d_y u^y, d_x w^x, d_y w^x, d_x w^y, d_y w^y)
        # through q
        np.multiply(ik[0], y[2], out=e[3])
        np.multiply(ik[1], y[3], out=e[4])
        e[3] += e[4]
        np.multiply(y[4], scale, out=e[4])
        e[3] -= e[4]
        np.multiply(ik[0], y[0], out=e[4])
        self.scatter(y, z[:5])
        self.scatter(e[3:], z[5:])
        _irfft2(z, f, self.cols)
        np.multiply(ik[1], y[0], out=q[0])
        np.multiply(ik, y[1], out=q[1:3])
        np.multiply(ik, e[0], out=q[3:5])
        np.multiply(ik, e[1], out=q[5:7])
        self.scatter(q, z)
        _irfft2(z, p, self.cols)

        area = (g.length / g.n) ** 2
        grid = dict(mean_theta=f[4].mean(), mean_u_x=f[0].mean(), mean_u_y=f[1].mean())
        np.square(f, out=f)
        np.square(p, out=p)
        grid.update(theta_linf=np.sqrt(np.max(f[4])), phi_linf=np.sqrt(np.max(f[5])))
        np.square(f[4], out=f[4])
        grid["theta_l4"] = (np.sum(f[4]) * area) ** 0.25
        np.add(f[2], f[3], out=f[5])
        grid["v_linf"] = np.sqrt(np.max(f[5]))
        f[0] += f[1]
        grid["u_linf"] = np.sqrt(np.max(f[0]))
        f[0] += f[2]
        f[0] += f[3]
        grid["uv_linf"] = np.sqrt(np.max(f[0]))
        # |grad u|^2 = ((a + b) + c) + d for a, b, c, d = f[6], p[0], p[1], p[2]
        np.add(f[6], p[0], out=f[4])
        np.add(f[4], p[1], out=f[6])
        f[6] += p[2]
        np.square(f[6], out=f[6])
        grid["grad_u_l4"] = (np.sum(f[6]) * area) ** 0.25
        np.sqrt(f[4], out=f[4])
        np.add(p[1], p[2], out=p[0])
        np.sqrt(p[0], out=p[0])
        f[4] += p[0]
        grid["grad_u_linf"] = np.max(f[4])
        p[3] += p[4]
        p[3] += p[5]
        p[3] += p[6]
        np.square(p[3], out=p[3])
        grid["grad_w_l4"] = (np.sum(p[3]) * area) ** 0.25
        return sums, grid


@functools.lru_cache(maxsize=1)
def _stepper(g: Grid) -> _Stepper:
    # one entry: every run, twin pair and eps sweep steps on one grid, and
    # buffers held for an earlier grid would only add to peak memory
    return _Stepper(g)


@functools.lru_cache(maxsize=8)
def _factors(g: Grid, dt: float, eps: float) -> tuple[np.ndarray, np.ndarray]:
    # the trapezoidal rule (1 - h) y = (1 + h) y0 + dt*rhs with h = dt*lam/2,
    # lam = -|k|^2 for u and v and -eps*|k|^2 for theta, solved as
    # y = a y0 + b rhs; returns a and b/2, the weight of each stage's rhs,
    # in rows (u and v, theta), on the modes of the kept block. They take
    # 4 r cols float64 together, 0.47 MB at n = 256; eight entries let the
    # members of a sweep of up to eight eps levels, stepped in lockstep, keep
    # theirs instead of evicting one another at every step
    k2 = _gather(g.k2, *kept_block(g.n))
    h = 0.5 * dt * np.stack((-k2, -eps * k2))
    return (1.0 + h) / (1.0 - h), 0.5 * dt / (1.0 - h)


def imex_step(s: State, dt: float, cfl_max: float = 0.5) -> State:
    """Advance one step of size dt; deterministic, CFL-guarded.

    The CFL ratio is dt * max(||u||_Linf, ||v||_Linf) / spacing, from one
    batched transform of u and v. A state whose u or v holds a NaN or an
    infinity raises :class:`NonFiniteState` naming that field instead of
    stepping on.

    Diffusion (full Laplacian for u and v, eps-scaled for theta) is implicit
    by the trapezoidal rule; advection and coupling are explicit through a
    two-stage predictor/corrector, with the quadratic terms in divergence
    and rotational form (see the module docstring). u is projected once per
    stage result, the predictor and the corrector.

    The step gathers the block of modes the two-thirds mask keeps from the
    spectra of ``s`` once and works on it in held arrays, with 28 real
    field-transforms. Every state the system makes lies on that block; a
    mode of ``s`` off it, which only a state built by hand can hold, is
    dropped, as the mask drops it from every product. The block holds no
    Nyquist mode, so the projection's precondition (see
    ``spectral._project``) holds by construction.

    Buffers and multipliers are built once per grid and held in a one-entry
    cache until a step on another grid replaces them; the trapezoidal
    factors once per (grid, dt, eps), in a small cache of their own.
    Steps share those buffers, and records borrow them between steps, so
    this function is not thread-safe. The returned State owns its arrays, a
    fresh half-plane stack with the block scattered in, which is all that a
    warm step allocates beyond small temporaries.
    """
    if dt <= 0:
        raise BadParams(f"dt must be positive, got {dt}")
    g = s.grid
    st = _stepper(g)
    y = st.guard(s, dt, cfl_max)
    a, half_b = _factors(g, dt, s.eps)

    # y2 = a y0 + (b n0 + b n1) / 2 accumulates in y, and the predictor
    # y1 = a y0 + b n0 is y + b n0 / 2 midway; the first stage reuses the
    # CFL check's grid velocities on the block, where they are u and v's
    y1 = _scale(half_b, st.explicit(y, True, st.y1))  # b n0 / 2
    _scale(a, y)
    y += y1
    y1 += y
    _project(st, y1[:2], st.c)  # predictor
    y += _scale(half_b, st.explicit(y1, False, y1))  # + b n1 / 2
    _project(st, y[:2], st.c)  # corrector
    out = np.empty((5, *g.spec_shape), dtype=np.complex128)
    st.scatter(y, out)
    f = [SpectralField(g, spec=c) for c in out]
    return State(u=VectorField(f[0], f[1]), v=VectorField(f[2], f[3]), theta=f[4], t=s.t + dt, eps=s.eps)


def _step(k: int, s: State, cfg: SimConfig, guard_only: bool = False) -> State:
    # step k of a run of cfg, or with guard_only its guard alone (s is
    # returned); guard errors carry k
    try:
        if guard_only:
            _stepper(s.grid).guard(s, cfg.dt, cfg.cfl_max)
            return s
        return imex_step(s, cfg.dt, cfl_max=cfg.cfl_max)
    except (CflViolation, NonFiniteState) as exc:
        exc.step = k
        raise


def simulate(
    cfg: SimConfig, on_snapshot: Callable[[int, State], None] | None = None,
    on_record: Callable[[np.ndarray], None] | None = None, *, record: bool = True,
) -> SimResult:
    """Advance from the configured initial data to the horizon.

    The initial state must first pass step 1's guard (a NaN, an infinity or
    a CFL ratio past ``cfl_max`` raises, with step 1). Diagnostics are
    recorded every ``diag_stride`` steps (none with ``record=False``) and
    snapshots taken every ``snap_stride`` steps, both including step 0; a
    step's snapshot is taken after its record. ``on_record(row)`` receives
    each record, a float64 row in ``records.COLUMNS`` order, as it is made,
    and ``on_snapshot(step, state)`` each snapshot. Without a sink, rows and
    snapshots are kept in ``result``, so memory grows with the horizon; with
    both, the run holds O(1) states and no row unless the sinks keep them.
    """
    state = make_initial(cfg)
    result, rows = SimResult(), []
    on_snapshot = on_snapshot or (lambda step, s: result.snapshots.append(s))
    on_record = on_record or rows.append
    _step(1, state, cfg, guard_only=True)
    if record:
        on_record(records.make_record(state))
    on_snapshot(0, state)
    for k in range(1, cfg.num_steps() + 1):
        state = _step(k, state, cfg)
        if record and k % cfg.diag_stride == 0:
            on_record(records.make_record(state))
        if k % cfg.snap_stride == 0:
            on_snapshot(k, state)
    result.diagnostics = records.DiagnosticsSeries(np.array(rows).reshape(-1, len(records.COLUMNS)))
    return result
