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

which needs the two products S_xx - S_yy and S_xy instead of three. This
holds under either mask below: the masked product of the trace is still a
gradient, aliased or not.

Every factor and product is masked: by the two-thirds rule with
dealiasing, and otherwise by the mask that only drops the Nyquist lines
(``Grid.product_mask``). So neither setting carries Nyquist modes, and u
stays in the range of the Leray projection. Under the two-thirds mask the
products carry no aliasing error, so both forms give one discrete operator
to roundoff; under the Nyquist-free mask they differ by their aliasing
errors.

A step works on the stacked half-plane spectra (u^x, u^y, v^x, v^y, theta),
shape (5, n, n//2 + 1); the returned State holds views of that array. Each
explicit stage is one batched inverse transform of seven fields (u, v,
theta, curl(u), curl(v)), seven grid products, and one batched forward
transform of seven fields. The CFL check transforms u and v once; the first
stage reuses those grid velocities when the mask drops none of their
coefficients. That makes 28 real field-transforms per step (14 forward,
14 inverse) when the mask is a no-op on u and v, and 32 otherwise.

Each transform is taken as the two passes numpy's ``irfft2`` and
``rfft2`` are made of, a complex one along the first axis and a real one
along the second, written into held arrays (``irfft2`` itself ignores
``out=``). The complex pass runs only over the leading columns of the half
plane in which the mask keeps a mode (a pruned FFT): factors and products
are zero in the others, which hold a third of the half plane under the
two-thirds mask (86 of 129 columns at n = 256 are kept) and one column
without it. The results equal ``irfft2``'s and the masked ``rfft2``'s;
only the sign of zero coefficients can differ. The corrector accumulates
into the result, so no stage's tendency is held beside it. So no stage
allocates a fresh array: a warm step allocates its result and small
temporaries only.

What a step reuses is kept in two private caches. The stage buffers, the
mask and -ik depend on (grid, dealias) alone and sit in a one-entry cache:
every later step with that key writes its stages in place, and the buffers
stay held, about 16 MB at n = 256 (1 MB at n = 64), until a step on
another grid or mask replaces them. The merged trapezoidal factors depend
on (grid, dt, eps) and sit in a small cache of their own (about 67 KB per
entry at n = 64, 1 MB at n = 256), so runs that differ only in eps, such
as the members of an eps sweep stepped in lockstep, share one set of
buffers and each keep their factors. A record borrows the same stage
buffers between steps (``_Stepper.record_norms``, which
``records.make_record`` calls). Because steps and records share those
buffers, neither ``imex_step`` nor ``make_record`` is thread-safe.
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
    """Trajectory handle: snapshot states plus the diagnostics series.

    ``snapshots`` is empty when :func:`simulate` handed them to a sink.
    """

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


def _random_band_field(grid: Grid, modes, rng) -> SpectralField:
    return _modes_field(
        grid, [(m, complex(rng.standard_normal(), rng.standard_normal())) for m in modes]
    )


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
        m = (cfg.mode_x, cfg.mode_y)
        if m == (0, 0) or max(abs(m[0]), abs(m[1])) > grid.n // 2 - 1:
            raise BadParams(f"mode {m} outside resolved modes for n={grid.n}")
        # theta = A sin(a (m_x x + m_y y))
        theta = _modes_field(grid, [(m, -0.5j * cfg.amplitude)])
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


def _irfft2(a: np.ndarray, work: np.ndarray, out: np.ndarray, cols: int) -> None:
    # np.fft.irfft2(a, s=out.shape[-2:]) into out, through work (a's shape
    # and dtype; may be a itself), for a zero beyond its first cols columns:
    # irfft2 is a complex inverse along axis -2 and a real one along axis -1,
    # but drops out=, so both passes are taken here with it, the first over
    # those cols columns only; work's later columns must hold zeros. Equal
    # to irfft2 (zeros may differ in sign).
    np.fft.ifftn(a[..., :cols], axes=(-2,), out=work[..., :cols])
    np.fft.irfft(work, out.shape[-1], axis=-1, out=out)


def _rfft2(a: np.ndarray, out: np.ndarray, cols: int) -> None:
    # np.fft.rfft2(a) into out's first cols columns; the later ones take
    # only the real pass along axis -1, for the caller's mask to zero.
    # (fftn along one axis is fft, under the n-d name that
    # bench/trace_child.py and the transform-count tests wrap)
    np.fft.rfft(a, axis=-1, out=out)
    np.fft.fftn(out[..., :cols], axes=(-2,), out=out[..., :cols])


class _Stepper:
    """What :func:`imex_step` reuses from step to step for one (grid,
    dealias): the product mask, the number of leading half-plane columns
    it keeps, -ik and the stage buffers, which every step overwrites (about
    16 MB at n = 256). A stage transforms seven fields each way, with the
    complex passes pruned to the kept columns, and forms seven products;
    with the buffers held, a warm step allocates nothing of grid size but
    its result. A step writes each buffer before reading it (the later
    columns of z included), so :meth:`record_norms`, the batched pass of a
    diagnostics record, may work in them between steps; the record's
    Parseval weights (:attr:`weights`) are built on its first call."""

    def __init__(self, g: Grid, use_dealias: bool):
        self.g = g
        self.use_dealias = use_dealias
        self.mask = g.product_mask(use_dealias)
        # the kept modes lie in the leading cols columns of the half plane
        # (86 of 129 at n = 256 under the two-thirds mask, 128 without it);
        # the complex passes of every stage transform skip the rest
        self.cols = int(self.mask.any(axis=0).sum())
        self.minus_ik = -g.ik  # the tendency is minus the terms
        # b n0 / 2, then the predictor, then b n1 / 2 over it
        self.y1 = np.empty((5, *g.spec_shape), dtype=np.complex128)
        # the masked factors, then the products' spectra
        self.z = np.empty((7, *g.spec_shape), dtype=np.complex128)
        # the factors u, v, theta, curl(u), curl(v) on the grid
        self.f = np.empty((7, g.n, g.n))
        self.p = np.empty((7, g.n, g.n))  # the products on the grid
        self.c = np.empty((2, *g.spec_shape), dtype=np.complex128)  # scratch
        self.outside = ~self.mask
        # which coefficients of u and v outside the mask are nonzero
        self.off = np.zeros((4, *g.spec_shape), dtype=bool)

    def velocities(self, y: np.ndarray, cols: int) -> np.ndarray:
        """u and v of the stacked spectra y, zero beyond their first cols
        columns, on the grid, into f[:4], and (||u||_Linf, ||v||_Linf) as
        norm(., "Linf") computes them."""
        f, sq, work = self.f, self.p[:4], self.z[:4]
        work[..., cols:] = 0
        _irfft2(y[:4], work, f[:4], cols)
        np.square(f[0:4:2], out=sq[:2])
        np.square(f[1:4:2], out=sq[2:])
        sq[:2] += sq[2:]
        return np.sqrt(np.max(sq[:2], axis=(1, 2)))

    def drops_uv(self, y: np.ndarray) -> bool:
        """Whether the mask drops a nonzero coefficient of u or v in y;
        copies none of them."""
        np.not_equal(y[:4], 0, out=self.off, where=self.outside)
        return bool(self.off.any())

    def _products(self, y: np.ndarray, grid_uv: bool) -> None:
        # S_xx - S_yy, S_xy (S = u (x) u + v (x) v), u.v,
        # u^y curl(v) + v^y curl(u), u^x curl(v) + v^x curl(u), u^x theta and
        # u^y theta on the grid into p, from the spectra y masked into z and,
        # if grid_uv, the grid velocities of the masked u and v in f[:4]
        ik, z, f, p, c = self.g.ik, self.z, self.f, self.p, self.c[0]
        np.multiply(y, self.mask, out=z[:5])
        np.multiply(ik[0], z[1], out=z[5])
        np.multiply(ik[1], z[0], out=c)
        z[5] -= c
        np.multiply(ik[0], z[3], out=z[6])
        np.multiply(ik[1], z[2], out=c)
        z[6] -= c
        if grid_uv:
            _irfft2(z[4:], z[4:], f[4:], self.cols)
        else:
            _irfft2(z, z, f, self.cols)
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
        """Everything except the implicit Laplacians, for the stacked spectra
        y = (u^x, u^y, v^x, v^y, theta), with P the Leray projection and
        curl(a) = d_x a^y - d_y a^x:

            -P div(u (x) u + v (x) v),
            -[grad(u.v + theta) - (u^y curl(v) + v^y curl(u), -(u^x curl(v) + v^x curl(u)))],
            -[div(u theta) + div v].

        These are the divergence and rotational forms of the advective terms
        (u.grad)u + div(v (x) v), (u.grad)v + (v.grad)u and u.grad(theta):
        equal for div u = 0, and to roundoff under the two-thirds mask, whose
        products carry no aliasing error. P kills gradients, so the u
        tendency takes the trace-free part of the stress S = u (x) u + v (x) v,
        P div S = P div(S - tr(S) I / 2), which needs S_xx - S_yy and S_xy
        only: seven products in all. Under either mask the trace's product
        is a gradient too, aliased or not. Factors and products are masked
        once each (``Grid.product_mask``). With ``grid_uv``, f[:4] already
        holds the grid velocities (u^x, u^y, v^x, v^y) of the masked spectra
        (as :meth:`velocities` leaves them), which then are not transformed
        again. The result is written into ``out``, which may be ``y``.
        """
        self._products(y, grid_uv)
        q, c = self.z, self.c[0]
        _rfft2(self.p, q, self.cols)
        q *= self.mask
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
        _project(self.g, out[:2], self.c)
        return out

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """The Parseval weights of a record, as the rows of one
        (5, n (n//2 + 1)) array: herm_weight |k|^(2j) for j = 0..3, then
        herm_weight on the tail band, the top third of the active band
        (|k|_max <= n/3 with dealiasing, n/2 without)."""
        g = self.g
        active = g.n / 3.0 if self.use_dealias else g.n / 2.0
        band = np.maximum(np.abs(g.kx_int), np.abs(g.ky_int))
        rows = [g.herm_weight * g.k2**j for j in range(4)] + [g.herm_weight * (band > 2.0 / 3.0 * active)]
        return np.stack(rows).reshape(5, -1)

    def record_norms(self, s) -> tuple[np.ndarray, dict]:
        """What ``records.make_record`` assembles the record of the state s
        from, in one batched pass through the stage buffers, which sit idle
        between steps (a step writes each buffer before reading it, the
        later columns of z included):

        - the (5, 5) Parseval sums  sum herm_weight |k|^(2j) |a_k|^2  for
          j = 0..3 and over the tail band (columns), of u, v, theta, the
          pseudo baroclinic velocity w and div u (rows), from one power
          stack (re^2 + im^2) reduced by one matmul against
          :attr:`weights`;
        - the grid norms and means of the record, keyed by their column
          names, from two seven-field inverse transforms over every column
          (s may hold modes the mask drops), each reduced in place in the
          order of operations of ``norm`` and ``grad_linf``.

        Allocates no array of grid size and fills no ``SpectralField.phys``
        cache.
        """
        u, v, th, eps = s.u, s.v, s.theta, s.eps
        g = self.g
        ik, z, y, f, p = g.ik, self.z, self.y1, self.f, self.p
        m = th.spec.size
        scale = 1.0 / (1.0 - eps)

        # spectra: w = v + grad((-lap)^-1 theta) / (1 - eps) and div u into
        # y[:3]; u, v, theta, the flux div v - theta / (1 - eps) and d_x u^x
        # into z
        np.multiply(g.inv_k2, th.spec, out=y[2])
        np.multiply(ik, y[2], out=y[:2])
        y[:2] *= scale
        y[0] += v.x.spec
        y[1] += v.y.spec
        np.multiply(ik[0], u.x.spec, out=y[2])
        np.multiply(ik[1], u.y.spec, out=y[3])
        y[2] += y[3]
        for k, a in enumerate((u.x, u.y, v.x, v.y, th)):
            z[k] = a.spec
        np.multiply(ik[0], v.x.spec, out=z[5])
        np.multiply(ik[1], v.y.spec, out=z[6])
        z[5] += z[6]
        np.multiply(th.spec, scale, out=z[6])
        z[5] -= z[6]
        np.multiply(ik[0], u.x.spec, out=z[6])

        # the power stack of (u^x, u^y, v^x, v^y, theta, w^x, w^y, div u)
        # in p, the squared real and imaginary parts of five spectra at a
        # time in f; 8 and 10 half planes of floats, which fit in 7 n^2
        # for every n >= 8 that Grid allows
        power = p.reshape(-1)[: 8 * m].reshape(8, *g.spec_shape)
        for spec, pw in ((z[:5], power[:5]), (y[:3], power[5:])):
            sq = f.reshape(-1)[: 2 * spec.size].reshape(*spec.shape[:-1], -1)
            np.square(spec.view(np.float64), out=sq)
            np.add(sq[..., 0::2], sq[..., 1::2], out=pw)
        raw = power.reshape(8, m) @ self.weights.T
        sums = np.array([raw[0] + raw[1], raw[2] + raw[3], raw[4], raw[5] + raw[6], raw[7]])

        # the grid fields: f = (u^x, u^y, v^x, v^y, theta, flux, d_x u^x) and
        # p = (d_y u^x, d_x u^y, d_y u^y, d_x w^x, d_y w^x, d_x w^y, d_y w^y)
        cols = z.shape[-1]
        _irfft2(z, z, f, cols)
        np.multiply(ik[1], u.x.spec, out=z[0])
        np.multiply(ik, u.y.spec, out=z[1:3])
        np.multiply(ik, y[0], out=z[3:5])
        np.multiply(ik, y[1], out=z[5:7])
        _irfft2(z, z, p, cols)

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
def _stepper(g: Grid, use_dealias: bool) -> _Stepper:
    # one entry: every run, twin pair and eps sweep steps on one grid with
    # one mask, and buffers held for an earlier key would only add to peak
    # memory
    return _Stepper(g, use_dealias)


@functools.lru_cache(maxsize=8)
def _factors(g: Grid, dt: float, eps: float) -> tuple[np.ndarray, np.ndarray]:
    # the trapezoidal rule (1 - h) y = (1 + h) y0 + dt*rhs with h = dt*lam/2,
    # lam = -|k|^2 for u and v and -eps*|k|^2 for theta, solved as
    # y = a y0 + b rhs; returns a and b/2, the weight of each stage's rhs,
    # in rows (u and v, theta). They take 4 n (n//2 + 1) float64 together,
    # 67 KB at n = 64 and 1 MB at n = 256; eight entries let the members of
    # a sweep of up to eight eps levels, stepped in lockstep, keep theirs
    # instead of evicting one another at every step
    h = 0.5 * dt * np.stack((-g.k2, -eps * g.k2))
    return (1.0 + h) / (1.0 - h), 0.5 * dt / (1.0 - h)


def imex_step(
    s: State, dt: float, use_dealias: bool = True, cfl_max: float = 0.5
) -> State:
    """Advance one step of size dt; deterministic, CFL-guarded.

    The CFL ratio is dt * max(||u||_Linf, ||v||_Linf) / spacing, from one
    batched transform of u and v, pruned to the mask's columns when the
    mask drops none of their coefficients. A state whose u or v holds a NaN or an
    infinity raises :class:`NonFiniteState` naming that field instead of
    stepping on.

    Diffusion (full Laplacian for u and v, eps-scaled for theta) is implicit
    by the trapezoidal rule; advection and coupling are explicit through a
    two-stage predictor/corrector, with the quadratic terms in divergence
    and rotational form (see the module docstring). u is re-projected after
    each stage. A step takes 28 real field-transforms (14 forward,
    14 inverse) when the step's mask is a no-op on u and v, and 32
    otherwise; the complex pass of each runs only over the columns in
    which the mask keeps a mode. Without dealiasing that mask drops only the Nyquist lines.
    The u of ``s`` must hold no Nyquist modes (see ``spectral._project``);
    every state that ``make_initial`` and this function return meets that.

    The stage buffers are built once per (grid, use_dealias) and kept in a
    one-entry cache, and stay held (about 16 MB at n = 256) until a step
    with another grid or mask replaces them; the trapezoidal factors are
    built once per (grid, dt, eps) and kept in a small cache of their own,
    so states that differ only in eps can be stepped in turn without
    rebuilding anything. Steps share those buffers, and records borrow them
    between steps, so this function is not thread-safe: step or record at
    most one state at a time per process. The returned
    State owns its arrays, and is all that a warm step allocates beyond
    small temporaries.
    """
    if dt <= 0:
        raise BadParams(f"dt must be positive, got {dt}")
    g = s.grid
    st = _stepper(g, use_dealias)
    y = _stack(s)  # fresh: becomes the result, whose views the State holds
    # the first stage reuses the CFL check's grid velocities unless the mask
    # changes u or v; if it changes nothing, u and v lie in the kept columns
    grid_uv = not st.drops_uv(y)
    linf = st.velocities(y, st.cols if grid_uv else y.shape[-1])
    bad = ~np.isfinite(linf)
    if bad.any():
        raise NonFiniteState(s.t, "uv"[int(np.argmax(bad))])
    ratio = dt * float(np.max(linf)) / g.spacing
    if not ratio <= cfl_max:
        raise CflViolation(ratio, cfl_max, s.t)
    a, half_b = _factors(g, dt, s.eps)

    # y2 = a y0 + (b n0 + b n1) / 2 accumulates in y, and the predictor
    # y1 = a y0 + b n0 is y + b n0 / 2 midway; u is projected in both
    y1 = _scale(half_b, st.explicit(y, grid_uv, st.y1))  # b n0 / 2
    _scale(a, y)
    y += y1
    y1 += y
    _project(g, y1[:2], st.c)  # predictor
    y += _scale(half_b, st.explicit(y1, False, y1))  # + b n1 / 2
    _project(g, y[:2], st.c)  # corrector
    f = [SpectralField(g, spec=c) for c in y]
    return State(u=VectorField(f[0], f[1]), v=VectorField(f[2], f[3]), theta=f[4], t=s.t + dt, eps=s.eps)


def _step(k: int, s: State, cfg: SimConfig) -> State:
    # step k of a run of cfg: imex_step with cfg's settings, whose guard
    # errors carry k
    try:
        return imex_step(s, cfg.dt, use_dealias=cfg.dealias, cfl_max=cfg.cfl_max)
    except (CflViolation, NonFiniteState) as exc:
        exc.step = k
        raise


def simulate(
    cfg: SimConfig, on_snapshot: Callable[[int, State], None] | None = None, *, record: bool = True
) -> SimResult:
    """Advance from the configured initial data to the horizon.

    Diagnostics are recorded every ``diag_stride`` steps and snapshots taken
    every ``snap_stride`` steps, both including step 0; a step's snapshot is
    taken after its record. With ``record=False`` no record is made and
    ``result.diagnostics`` stays empty. Without ``on_snapshot`` the
    snapshots are kept in ``result.snapshots``, so memory grows with the
    horizon. With it, ``on_snapshot(step, state)`` receives each one instead
    and ``result.snapshots`` stays empty: the run holds O(1) states unless
    the sink keeps them.
    """
    state = make_initial(cfg)
    nsteps = cfg.num_steps()
    series = records.DiagnosticsSeries()
    result = SimResult(diagnostics=series)
    if on_snapshot is None:
        def on_snapshot(step, s):
            result.snapshots.append(s)

    if record:
        series.append(records.make_record(state, cfg.dealias))
    on_snapshot(0, state)
    for k in range(1, nsteps + 1):
        state = _step(k, state, cfg)
        if record and k % cfg.diag_stride == 0:
            series.append(records.make_record(state, cfg.dealias))
        if k % cfg.snap_stride == 0:
            on_snapshot(k, state)
    return result
