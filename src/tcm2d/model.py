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

Every factor and product lies on the block of modes that the two-thirds
rule keeps (``spectral.kept_block``: 44.5 % of the half plane at n =
256), on which every field lives. So u stays in the range of the Leray
projection, and the products carry no aliasing error, so both forms give
one discrete operator to roundoff.

Layout. Every state the system makes lies on that block, since
``SimConfig`` rejects a band or a mode past it, so a :class:`State` is
its block: one contiguous (5, r, cols) array of the five spectra (u^x,
u^y, v^x, v^y, theta), which a step, a record and a snapshot (``storage``)
all take as it is, and whose fields ``u``, ``v`` and ``theta`` are views.
A step copies its state's block, does all of its spectral arithmetic on
the copy (curls, tendency assembly, trapezoidal factors, Leray
projection) with the Grid's multipliers and returns it as the result.
Each inverse transform scatters blocks into a held transform buffer with
zeros at every other mode, and each forward transform gathers the block
back (``spectral._irfft2``, ``spectral._rfft2``), so no mask is
multiplied.

Each explicit stage is one batched inverse transform of seven fields (u,
v, theta, curl(u), curl(v)), seven grid products, and one batched forward
transform of seven fields, whose complex passes run only over the leading
cols columns (a pruned FFT). The guard transforms u, v and theta once, and
the first stage reuses them: 28 real field-transforms per step (14
forward, 14 inverse). The stage returns the unprojected u tendency, and
the step projects the predictor and the corrector: one projection per
stage result, the same operator in exact arithmetic. The corrector
accumulates into the copied block, so a warm step allocates its result and
small temporaries only.

What a step reuses sits in two private caches. The buffers depend on
the grid and sit in a one-entry cache (9.6 MB at n = 256: two grid-size
transform buffers that take turns, and the block arrays), the
trapezoidal factors on (grid, dt, eps) in a small cache of their own,
so runs that differ only in eps, such as the members of an eps sweep
stepped in lockstep, share one set of buffers. A record borrows the
same buffers between steps (``_Stepper.record_norms``, which
``records.make_record`` calls), so neither ``imex_step`` nor
``make_record`` is thread-safe.

A run's states come from one private generator, ``_trajectory``, which
``simulate``, the twin and the eps sweep consume: it yields the initial
state as step 0 once it passes step 1's guard, then each step's result,
and a guard error carries the index of the step it rejected.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from . import records
from .derived import _check_eps
from .errors import BadParams, CflViolation, NonFiniteState
from .gronwall import MIN_SPACING
from .spectral import (
    Grid,
    _check_grid,
    SpectralField,
    VectorField,
    _irfft2,
    _kept_max,
    _modes_field,
    _project,
    _rfft2,
    kept_block,
    leray_project,
    norm,
    perp_grad,
)

PRESETS = ("taylor_green", "single_mode", "random_band")

#: the fields a guard error names, in the order the guard checks them
_GUARD_FIELDS = ("u", "v", "theta")

#: the largest sup norm of u, v or theta that a step takes. A record takes
#: fourth powers of a field (its L4 norms), and a step squares it (its
#: products), so the record of the next state holds about its eighth power:
#: 1e30 keeps that near 1e240, with room below the float range (1.8e308) for
#: the sums over the grid and the wavenumber weights
FIELD_MAX = 1e30

#: the most steps a run takes: its time is a running sum of dt, which stops
#: advancing once t / dt reaches 2^53
MAX_STEPS = 2**52


@dataclass(frozen=True, eq=False)
class State:
    """Solution triple at one instant: divergence-free u, v, temperature.

    A state is its kept block (see Layout above): ``spec``, one read-only
    (5, r, cols) complex128 array of the spectra u^x, u^y, v^x, v^y and
    theta, of the shape ``spectral.kept_block`` gives; any other raises
    BadParams. The fields ``u``, ``v`` and ``theta`` are views of it.
    """

    grid: Grid
    spec: np.ndarray
    t: float
    eps: float

    def __post_init__(self):
        _check_eps(self.eps)
        n = self.grid.n
        lo, hi, cols = kept_block(n)
        if self.spec.shape != (5, n - hi + lo, cols) or self.spec.dtype != np.complex128:
            raise BadParams(f"a state's spectra must be a (5, {n - hi + lo}, {cols}) complex128 block for n={n}, "
                            f"got {self.spec.shape} {self.spec.dtype}")
        self.spec.flags.writeable = False

    @classmethod
    def from_fields(cls, u: SpectralField, v: SpectralField, theta: SpectralField, t: float, eps: float) -> "State":
        return cls(theta.grid, np.concatenate((u.spec, v.spec, theta.spec[None])), t, eps)

    u = property(lambda self: SpectralField(self.grid, self.spec[:2]))
    v = property(lambda self: SpectralField(self.grid, self.spec[2:4]))
    theta = property(lambda self: SpectralField(self.grid, self.spec[4]))


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
    every state a run makes lies on the block a step works on. dt is at
    least twice ``gronwall.MIN_SPACING``, so the records of a run, spaced
    dt * diag_stride up to the rounding of the running time, can be
    differentiated by the Gronwall check; a run takes at most
    :data:`MAX_STEPS` steps.
    The size of the initial data is checked once it is built instead:
    :func:`make_initial` raises BadParams for data that overflow the float
    range, and step 1's guard (:func:`imex_step`), before anything is
    recorded, raises CflViolation for a CFL ratio past ``cfl_max`` and
    BadParams for a sup norm of u, v or theta past :data:`FIELD_MAX`. The
    sup norm of a ``random_band`` state is known only once it is drawn.
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
        if not self.dt >= 2.0 * MIN_SPACING:
            raise BadParams(f"dt must be at least {2.0 * MIN_SPACING:g}, twice the smallest spacing of records that "
                            f"the Gronwall check differentiates, got {self.dt!r}")
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
        if not self.horizon / self.dt <= MAX_STEPS:
            raise BadParams(f"horizon / dt must be at most {MAX_STEPS} steps, got {self.horizon / self.dt:g}")
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


def _band_fields(grid: Grid, lo: int, hi: int, seed: int) -> tuple[SpectralField, SpectralField, SpectralField]:
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


def _normalized(f: SpectralField, target: float) -> SpectralField:
    size = norm(f, "L2")
    if target == 0.0 or size == 0.0:
        return SpectralField(f.grid, np.zeros_like(f.spec))
    return f * (target / size)


def make_initial(cfg: SimConfig) -> State:
    """Build the initial state of a preset; deterministic given cfg.seed.

    Every preset writes its Fourier coefficients straight into the block.
    Initial data whose coefficients or grid samples overflow the float
    range (an amplitude near 1.8e308, or one that n and L scale past it)
    raise BadParams naming the field; no amplitude bound at parse could,
    since the coefficients scale with n and L as well.
    """
    grid = cfg.grid()
    zero = SpectralField.zeros(grid)

    # an overflow is found once, below, not warned of at each operation
    with np.errstate(over="ignore", invalid="ignore"):
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
        u = leray_project(u)
        bad = _overflowing_field(u, v, theta)
    if bad:
        raise BadParams(f"the initial {bad} of preset {cfg.preset} overflows the float range at n={cfg.n}, "
                        f"L={cfg.length!r}: lower its amplitude")
    return State.from_fields(u, v, theta, 0.0, cfg.eps)


def _overflowing_field(u: SpectralField, v: SpectralField, theta: SpectralField) -> str | None:
    # the name of the first of u, v and theta whose grid samples are not
    # finite, or None; the samples of a finite spectrum may overflow, so the
    # caller decides whether numpy warns
    for name, f in zip(_GUARD_FIELDS, (u, v, theta)):
        if not np.isfinite(f.phys).all():
            return name
    return None


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


def _real_view(z: np.ndarray, n: int) -> np.ndarray:
    # the (len(z), n, n) float64 array over the first len(z) n^2 floats of
    # the complex half-plane stack z, which holds len(z) (n^2 + 2n)
    return z.reshape(-1).view(np.float64)[: len(z) * n * n].reshape(len(z), n, n)


class _Stepper:
    """What :func:`imex_step` reuses from step to step for one grid g: the
    arrays a step works in beside the state's block, whose multipliers are
    the Grid's. On the block, (r, cols), it holds the stage results y1,
    (5, r, cols) complex, 1.2 MB at n = 256. On the grid, it holds two
    (7, n, n//2 + 1) complex buffers a and b, 7.4 MB at n = 256, each with
    the real (7, n, n) view ``ra``, ``rb`` over its first 7 n^2 floats.
    They take turns:

    - an inverse transform reads spectra scattered into a and writes the
      grid fields into rb;
    - the grid products go into ra, whose spectra are read by then;
    - the forward transform writes b, and the gather of its block goes to
      q, a (7, r, cols) view of a, for the tendency to read.

    The scratch c, (2, r, cols) complex, is a view of rb[5:], the grid
    fields of the curls, which the guard's grid fields of u, v and theta
    leave free: a stage computes the curls in c, with q as scratch, and its
    inverse transform scatters them into a before it overwrites c; the
    stage uses c again only once q holds the forward transform's block,
    so the scatter into a may overwrite q. A step writes each buffer
    before reading it, so :meth:`record_norms` may work in them between
    steps.
    """

    def __init__(self, g: Grid):
        self.g = g
        self.minus_ik = -g.ik  # the tendency is minus the terms
        self.a, self.b = (np.empty((7, g.n, g.n // 2 + 1), dtype=np.complex128) for _ in range(2))
        self.ra, self.rb = _real_view(self.a, g.n), _real_view(self.b, g.n)
        # y1: b n0 / 2, then the predictor, then b n1 / 2 over it
        shape = g.k2.shape
        self.y1 = np.empty((5, *shape), dtype=np.complex128)
        # q over the first 7 r cols modes of a, and c over the first 4 r cols
        # floats of rb[5:], which fit in its 2 n^2 for every n Grid allows
        m = g.k2.size
        self.q = self.a.reshape(-1)[: 7 * m].reshape(7, *shape)
        self.c = self.rb[5:].reshape(-1)[: 4 * m].view(np.complex128).reshape(2, *shape)

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """The Parseval weights of a record, as the rows of one (5, r cols)
        array: herm_weight |k|^(2j) for j = 0..3, then herm_weight on the
        tail band, the top third of the kept band |k|_max <= n/3; the
        first four elementwise as ``Grid.seminorm_weight`` builds them, so a
        run leaves those of order 1 to 3 unbuilt."""
        g = self.g
        band = np.maximum(np.abs(g.kx_int), np.abs(g.ky_int))
        rows = [g.herm_weight * g.k2**j for j in range(4)] + [g.herm_weight * (band > 2.0 / 3.0 * (g.n / 3.0))]
        return np.stack(rows).reshape(5, -1)

    def guard(self, s, dt: float, cfl_max: float) -> None:
        """The guard of :func:`imex_step` from s, norms as norm(., "Linf")
        computes them; leaves the grid fields of u, v and theta in rb[:5]."""
        f, sq = _irfft2((s.spec,), self.a, self.rb), self.ra[:4]
        with np.errstate(over="ignore"):  # the squares of a finite field past 1e154 overflow
            np.square(f[0:4:2], out=sq[:2])
            np.square(f[1:4:2], out=sq[2:])
            sq[:2] += sq[2:]
            linf = np.sqrt(np.max(sq[:2], axis=(1, 2)))
            if not np.isfinite(linf).all():  # again without overflow, so only a NaN or an infinity stays
                linf = np.max(np.hypot(f[0:4:2], f[1:4:2]), axis=(1, 2))
        linf = np.append(linf, np.max(np.abs(f[4], out=sq[0])))  # u, v, theta
        bad = ~np.isfinite(linf)
        if bad.any():
            raise NonFiniteState(s.t, _GUARD_FIELDS[int(np.argmax(bad))])
        ratio = dt * float(np.max(linf[:2])) / self.g.spacing
        if not ratio <= cfl_max:
            raise CflViolation(ratio, cfl_max, s.t)
        if np.max(linf) > FIELD_MAX:
            i = int(np.argmax(linf))
            raise BadParams(f"the sup norm of {_GUARD_FIELDS[i]} at t = {s.t!r} is {linf[i]:.6g}, past FIELD_MAX = "
                            f"{FIELD_MAX:g}, beyond which the powers that a step and a record take overflow")

    def _products(self, y: np.ndarray, on_grid: bool) -> None:
        # S_xx - S_yy, S_xy (S = u (x) u + v (x) v), u.v,
        # u^y curl(v) + v^y curl(u), u^x curl(v) + v^x curl(u), u^x theta and
        # u^y theta on the grid into ra, from the spectra y and their curls,
        # and, if on_grid, the grid fields of u, v and theta in rb[:5]
        ik, f, p, c, tmp = self.g.ik, self.rb, self.ra, self.c, self.q[0]
        for k, (ax, ay) in enumerate((y[0:2], y[2:4])):  # curl(u), curl(v): d_x a^y - d_y a^x
            np.multiply(ik[0], ay, out=c[k])
            np.multiply(ik[1], ax, out=tmp)
            c[k] -= tmp
        k = 5 if on_grid else 0
        _irfft2((y[k:], c), self.a[k:], f[k:])
        ux, uy, vx, vy, th, cu, cv = f
        _mul_add(ux, ux, vx, vx, p[0], p[1])
        _mul_add(uy, uy, vy, vy, p[1], p[2])
        p[0] -= p[1]
        sums = ((ux, uy, vx, vy), (ux, vx, uy, vy), (uy, cv, vy, cu), (ux, cv, vx, cu))
        for k, factors in enumerate(sums, 1):
            _mul_add(*factors, p[k], p[k + 1])  # p[k + 1] is written next
        np.multiply(ux, th, out=p[5])
        np.multiply(uy, th, out=p[6])

    def explicit(self, y: np.ndarray, on_grid: bool, out: np.ndarray) -> np.ndarray:
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
        With ``on_grid``, rb[:5] already holds the grid fields u, v and theta
        of y (as :meth:`guard` leaves them). The result is written into
        ``out``, which may be ``y``.
        """
        self._products(y, on_grid)
        q, c = self.q, self.c[0]
        _rfft2(self.ra, self.b, q)
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
          names, from three inverse transforms pruned to the block's
          columns, of u, v, theta and the flux, of grad u and of grad w,
          6 + 4 + 4 fields, each reduced in place, in the order of
          operations of ``norm`` and ``grad_linf``, before the next one
          overwrites rb.

        Allocates no array of grid size.
        """
        eps = s.eps
        g, y, e = self.g, s.spec, self.y1
        ik = g.ik
        shape = y.shape[1:]
        m = y[0].size
        scale = 1.0 / (1.0 - eps)

        # w = v + grad((-lap)^-1 theta) / (1 - eps) and div u into e[:3]
        np.multiply(g.inv_k2, y[4], out=e[2])
        np.multiply(ik, e[2], out=e[:2])
        e[:2] *= scale
        e[:2] += y[2:4]
        np.multiply(ik[0], y[0], out=e[2])
        np.multiply(ik[1], y[1], out=e[3])
        e[2] += e[3]

        # the power stack of (u^x, u^y, v^x, v^y, theta, w^x, w^y, div u)
        # in ra, the squared real and imaginary parts of five spectra at a
        # time in rb; 8 and 10 blocks of floats, which fit in 7 n^2 for
        # every n >= 8 that Grid allows
        power = self.ra.reshape(-1)[: 8 * m].reshape(8, *shape)
        for spec, pw in ((y, power[:5]), (e[:3], power[5:])):
            sq = self.rb.reshape(-1)[: 2 * spec.size].reshape(*spec.shape[:-1], -1)
            np.square(spec.view(np.float64), out=sq)
            np.add(sq[..., 0::2], sq[..., 1::2], out=pw)
        raw = power.reshape(8, m) @ self.weights.T
        sums = np.array([raw[0] + raw[1], raw[2] + raw[3], raw[4], raw[5] + raw[6], raw[7]])

        # f = (u^x, u^y, v^x, v^y, theta, flux), with the flux
        # div v - theta / (1 - eps) in e[3]
        np.multiply(ik[0], y[2], out=e[3])
        np.multiply(ik[1], y[3], out=e[4])
        e[3] += e[4]
        np.multiply(y[4], scale, out=e[4])
        e[3] -= e[4]
        f = _irfft2((y, e[3:4]), self.a, self.rb)
        area = (g.length / g.n) ** 2
        grid = dict(mean_theta=f[4].mean(), mean_u_x=f[0].mean(), mean_u_y=f[1].mean())
        np.square(f, out=f)
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

        # f[:4] = (d_x u^x, d_y u^x, d_x u^y, d_y u^y), with f[4:6] as
        # scratch, then grad w the same way; their spectra sit in b, whose
        # grid fields are reduced by then
        d = self.b.reshape(-1)[: 4 * m].reshape(4, *shape)
        np.multiply(ik, y[0], out=d[:2])
        np.multiply(ik, y[1], out=d[2:])
        _irfft2((d,), self.a, self.rb)
        f = self.rb
        np.square(f[:4], out=f[:4])
        # |grad u|^2 = ((a + b) + c) + d for a, b, c, d = f[0], f[1], f[2], f[3]
        np.add(f[0], f[1], out=f[4])
        np.add(f[4], f[2], out=f[5])
        f[5] += f[3]
        np.square(f[5], out=f[5])
        grid["grad_u_l4"] = (np.sum(f[5]) * area) ** 0.25
        np.sqrt(f[4], out=f[4])
        np.add(f[2], f[3], out=f[1])
        np.sqrt(f[1], out=f[1])
        f[4] += f[1]
        grid["grad_u_linf"] = np.max(f[4])

        np.multiply(ik, e[0], out=d[:2])
        np.multiply(ik, e[1], out=d[2:])
        f = _irfft2((d,), self.a, self.rb)
        np.square(f, out=f)
        f[0] += f[1]
        f[0] += f[2]
        f[0] += f[3]
        np.square(f[0], out=f[0])
        grid["grad_w_l4"] = (np.sum(f[0]) * area) ** 0.25
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
    h = 0.5 * dt * np.stack((-g.k2, -eps * g.k2))
    return (1.0 + h) / (1.0 - h), 0.5 * dt / (1.0 - h)


def imex_step(s: State, dt: float, cfl_max: float = 0.5) -> State:
    """Advance one step of size dt; deterministic, CFL-guarded.

    The guard takes one batched transform of u, v and theta. A state whose
    u, v or theta holds a NaN or an infinity raises :class:`NonFiniteState`
    naming that field; then a CFL ratio dt * max(||u||_Linf, ||v||_Linf) /
    spacing past ``cfl_max`` raises :class:`CflViolation`; then a sup norm of
    u, v or theta past :data:`FIELD_MAX` raises BadParams. Only a state
    that passes all three is stepped.

    Diffusion (full Laplacian for u and v, eps-scaled for theta) is implicit
    by the trapezoidal rule; advection and coupling are explicit through a
    two-stage predictor/corrector, with the quadratic terms in divergence
    and rotational form (see the module docstring). u is projected once per
    stage result, the predictor and the corrector.

    The step works on a copy of the block of ``s`` (a state is the block of
    modes the two-thirds rule keeps) and on held arrays, with 28 real
    field-transforms.

    Buffers are built once per grid and held in a one-entry
    cache until a step on another grid replaces them; the trapezoidal
    factors once per (grid, dt, eps), in a small cache of their own.
    Steps share those buffers, and records borrow them between steps, so
    this function is not thread-safe. The returned State owns its block, the
    copy the step accumulated into, which is all that a warm step allocates
    beyond small temporaries.
    """
    if dt <= 0:
        raise BadParams(f"dt must be positive, got {dt}")
    g = s.grid
    st = _stepper(g)
    st.guard(s, dt, cfl_max)
    a, half_b = _factors(g, dt, s.eps)
    y = s.spec.copy()

    # y2 = a y0 + (b n0 + b n1) / 2 accumulates in y, and the predictor
    # y1 = a y0 + b n0 is y + b n0 / 2 midway; the first stage reuses the
    # grid fields of u, v and theta that the guard transformed from the block
    y1 = _scale(half_b, st.explicit(y, True, st.y1))  # b n0 / 2
    _scale(a, y)
    y += y1
    y1 += y
    _project(g, y1[:2], st.c)  # predictor
    y += _scale(half_b, st.explicit(y1, False, y1))  # + b n1 / 2
    _project(g, y[:2], st.c)  # corrector
    return State(g, y, s.t + dt, s.eps)


def _trajectory(cfg: SimConfig, s: State) -> Iterator[tuple[int, State]]:
    # the run of cfg from s, as (k, state) for k = 0 .. num_steps: s once it
    # passes step 1's guard, then each step's result; a guard error carries
    # the index k of the step it rejected
    k = 1
    try:
        _stepper(s.grid).guard(s, cfg.dt, cfg.cfl_max)
        yield 0, s
        for k in range(1, cfg.num_steps() + 1):
            s = imex_step(s, cfg.dt, cfl_max=cfg.cfl_max)
            yield k, s
    except (CflViolation, NonFiniteState) as exc:
        exc.step = k
        raise


def simulate(
    cfg: SimConfig, on_snapshot: Callable[[int, State], None] | None = None,
    on_record: Callable[[np.ndarray], None] | None = None, *, record: bool = True,
) -> SimResult:
    """Advance from the configured initial data to the horizon.

    The initial state must first pass step 1's guard (:func:`imex_step`;
    its error carries step 1), as in a twin and an eps sweep. Diagnostics are
    recorded every ``diag_stride`` steps (none with ``record=False``) and
    snapshots taken every ``snap_stride`` steps, both including step 0; a
    step's snapshot is taken after its record. ``on_record(row)`` receives
    each record, a float64 row in ``records.COLUMNS`` order, as it is made,
    and ``on_snapshot(step, state)`` each snapshot. Without a sink, rows and
    snapshots are kept in ``result``, so memory grows with the horizon; with
    both, the run holds O(1) states and no row unless the sinks keep them.
    """
    result, rows = SimResult(), []
    on_snapshot = on_snapshot or (lambda step, s: result.snapshots.append(s))
    on_record = on_record or rows.append
    for k, state in _trajectory(cfg, make_initial(cfg)):
        if record and k % cfg.diag_stride == 0:
            on_record(records.make_record(state))
        if k % cfg.snap_stride == 0:
            on_snapshot(k, state)
    result.diagnostics = records.DiagnosticsSeries(np.array(rows).reshape(-1, len(records.COLUMNS)))
    return result
