"""Fourier operator algebra on the periodic square [0, L]^2.

Fields live on an n-by-n collocation grid. A field is its Fourier form on
the block of the ``rfft2`` half plane that the two-thirds rule keeps
(:func:`kept_block`): with k = n // 3, the rows [0, k] and [n - k, n) of
the columns [0, k], an (r, cols) array with r = 2k + 1 and cols = k + 1,
whose rows are in ``fftfreq`` order (row i holds k1 = i up to k, and
i - r past it). A scalar's spectrum has shape (r, cols); a vector's is
(2, r, cols), its x and y spectra stacked. Each operator is written once:
its multipliers and transforms broadcast over the leading component axis,
so applied to a vector it gives, bit for bit, the stack of its value on
each component. Only the norms branch on the rank, to combine a vector's
components in a fixed order. Mode (k1, -k2 < 0) is the conjugate of the
stored (-k1, k2), so Parseval sums weight each column by
``Grid.herm_weight`` (1 on column 0, which holds its own conjugates, 2
elsewhere). The block holds no Nyquist mode (|k1| = n/2 or k2 = n/2), so
every multiplier has one grid-consistent value on it. Differential and
singular-integral operators are exact Fourier multipliers:

    derivative               i * 2*pi*k/L
    inv_neg_laplacian        1 / |2*pi*k/L|^2      (zero at k = 0)
    riesz_double(i, j)       -k_i k_j / |k|^2      (zero at k = 0)
    smoothing_inverse        1 / (1 + |2*pi*k/L|^2)

The (0,0) mode is annihilated wherever the inverse Laplacian is undefined.
Grid samples are transformed from the block on each read: it is scattered
into a half-plane work array with zeros at every other mode, whose complex
pass runs over the block's columns only (a pruned transform). A product is
formed on the grid, and its spectrum is the block of a pruned forward
transform, which drops every mode off it: the two-thirds rule, which makes
quadratic products alias-free. So the output of every operator here is
unchanged by a round trip through the grid. All functions are pure, and a
field is an immutable (grid, spectrum) value.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np

from .errors import BadParams, NonZeroMean

# relative tolerance distinguishing conserved-mean roundoff from user error
MEAN_ZERO_RTOL = 1e-10

#: the largest grid size: a Grid and the step's buffers (``model._Stepper``)
#: hold about 150 n^2 bytes (9.9 MB at n = 256), so 0.63 GB at n = 2048
N_MAX = 2048

#: the bounds of the domain length L. A record and a norm scale their sums
#: by (L/n)^2, L/n^2 and L^2/n^4, Python floats that raise on overflow, and
#: an L2 norm grows as L times the sup norm S: a record holds (L S)^2 and,
#: for its L4 norms, L^2 S^4. S reaches about FIELD_MAX^2 = 1e60 in the
#: record of the state a step makes from a guarded one (``model.FIELD_MAX``),
#: and L <= LENGTH_MAX = 1e30 keeps L^2 S^4 near 1e300, inside the float
#: range (1.8e308). Below, a record weights squared coefficients, whose sum is
#: at most n^4 S^2, by |k|^6 up to the largest Parseval weight Grid builds,
#: weights[3] <= 16 (pi n / L)^6: WEIGHT_MAX = 1e100 keeps that near
#: 1e233 at n = N_MAX, which makes L at least about 1.1e-16 n
LENGTH_MAX = 1e30
WEIGHT_MAX = 1e100


def _check_integer(name: str, value) -> None:
    # the integer rule: an int or a numpy integer, not a bool
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise BadParams(f"{name} must be an integer, got {value!r}")


def _check_grid(n: int, length: float) -> None:
    # the grid rule: n even and in [8, N_MAX], length at most LENGTH_MAX and
    # 16 (pi n / L)^6 at most WEIGHT_MAX, here in Python floats, whose
    # products overflow to inf silently
    if n % 2 != 0 or not 8 <= n <= N_MAX:
        raise BadParams(f"grid size must be even and in [8, {N_MAX}], got {n}")
    w = math.pi * n / length if length > 0 else math.inf
    if not (length <= LENGTH_MAX and 16.0 * (w * w) * (w * w) * (w * w) <= WEIGHT_MAX):
        raise BadParams(f"domain length must be at most {LENGTH_MAX:g}, with 16 (pi n / L)^6 at most "
                        f"{WEIGHT_MAX:g}, and positive and finite, got {length!r}")


def _kept_max(n: int) -> int:
    # the largest |k1|, |k2| that the two-thirds rule keeps: |k| <= n/3
    return n // 3


def kept_block(n: int) -> tuple[int, int, int]:
    """(lo, hi, cols) of the block of the n-point rfft2 half plane that the
    two-thirds rule keeps: the rows [0, lo) and [hi, n) of the columns
    [0, cols), with k = n // 3 the rows [0, k] and [n - k, n) of the columns
    [0, k]. It holds (2k + 1)(k + 1) modes, 171 x 86 at n = 256. Fields,
    states and the snapshot format all read the block from here."""
    k = _kept_max(n)
    return k + 1, n - k, k + 1


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


def _irfft2(blocks, work: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The grid samples of the (m, r, cols) block spectra ``blocks``, in
    order, into the first fields of out, (.., n, n), which it returns: each
    is scattered into the next fields of the half-plane array work, (.., n,
    n//2 + 1), whose complex pass along axis -2 runs in place over the
    block's columns only, before the real pass along axis -1 (irfft2 drops
    out=). Equal to irfft2 of the scattered spectra (zeros may differ in
    sign); a block may be a view of out."""
    lo, hi, cols = kept_block(work.shape[-2])
    k = 0
    for a in blocks:
        _scatter(a, work[k : k + len(a)], lo, hi, cols)
        k += len(a)
    np.fft.ifftn(work[:k, :, :cols], axes=(-2,), out=work[:k, :, :cols])
    return np.fft.irfft(work[:k], out.shape[-1], axis=-1, out=out[:k])


def _rfft2(x: np.ndarray, work: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The block spectra of the grid samples x, (.., n, n), into out, (..,
    r, cols), which it returns: the real pass along axis -1 into the
    half-plane array work, the complex pass along axis -2 over the block's
    columns only, then the gather of the block, which drops every other
    mode. (fftn along one axis is fft, under the n-d name that the
    benchmark's tracer and the transform-count tests wrap)"""
    lo, hi, cols = kept_block(work.shape[-2])
    np.fft.rfft(x, axis=-1, out=work)
    np.fft.fftn(work[..., :cols], axes=(-2,), out=work[..., :cols])
    return _gather(work, lo, hi, cols, out)


class Grid:
    """Uniform n x n collocation grid on the torus [0, length]^2, and the one
    owner of the kept block's tables, all read-only: the exact integer
    wavenumbers of its rows and columns, the multipliers and the weights.

    n must be an integer (numpy's too, not a bool), even and in [8, N_MAX].
    Mode (0,0) carries wavenumber exactly zero; physical wavenumbers are
    2*pi*k/length for integer k.
    """

    def __init__(self, n: int, length: float = 2.0 * np.pi):
        _check_integer("n", n)
        n = int(n)
        _check_grid(n, length)
        self.n = n
        self.length = float(length)

        # integer mode indices of the block's rows (0..k, -k..-1) and columns
        k = _kept_max(n)
        self.kx_int = np.concatenate((np.arange(k + 1), np.arange(-k, 0)))[:, None]
        self.ky_int = np.arange(k + 1)[None, :]
        scale = 2.0 * np.pi / self.length
        self.kx = scale * self.kx_int
        self.ky = scale * self.ky_int
        self.k2 = self.kx**2 + self.ky**2
        self.inv_k2 = np.divide(1.0, self.k2, out=np.zeros_like(self.k2), where=self.k2 > 0.0)
        # (i d_x, i d_y) multipliers stacked on a leading axis
        self.ik = 1j * np.stack(np.broadcast_arrays(self.kx, self.ky))
        # Parseval weight of each stored column (see the module docstring)
        self.herm_weight = np.where(self.ky_int == 0, 1.0, 2.0)
        self.spec_shape = self.k2.shape
        for a in vars(self).values():
            if isinstance(a, np.ndarray):
                a.flags.writeable = False

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """The record's Parseval weights, one (5, r, cols) stack built on first
        use: herm_weight |k|^(2j) for j = 0..3, then herm_weight on the tail
        band, the top third of the kept band: max(|k1|, |k2|) > 2/3 of n/3,
        which selects the modes of the exact 9 max(|k1|, |k2|) > 2n."""
        band = np.maximum(np.abs(self.kx_int), np.abs(self.ky_int))
        rows = [self.herm_weight * self.k2**j for j in range(4)]
        w = np.stack(rows + [self.herm_weight * (band > 2.0 / 3.0 * (self.n / 3.0))])
        w.flags.writeable = False
        return w

    @property
    def spacing(self) -> float:
        return self.length / self.n

    def __eq__(self, other):
        return (
            isinstance(other, Grid) and other.n == self.n and other.length == self.length
        )

    def __hash__(self):
        return hash((self.n, self.length))

    def __repr__(self):
        return f"Grid(n={self.n}, length={self.length!r})"


def _samples(grid: Grid, spec: np.ndarray) -> np.ndarray:
    # the grid samples, (.., n, n), of the block spectra spec, (.., r, cols)
    n, lead = grid.n, spec.shape[:-2]
    a = spec.reshape(-1, *spec.shape[-2:])
    out = np.empty((len(a), n, n))
    _irfft2((a,), np.empty((len(a), n, n // 2 + 1), dtype=np.complex128), out)
    return out.reshape(*lead, n, n)


def _spectrum(grid: Grid, x: np.ndarray) -> np.ndarray:
    # the block spectra, (.., r, cols), of the grid samples x, (.., n, n)
    work = np.empty((*x.shape[:-1], grid.n // 2 + 1), dtype=np.complex128)
    return _rfft2(x, work, np.empty((*x.shape[:-2], *grid.spec_shape), dtype=np.complex128))


class SpectralField:
    """Real scalar or vector field on a :class:`Grid`, held as its spectrum
    on the kept block.

    The spectrum ``spec`` is the field's value: (r, cols) for a scalar,
    (2, r, cols) for a vector (:func:`VectorField`), the x and y spectra
    stacked. ``x``, ``y`` and iteration give a vector's components as views
    of its spectrum; a scalar has none. ``phys``, the grid samples, is
    transformed from it on each read. The mean of a scalar is the (0,0)
    Fourier mode divided by n^2. A field adds only to a field of its own
    grid and rank.
    """

    __slots__ = ("grid", "spec")

    def __init__(self, grid: Grid, spec: np.ndarray):
        self.grid = grid
        self.spec = spec

    @classmethod
    def from_phys(cls, grid: Grid, values) -> "SpectralField":
        """The field of the grid samples ``values``, (n, n), on the kept
        block: every mode off the block is dropped, as from a product."""
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape != (grid.n, grid.n):
            raise BadParams(f"expected shape {(grid.n, grid.n)}, got {arr.shape}")
        return cls(grid, _spectrum(grid, arr))

    @classmethod
    def zeros(cls, grid: Grid) -> "SpectralField":
        return cls(grid, np.zeros(grid.spec_shape, dtype=np.complex128))

    @property
    def phys(self) -> np.ndarray:
        return _samples(self.grid, self.spec)

    @property
    def mean(self) -> float:
        return float(self.spec[0, 0].real) / self.grid.n**2

    @property
    def x(self) -> "SpectralField":
        return SpectralField(self.grid, _components(self)[0])

    @property
    def y(self) -> "SpectralField":
        return SpectralField(self.grid, _components(self)[1])

    def __iter__(self):
        yield self.x
        yield self.y

    def _binary(self, other, op):
        if not isinstance(other, SpectralField):
            return NotImplemented
        if other.grid != self.grid:
            raise BadParams("fields live on different grids")
        if other.spec.ndim != self.spec.ndim:
            raise BadParams("a scalar and a vector field do not add")
        return SpectralField(self.grid, op(self.spec, other.spec))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        return SpectralField(self.grid, float(scalar) * self.spec)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __repr__(self):
        return f"SpectralField(n={self.grid.n}, shape={self.spec.shape})"


def _components(a: SpectralField) -> np.ndarray:
    # the stacked component spectra of a vector field
    if a.spec.ndim != 3:
        raise BadParams("a scalar field has no x and y components")
    return a.spec


def VectorField(x: SpectralField, y: SpectralField) -> SpectralField:
    """The vector field with the scalar components x and y, which share a
    grid: its spectrum stacks theirs, (2, r, cols)."""
    if x.grid != y.grid or x.spec.ndim != 2 or y.spec.ndim != 2:
        raise BadParams("vector components must be scalar fields on one grid")
    return SpectralField(x.grid, np.stack((x.spec, y.spec)))


def _modes_field(grid: Grid, coeffs) -> SpectralField:
    # the real field with Fourier coefficient z at mode (k1, k2) and conj(z)
    # at (-k1, -k2) for each ((k1, k2), z) of coeffs, all on the block,
    # written into the stored slots of both with rfft2's scaling n^2; no
    # mode may be another's conjugate
    spec = np.zeros(grid.spec_shape, dtype=np.complex128)
    r = len(spec)
    for (k1, k2), z in coeffs:
        z = z * grid.n**2
        if k2 >= 0:
            spec[k1 % r, k2] = z
        if k2 <= 0:
            spec[-k1 % r, -k2] = np.conj(z)
    return SpectralField(grid, spec)


def derivative(f: SpectralField, axis: str) -> SpectralField:
    """Exact spectral partial derivative along ``axis``; output has zero mean."""
    if axis not in ("x", "y"):
        raise BadParams(f"axis must be 'x' or 'y', got {axis!r}")
    return SpectralField(f.grid, spec=f.grid.ik["xy".index(axis)] * f.spec)


def grad(f: SpectralField) -> SpectralField:
    return SpectralField(f.grid, spec=f.grid.ik * f.spec)


def div(a: SpectralField) -> SpectralField:
    return derivative(a.x, "x") + derivative(a.y, "y")


def perp_grad(f: SpectralField) -> SpectralField:
    """Rotated gradient (-d/dy f, d/dx f); always divergence-free."""
    return VectorField(-derivative(f, "y"), derivative(f, "x"))


def laplacian(f: SpectralField) -> SpectralField:
    return SpectralField(f.grid, spec=-f.grid.k2 * f.spec)


def require_mean_zero(f: SpectralField, what: str = "operand") -> None:
    """Raise :class:`NonZeroMean` unless |mean| <= rtol * ||f||_2."""
    m = abs(f.spec[0, 0]) / f.grid.n**2
    if m > MEAN_ZERO_RTOL * norm(f, "L2"):
        raise NonZeroMean(f"{what} must be mean-zero, |mean| = {m:.3e}")


def inv_neg_laplacian(f: SpectralField) -> SpectralField:
    """Solve -lap(g) = f on the torus; requires mean-zero f, returns mean-zero g."""
    require_mean_zero(f, "inv_neg_laplacian input")
    return SpectralField(f.grid, spec=f.grid.inv_k2 * f.spec)


def grad_inv_neg_laplacian(theta: SpectralField) -> SpectralField:
    """Gradient of the inverse negative Laplacian of a mean-zero scalar.

    Each component solves -lap(out_i) = d_i theta, so div(out) = -theta.
    """
    require_mean_zero(theta, "grad_inv_neg_laplacian input")
    g = theta.grid
    return SpectralField(g, spec=g.ik * (g.inv_k2 * theta.spec))


def riesz_double(i: str, j: str, f: SpectralField) -> SpectralField:
    """Composition of two Riesz transforms: multiplier -k_i k_j / |k|^2.

    Symmetric in (i, j); annihilates the (0,0) mode by convention; the
    trace over i equals minus the identity on mean-zero fields.
    """
    g = f.grid
    ki = g.kx if i == "x" else g.ky if i == "y" else None
    kj = g.kx if j == "x" else g.ky if j == "y" else None
    if ki is None or kj is None:
        raise BadParams(f"axes must be 'x' or 'y', got {i!r}, {j!r}")
    return SpectralField(g, spec=-ki * kj * g.inv_k2 * f.spec)


def _project(g: Grid, a: np.ndarray, work: np.ndarray) -> None:
    """Leray projection, in place, of the stacked block spectra a = (a_x,
    a_y), with ``work`` (a's shape and dtype) as scratch and the
    multipliers kx, ky and inv_k2 of the grid g."""
    q, t = work
    np.multiply(g.kx, a[0], out=q)
    np.multiply(g.ky, a[1], out=t)
    q += t
    q *= g.inv_k2  # (k . a) / |k|^2
    np.multiply(g.kx, q, out=t)
    a[0] -= t
    np.multiply(g.ky, q, out=t)
    a[1] -= t


def leray_project(a: SpectralField) -> SpectralField:
    """L2-orthogonal projection of a vector field onto divergence-free fields.

    Idempotent, self-adjoint, and mean-preserving on each component.
    """
    out = 1.0 * _components(a)  # a new array, formed by a complex product as every multiplier forms its output
    _project(a.grid, out, np.empty_like(out))
    return SpectralField(a.grid, spec=out)


def smoothing_inverse(f: SpectralField) -> SpectralField:
    """Inverse of (I - lap): multiplier 1/(1 + |k|^2); an L2 contraction."""
    g = f.grid
    return SpectralField(g, spec=f.spec / (1.0 + g.k2))


def multiply(f: SpectralField, g: SpectralField) -> SpectralField:
    """Pointwise product in physical space; a vector factor makes a vector
    product.

    Its spectrum is the kept block of the product of the grid samples: the
    two-thirds rule, which makes quadratic products alias-free.
    """
    grid = f.grid
    return SpectralField(grid, _spectrum(grid, _samples(grid, f.spec) * _samples(grid, g.spec)))


def advect(vel: SpectralField, f: SpectralField) -> SpectralField:
    """Advective derivative vel.grad(f) for scalar or vector f.

    Quadratic products are formed pointwise in physical space by
    :func:`multiply`, and kept on the block.
    """
    return multiply(vel.x, derivative(f, "x")) + multiply(vel.y, derivative(f, "y"))


def seminorm(f: SpectralField, order: int) -> float:
    """L2 norm of the order-th derivative tensor, via |k|^(2*order) weights."""
    if f.spec.ndim == 3:
        return float(np.sqrt(seminorm(f.x, order) ** 2 + seminorm(f.y, order) ** 2))
    g = f.grid
    total = np.sum(g.herm_weight * g.k2**order * np.abs(f.spec) ** 2)
    return float(g.length / g.n**2 * np.sqrt(total))


def inner(f: SpectralField, g: SpectralField) -> float:
    """L2 inner product of two scalar or two vector fields."""
    gr = f.grid
    s = np.sum(gr.herm_weight * (np.conj(f.spec) * g.spec).real, axis=(-2, -1))
    return float(np.sum(gr.length**2 / gr.n**4 * s))


def _pointwise_sq(f: SpectralField) -> np.ndarray:
    if f.spec.ndim == 3:
        return f.x.phys**2 + f.y.phys**2
    return f.phys**2


def norm(f: SpectralField, kind: str = "L2") -> float:
    """Norms of scalar or vector fields.

    L2 is evaluated by Parseval; L4 and Linf from physical samples (Linf is
    the max over grid points, an infimum approximation of the true sup);
    H1 = sqrt(L2^2 + ||grad f||_2^2). Vector fields sum component squares
    (pointwise, for L4/Linf).
    """
    if kind == "L2":
        if f.spec.ndim == 3:
            return float(np.hypot(norm(f.x, "L2"), norm(f.y, "L2")))
        return seminorm(f, 0)
    if kind == "Linf":
        return float(np.sqrt(np.max(_pointwise_sq(f))))
    if kind == "L4":
        g = f.grid
        q = np.sum(_pointwise_sq(f) ** 2) * (g.length / g.n) ** 2
        return float(q**0.25)
    if kind == "H1":
        return float(np.sqrt(norm(f, "L2") ** 2 + seminorm(f, 1) ** 2))
    raise BadParams(f"unknown norm kind {kind!r}")


def grad_linf(a: SpectralField) -> float:
    """Sup over grid points of |grad a^x| + |grad a^y| (Euclidean per component)."""
    g = a.grid
    # (d_x a^x, d_y a^x, d_x a^y, d_y a^y) from one batched transform
    sq = _samples(g, (g.ik * _components(a)[:, None]).reshape(4, *g.spec_shape)) ** 2
    return float(np.max(np.sqrt(sq[0] + sq[1]) + np.sqrt(sq[2] + sq[3])))
