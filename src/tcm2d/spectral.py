"""Fourier operator algebra on the periodic square [0, L]^2.

Scalar fields live on an n-by-n collocation grid. A field is its Fourier
form, the ``rfft2`` half plane of shape (n, n//2 + 1); its grid samples are
transformed from it on each read. In that half plane mode
(k1, -k2 < 0) is the conjugate of the stored (-k1, k2), so Parseval sums
weight each column by ``Grid.herm_weight`` (1 on columns 0 and n/2, which
hold their own conjugates, 2 elsewhere). On the Nyquist lines (|k1| = n/2
or k2 = n/2) the sign of a wavenumber is ambiguous, so a multiplier odd in
it has no grid-consistent value there. The solver carries no Nyquist modes
(the usual even-n collocation convention): every quadratic product is
masked, by the two-thirds rule with dealiasing and by
``Grid.nyquist_free_mask`` without it, and the operators with a multiplier
odd on those lines (derivatives, ``riesz_double``, ``leray_project``) zero
them. Differential and singular-integral operators are exact Fourier
multipliers:

    derivative               i * 2*pi*k/L          (Nyquist lines zeroed)
    inv_neg_laplacian        1 / |2*pi*k/L|^2      (zero at k = 0)
    riesz_double(i, j)       -k_i k_j / |k|^2      (zero at k = 0, Nyquist lines zeroed)
    smoothing_inverse        1 / (1 + |2*pi*k/L|^2)

The (0,0) mode is annihilated wherever the inverse Laplacian is undefined;
``Grid.dealias_mask`` is the two-thirds rule on the max-norm of the integer
wavevector. So the output of every operator here is unchanged by a round
trip through the grid. All functions are pure, and a field is an immutable
(grid, spectrum) value.
"""

from __future__ import annotations

import numpy as np

from .errors import BadParams, NonZeroMean

# relative tolerance distinguishing conserved-mean roundoff from user error
MEAN_ZERO_RTOL = 1e-10


def _check_grid(n: int, length: float) -> None:
    # the grid rule: n even and at least 8, length positive and finite
    if n % 2 != 0 or n < 8:
        raise BadParams(f"grid size must be even and >= 8, got {n}")
    if not (length > 0 and np.isfinite(length)):
        raise BadParams(f"domain length must be positive and finite, got {length}")


class Grid:
    """Uniform n x n collocation grid on the torus [0, length]^2.

    n must be even and at least 8. Mode (0,0) carries wavenumber exactly
    zero; physical wavenumbers are 2*pi*k/length for integer k.
    """

    def __init__(self, n: int, length: float = 2.0 * np.pi):
        n = int(n)
        _check_grid(n, length)
        self.n = n
        self.length = float(length)

        # integer mode indices of the rfft2 half plane
        self.kx_int = np.fft.fftfreq(n, 1.0 / n)[:, None]
        self.ky_int = np.fft.rfftfreq(n, 1.0 / n)[None, :]
        scale = 2.0 * np.pi / self.length
        self.kx = scale * self.kx_int
        self.ky = scale * self.ky_int
        self.k2 = self.kx**2 + self.ky**2
        inv = np.zeros_like(self.k2)
        nonzero = self.k2 > 0.0
        inv[nonzero] = 1.0 / self.k2[nonzero]
        self.inv_k2 = inv
        # (i d_x, i d_y) multipliers stacked on a leading axis; the Nyquist
        # column/row has no usable phase for odd-order derivatives
        half = n // 2
        dx = np.where(np.abs(self.kx_int) == half, 0.0, self.kx)
        dy = np.where(np.abs(self.ky_int) == half, 0.0, self.ky)
        self.ik = 1j * np.stack(np.broadcast_arrays(dx, dy))
        cutoff = n / 3.0
        self.dealias_mask = (np.abs(self.kx_int) <= cutoff) & (np.abs(self.ky_int) <= cutoff)
        self.nyquist_free_mask = (np.abs(self.kx_int) < half) & (self.ky_int < half)
        # Parseval weight of each stored column (see the module docstring)
        self.herm_weight = np.where((self.ky_int == 0) | (self.ky_int == half), 1.0, 2.0)
        self.spec_shape = (n, half + 1)
        self._seminorm_weights = {}

    def product_mask(self, use_dealias: bool) -> np.ndarray:
        """The mask every quadratic product applies to its factors and to
        itself: the two-thirds rule with dealiasing, else the Nyquist-free
        mask. Both zero the Nyquist lines."""
        return self.dealias_mask if use_dealias else self.nyquist_free_mask

    def seminorm_weight(self, order: int) -> np.ndarray:
        """herm_weight * |k|^(2*order), the Parseval weight of the order-th
        derivative tensor; built once per order and shared, so read only."""
        w = self._seminorm_weights.get(order)
        if w is None:
            w = self._seminorm_weights[order] = self.herm_weight * self.k2**order
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


class SpectralField:
    """Real scalar field on a :class:`Grid`, held as its ``rfft2`` half plane.

    The spectrum ``spec`` is the field's value; ``phys``, the grid samples,
    is transformed from it on each read. The mean is the (0,0) Fourier mode
    divided by n^2.
    """

    __slots__ = ("grid", "spec")

    def __init__(self, grid: Grid, spec: np.ndarray):
        self.grid = grid
        self.spec = spec

    @classmethod
    def from_phys(cls, grid: Grid, values) -> "SpectralField":
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape != (grid.n, grid.n):
            raise BadParams(f"expected shape {(grid.n, grid.n)}, got {arr.shape}")
        return cls(grid, np.fft.rfft2(arr))

    @classmethod
    def zeros(cls, grid: Grid) -> "SpectralField":
        return cls(grid, np.zeros(grid.spec_shape, dtype=np.complex128))

    @property
    def phys(self) -> np.ndarray:
        return np.fft.irfft2(self.spec, s=(self.grid.n, self.grid.n))

    @property
    def mean(self) -> float:
        return float(self.spec[0, 0].real) / self.grid.n**2

    def _binary(self, other, op):
        if not isinstance(other, SpectralField):
            return NotImplemented
        if other.grid != self.grid:
            raise BadParams("fields live on different grids")
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
        return f"SpectralField(n={self.grid.n})"


class VectorField:
    """Pair of scalar fields (x, y components) on one shared grid."""

    __slots__ = ("x", "y")

    def __init__(self, x: SpectralField, y: SpectralField):
        if x.grid != y.grid:
            raise BadParams("vector components live on different grids")
        self.x = x
        self.y = y

    @property
    def grid(self) -> Grid:
        return self.x.grid

    def __add__(self, other):
        return VectorField(self.x + other.x, self.y + other.y)

    def __sub__(self, other):
        return VectorField(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar):
        return VectorField(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __iter__(self):
        yield self.x
        yield self.y


def derivative(f: SpectralField, axis: str) -> SpectralField:
    """Exact spectral partial derivative along ``axis``; output has zero mean."""
    if axis not in ("x", "y"):
        raise BadParams(f"axis must be 'x' or 'y', got {axis!r}")
    return SpectralField(f.grid, spec=f.grid.ik["xy".index(axis)] * f.spec)


def grad(f: SpectralField) -> VectorField:
    return VectorField(derivative(f, "x"), derivative(f, "y"))


def div(a: VectorField) -> SpectralField:
    return derivative(a.x, "x") + derivative(a.y, "y")


def perp_grad(f: SpectralField) -> VectorField:
    """Rotated gradient (-d/dy f, d/dx f); always divergence-free."""
    return VectorField(-derivative(f, "y"), derivative(f, "x"))


def laplacian(f):
    if isinstance(f, VectorField):
        return VectorField(laplacian(f.x), laplacian(f.y))
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


def grad_inv_neg_laplacian(theta: SpectralField) -> VectorField:
    """Gradient of the inverse negative Laplacian of a mean-zero scalar.

    Each component solves -lap(out_i) = d_i theta, so div(out) = -theta.
    """
    require_mean_zero(theta, "grad_inv_neg_laplacian input")
    g = theta.grid
    out = g.ik * (g.inv_k2 * theta.spec)
    return VectorField(SpectralField(g, spec=out[0]), SpectralField(g, spec=out[1]))


def riesz_double(i: str, j: str, f: SpectralField) -> SpectralField:
    """Composition of two Riesz transforms: multiplier -k_i k_j / |k|^2.

    Symmetric in (i, j); annihilates the (0,0) mode by convention and the
    Nyquist lines, where k_i k_j has no grid-consistent sign; the trace over
    i equals minus the identity on mean-zero fields without Nyquist modes.
    """
    g = f.grid
    ki = g.kx if i == "x" else g.ky if i == "y" else None
    kj = g.kx if j == "x" else g.ky if j == "y" else None
    if ki is None or kj is None:
        raise BadParams(f"axes must be 'x' or 'y', got {i!r}, {j!r}")
    return SpectralField(g, spec=-ki * kj * g.inv_k2 * f.spec * g.nyquist_free_mask)


def _project(g: Grid, a: np.ndarray, work: np.ndarray) -> None:
    """Leray projection, in place, of the stacked spectra a = (a_x, a_y),
    with ``work`` (a's shape and dtype) as scratch. g supplies the
    multipliers kx, ky and inv_k2 on a's modes: a Grid for half-plane
    spectra, or a step's stepper (``model._Stepper``) for the block of
    modes the product mask keeps.

    Requires a to hold no Nyquist modes: there the multiplier k k^T / |k|^2
    takes the stored sign of -n/2, and its output would not survive a round
    trip through the grid. A step meets this by construction, since the
    block holds no Nyquist mode under either mask.
    """
    q, t = work
    np.multiply(g.kx, a[0], out=q)
    np.multiply(g.ky, a[1], out=t)
    q += t
    q *= g.inv_k2  # (k . a) / |k|^2
    np.multiply(g.kx, q, out=t)
    a[0] -= t
    np.multiply(g.ky, q, out=t)
    a[1] -= t


def leray_project(a: VectorField) -> VectorField:
    """L2-orthogonal projection onto divergence-free fields without Nyquist
    modes: the Nyquist lines of the output are zero.

    Idempotent, self-adjoint, and mean-preserving on each component.
    """
    g = a.grid
    out = np.stack((a.x.spec, a.y.spec))
    out *= g.nyquist_free_mask
    _project(g, out, np.empty_like(out))
    return VectorField(SpectralField(g, spec=out[0]), SpectralField(g, spec=out[1]))


def smoothing_inverse(f):
    """Inverse of (I - lap): multiplier 1/(1 + |k|^2); an L2 contraction."""
    if isinstance(f, VectorField):
        return VectorField(smoothing_inverse(f.x), smoothing_inverse(f.y))
    g = f.grid
    return SpectralField(g, spec=f.spec / (1.0 + g.k2))


def multiply(f: SpectralField, g: SpectralField, use_dealias: bool = False) -> SpectralField:
    """Pointwise product in physical space.

    Both factors and the product are passed through
    ``Grid.product_mask(use_dealias)``: the two-thirds mask, which makes
    quadratic products alias-free, or without ``use_dealias`` the mask that
    only drops the Nyquist lines.
    """
    n = f.grid.n
    mask = f.grid.product_mask(use_dealias)
    fx, gx = (np.fft.irfft2(np.where(mask, h.spec, 0.0), s=(n, n)) for h in (f, g))
    return SpectralField(f.grid, np.where(mask, np.fft.rfft2(fx * gx), 0.0))


def advect(vel: VectorField, f, use_dealias: bool = False):
    """Advective derivative vel.grad(f) for scalar or vector f.

    Quadratic products are formed pointwise in physical space by
    :func:`multiply`, on masked factors, and masked again.
    """
    if isinstance(f, VectorField):
        return VectorField(advect(vel, f.x, use_dealias), advect(vel, f.y, use_dealias))
    return multiply(vel.x, derivative(f, "x"), use_dealias) + multiply(
        vel.y, derivative(f, "y"), use_dealias
    )


def seminorm(f, order: int) -> float:
    """L2 norm of the order-th derivative tensor, via |k|^(2*order) weights."""
    if isinstance(f, VectorField):
        return float(np.sqrt(seminorm(f.x, order) ** 2 + seminorm(f.y, order) ** 2))
    g = f.grid
    total = np.sum(g.seminorm_weight(order) * np.abs(f.spec) ** 2)
    return float(g.length / g.n**2 * np.sqrt(total))


def inner(f, g) -> float:
    """L2 inner product; accepts scalar or vector fields."""
    if isinstance(f, VectorField):
        return inner(f.x, g.x) + inner(f.y, g.y)
    gr = f.grid
    s = np.sum(gr.herm_weight * (np.conj(f.spec) * g.spec).real)
    return float(gr.length**2 / gr.n**4 * s)


def _pointwise_sq(f) -> np.ndarray:
    if isinstance(f, VectorField):
        return f.x.phys**2 + f.y.phys**2
    return f.phys**2


def norm(f, kind: str = "L2") -> float:
    """Norms of scalar or vector fields.

    L2 is evaluated by Parseval; L4 and Linf from physical samples (Linf is
    the max over grid points, an infimum approximation of the true sup);
    H1 = sqrt(L2^2 + ||grad f||_2^2). Vector fields sum component squares
    (pointwise, for L4/Linf).
    """
    if kind == "L2":
        if isinstance(f, VectorField):
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


def grad_linf(a: VectorField) -> float:
    """Sup over grid points of |grad a^x| + |grad a^y| (Euclidean per component)."""
    g = a.grid
    # (d_x a^x, d_y a^x, d_x a^y, d_y a^y) from one batched transform
    grads = (g.ik * np.stack((a.x.spec, a.y.spec))[:, None]).reshape(4, *g.spec_shape)
    sq = np.fft.irfft2(grads, s=(g.n, g.n)) ** 2
    return float(np.max(np.sqrt(sq[0] + sq[1]) + np.sqrt(sq[2] + sq[3])))
