"""Fourier operator algebra on the periodic square [0, L]^2.

Fields live on an n-by-n collocation grid. A field is its Fourier form, the
``rfft2`` half plane: of shape (n, n//2 + 1) for a scalar, and (2, n,
n//2 + 1) for a vector, its x and y spectra stacked. Its grid samples are
transformed from it on each read. Each operator is written once: its
multipliers and transforms broadcast over the leading component axis, so
applied to a vector it gives, bit for bit, the stack of its value on each
component. Only the norms branch on the rank, to combine a vector's
components in a fixed order. In that half plane mode (k1, -k2 < 0) is
the conjugate of the stored (-k1, k2), so Parseval sums weight each column
by ``Grid.herm_weight`` (1 on columns 0 and n/2, which hold their own
conjugates, 2 elsewhere). On the Nyquist lines (|k1| = n/2
or k2 = n/2) the sign of a wavenumber is ambiguous, so a multiplier odd in
it has no grid-consistent value there. The solver carries no Nyquist modes
(the usual even-n collocation convention): every quadratic product is
masked by the two-thirds rule, and the operators with a multiplier odd on
those lines (derivatives, ``riesz_double``, ``leray_project``) zero them.
Differential and singular-integral operators are exact Fourier
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

import math

import numpy as np

from .errors import BadParams, NonZeroMean

# relative tolerance distinguishing conserved-mean roundoff from user error
MEAN_ZERO_RTOL = 1e-10

#: the largest grid size: a Grid and the step's buffers (``model._Stepper``)
#: hold about 185 n^2 bytes (12.1 MB at n = 256), so 0.78 GB at n = 2048
N_MAX = 2048

#: the bounds of the domain length L. A record and a norm scale their sums
#: by (L/n)^2, L/n^2 and L^2/n^4, Python floats that raise on overflow, and
#: an L2 norm grows as L times the sup norm S: a record holds (L S)^2 and,
#: for its L4 norms, L^2 S^4. S reaches about FIELD_MAX^2 = 1e60 in the
#: record of the state a step makes from a guarded one (``model.FIELD_MAX``),
#: and L <= LENGTH_MAX = 1e30 keeps L^2 S^4 near 1e300, inside the float
#: range (1.8e308). Below, a record weights squared coefficients, whose sum is
#: at most n^4 S^2, by |k|^6 up to the largest Parseval weight Grid builds,
#: seminorm_weight(3) <= 16 (pi n / L)^6: WEIGHT_MAX = 1e100 keeps that near
#: 1e233 at n = N_MAX, which makes L at least about 1.1e-16 n
LENGTH_MAX = 1e30
WEIGHT_MAX = 1e100


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


class Grid:
    """Uniform n x n collocation grid on the torus [0, length]^2.

    n must be even and in [8, N_MAX]. Mode (0,0) carries wavenumber exactly
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
        # the modes riesz_double and leray_project keep: all off the Nyquist lines
        self.nyquist_free_mask = (np.abs(self.kx_int) < half) & (self.ky_int < half)
        # Parseval weight of each stored column (see the module docstring)
        self.herm_weight = np.where((self.ky_int == 0) | (self.ky_int == half), 1.0, 2.0)
        self.spec_shape = (n, half + 1)
        self._seminorm_weights = {}

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
    """Real scalar or vector field on a :class:`Grid`, held as its ``rfft2``
    half plane.

    The spectrum ``spec`` is the field's value: (n, n//2 + 1) for a scalar,
    (2, n, n//2 + 1) for a vector (:func:`VectorField`), the x and y spectra
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
    grid: its spectrum stacks theirs, (2, n, n//2 + 1)."""
    if x.grid != y.grid or x.spec.ndim != 2 or y.spec.ndim != 2:
        raise BadParams("vector components must be scalar fields on one grid")
    return SpectralField(x.grid, np.stack((x.spec, y.spec)))


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
    modes the two-thirds mask keeps.

    Requires a to hold no Nyquist modes: there the multiplier k k^T / |k|^2
    takes the stored sign of -n/2, and its output would not survive a round
    trip through the grid. A step meets this by construction, since the
    block holds no Nyquist mode.
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


def leray_project(a: SpectralField) -> SpectralField:
    """L2-orthogonal projection of a vector field onto divergence-free fields
    without Nyquist modes: the Nyquist lines of the output are zero.

    Idempotent, self-adjoint, and mean-preserving on each component.
    """
    g = a.grid
    out = _components(a) * g.nyquist_free_mask
    _project(g, out, np.empty_like(out))
    return SpectralField(g, spec=out)


def smoothing_inverse(f: SpectralField) -> SpectralField:
    """Inverse of (I - lap): multiplier 1/(1 + |k|^2); an L2 contraction."""
    g = f.grid
    return SpectralField(g, spec=f.spec / (1.0 + g.k2))


def multiply(f: SpectralField, g: SpectralField) -> SpectralField:
    """Pointwise product in physical space; a vector factor makes a vector
    product.

    Both factors and the product are passed through ``Grid.dealias_mask``,
    the two-thirds rule, which makes quadratic products alias-free.
    """
    n = f.grid.n
    mask = f.grid.dealias_mask
    fx, gx = (np.fft.irfft2(np.where(mask, h.spec, 0.0), s=(n, n)) for h in (f, g))
    return SpectralField(f.grid, np.where(mask, np.fft.rfft2(fx * gx), 0.0))


def advect(vel: SpectralField, f: SpectralField) -> SpectralField:
    """Advective derivative vel.grad(f) for scalar or vector f.

    Quadratic products are formed pointwise in physical space by
    :func:`multiply`, on masked factors, and masked again.
    """
    return multiply(vel.x, derivative(f, "x")) + multiply(vel.y, derivative(f, "y"))


def seminorm(f: SpectralField, order: int) -> float:
    """L2 norm of the order-th derivative tensor, via |k|^(2*order) weights."""
    if f.spec.ndim == 3:
        return float(np.sqrt(seminorm(f.x, order) ** 2 + seminorm(f.y, order) ** 2))
    g = f.grid
    total = np.sum(g.seminorm_weight(order) * np.abs(f.spec) ** 2)
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
    grads = (g.ik * _components(a)[:, None]).reshape(4, *g.spec_shape)
    sq = np.fft.irfft2(grads, s=(g.n, g.n)) ** 2
    return float(np.max(np.sqrt(sq[0] + sq[1]) + np.sqrt(sq[2] + sq[3])))
