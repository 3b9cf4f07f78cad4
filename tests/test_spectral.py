import operator
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import tcm2d as t
from tcm2d import model
from tcm2d.errors import BadParams, NonZeroMean
from tcm2d.spectral import N_MAX, multiply

from conftest import band_state, coords, rel_l2


def sin_field(grid, kx=1, ky=0):
    X, Y = coords(grid)
    a = 2.0 * np.pi / grid.length
    return t.SpectralField.from_phys(grid, np.sin(a * (kx * X + ky * Y)))


class TestGrid:
    def test_rejects_odd_or_tiny(self):
        with pytest.raises(BadParams):
            t.Grid(7)
        with pytest.raises(BadParams):
            t.Grid(6)
        with pytest.raises(BadParams):
            t.Grid(32, length=0.0)

    @pytest.mark.parametrize("n", [16.9, 16.0, "16", True, np.float64(16.0)])
    def test_n_takes_an_integer(self, n):
        # the integer rule of SimConfig: int(n) once made Grid(16.9) and
        # Grid("16") a Grid(n=16)
        with pytest.raises(BadParams, match="n must be an integer"):
            t.Grid(n)

    def test_n_takes_a_numpy_integer(self):
        g = t.Grid(np.int32(16))
        assert g == t.Grid(16) and type(g.n) is int

    def test_rejects_past_the_cap_before_it_allocates(self):
        tracemalloc.start()
        try:
            with pytest.raises(BadParams, match=f"in \\[8, {N_MAX}\\]"):
                t.Grid(N_MAX + 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @staticmethod
    def held_by_a_run(n):
        """The bytes a run on an n-grid holds once it has stepped and
        recorded, each array counted once through the array that owns its
        memory: the Grid's arrays, its record weights among them, and the
        step's stepper; and the stepper's arrays that span the grid."""
        cfg = t.SimConfig(n=n, dt=1e-3, horizon=0.0, preset="random_band", eps=0.1, seed=3)
        model._stepper.cache_clear()
        s = t.make_initial(cfg)
        t.make_record(t.imex_step(s, cfg.dt))
        g, st = s.grid, model._stepper(s.grid)
        assert st.g is g
        assert "weights" in vars(g)  # the record built them
        # every array of the Grid lies on the block, (r, cols) or an axis of it
        for a in vars(g).values():
            if isinstance(a, np.ndarray):
                assert np.broadcast_shapes(a.shape[-2:], g.spec_shape) == g.spec_shape
        owners = {}
        for a in (*vars(g).values(), *vars(st).values()):
            if isinstance(a, np.ndarray):
                owner = a if a.base is None else a.base
                owners[id(owner)] = owner
        grid_sized = sorted(k for k, a in vars(st).items() if isinstance(a, np.ndarray) and a.base is None
                            and n in a.shape[-2:])
        return sum(a.nbytes for a in owners.values()), grid_sized

    def test_cap_holds_the_stated_bytes(self):
        # a run holds about 155 n^2 bytes at n = 64 (0.63 MB), and about 151
        # n^2 at larger n, which the cap keeps under 0.7 GB: of the stepper's
        # arrays only its two transform buffers span the grid, and the Grid
        # holds no array of the half plane
        held, grid_sized = self.held_by_a_run(64)
        assert 154 < held / 64**2 <= 155
        assert held / 64**2 * N_MAX**2 < 0.7e9
        assert grid_sized == ["a", "b"]

    def test_cap_holds_the_stated_bytes_at_n256(self):
        # 151 n^2 bytes at n = 256 (9.9 MB)
        held, grid_sized = self.held_by_a_run(256)
        assert 150 < held / 256**2 <= 151
        assert grid_sized == ["a", "b"]

    @pytest.mark.parametrize("n", [98, 196, 206])
    def test_wavenumbers_are_exact_integers(self, n):
        # the first sizes at which n * (1 / n) is not 1, so that fftfreq(n,
        # 1 / n) is one ulp off an integer; each kept mode appears once
        g = t.Grid(n)
        k = n // 3
        assert np.issubdtype(g.kx_int.dtype, np.integer) and np.issubdtype(g.ky_int.dtype, np.integer)
        assert g.kx_int.ravel().tolist() == [*range(k + 1), *range(-k, 0)]
        assert g.ky_int.ravel().tolist() == list(range(k + 1))
        modes = list(zip(*(a.ravel().tolist() for a in np.broadcast_arrays(g.kx_int, g.ky_int))))
        assert len(set(modes)) == len(modes) == (2 * k + 1) * (k + 1)
        assert set(modes) == {(a, b) for a in range(-k, k + 1) for b in range(k + 1)}
        assert np.array_equal(g.kx, 2.0 * np.pi / g.length * np.array([*range(k + 1), *range(-k, 0)], float)[:, None])

    def test_tables_are_read_only(self):
        g = t.Grid(16)
        tables = [a for a in vars(g).values() if isinstance(a, np.ndarray)]
        assert len(tables) == 8
        for a in (*tables, g.weights, *model._factors(g, 1e-3, 0.1)):
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = 1.0

    def test_zero_mode_wavenumber(self):
        g = t.Grid(16, length=3.5)
        assert g.kx[0, 0] == 0.0 and g.ky[0, 0] == 0.0

    def test_equality(self):
        assert t.Grid(16) == t.Grid(16)
        assert t.Grid(16) != t.Grid(16, length=1.0)


class TestFieldRepresentations:
    @pytest.mark.parametrize("n", [32, 64])
    def test_roundtrip(self, n):
        s = band_state(n=n, seed=1, hi=n // 3)
        f = s.theta
        back = t.SpectralField(f.grid, f.spec).phys
        assert rel_l2(t.SpectralField.from_phys(f.grid, back), f) < 1e-12

    def test_conjugate_symmetry(self):
        # column 0 of the block holds its own conjugates: row i holds k1 and
        # row -i mod r holds -k1, the rows being in fftfreq order
        f = band_state(n=32, seed=2).theta
        c = f.spec[:, 0]
        assert c.any()
        assert np.max(np.abs(c - np.conj(np.flip(np.roll(c, -1, 0), 0)))) < 1e-9 * np.max(
            np.abs(c)
        )

    def test_mean_tracking(self):
        g = t.Grid(16)
        f = t.SpectralField.from_phys(g, np.full((16, 16), 2.5))
        assert abs(f.mean - 2.5) < 1e-14
        assert abs(t.SpectralField(g, f.spec).mean - 2.5) < 1e-14


class TestDerivative:
    def test_eigenfunction(self):
        for L in (2.0 * np.pi, 3.0):
            g = t.Grid(32, length=L)
            f = sin_field(g)
            X, _ = coords(g)
            expected = (2 * np.pi / L) * np.cos(2 * np.pi * X / L)
            assert_allclose(t.derivative(f, "x").phys, expected, atol=1e-12)
            assert abs(t.derivative(f, "x").mean) < 1e-14

    def test_constant(self):
        g = t.Grid(16)
        f = t.SpectralField.from_phys(g, np.full((16, 16), 4.0))
        assert t.norm(t.derivative(f, "x"), "L2") < 1e-13

    def test_bad_axis(self):
        g = t.Grid(16)
        with pytest.raises(BadParams):
            t.derivative(t.SpectralField.zeros(g), "z")

    def test_fd4_oracle(self):
        # 4th-order central differences on the same samples, error O(h^4)
        errs = []
        for n in (64, 128):
            th = band_state(n=n, seed=3, lo=1, hi=6).theta
            h = th.grid.spacing
            p = th.phys
            fd = (-np.roll(p, -2, 0) + 8 * np.roll(p, -1, 0) - 8 * np.roll(p, 1, 0) + np.roll(p, 2, 0)) / (12 * h)
            errs.append(np.max(np.abs(t.derivative(th, "x").phys - fd)))
        assert errs[0] / errs[1] > 8.0  # at least something like h^3..h^4
        assert errs[1] < 1e-4

    def test_mixed_partials_commute(self):
        f = band_state(n=32, seed=4).theta
        a = t.derivative(t.derivative(f, "x"), "y").spec
        b = t.derivative(t.derivative(f, "y"), "x").spec
        assert np.array_equal(a, b)


class TestInverseLaplacian:
    def test_eigenfunction(self):
        L = 3.0
        g = t.Grid(32, length=L)
        f = sin_field(g)
        out = t.inv_neg_laplacian(f)
        assert_allclose(out.phys, (L / (2 * np.pi)) ** 2 * f.phys, atol=1e-12)

    def test_zero(self):
        g = t.Grid(16)
        assert t.norm(t.inv_neg_laplacian(t.SpectralField.zeros(g)), "L2") == 0.0

    def test_forward_check(self):
        f = band_state(n=64, seed=5).theta
        g = t.inv_neg_laplacian(f)
        assert rel_l2(-1.0 * t.laplacian(g), f) < 1e-12
        assert abs(g.mean) < 1e-14

    def test_nonzero_mean_rejected(self):
        g = t.Grid(16)
        f = t.SpectralField.from_phys(g, np.ones((16, 16)))
        with pytest.raises(NonZeroMean):
            t.inv_neg_laplacian(f)


class TestGradInvNegLaplacian:
    def test_single_mode(self):
        L = 2.0 * np.pi
        g = t.Grid(32, length=L)
        theta = sin_field(g)
        phi = t.grad_inv_neg_laplacian(theta)
        X, _ = coords(g)
        assert_allclose(phi.x.phys, np.cos(X), atol=1e-12)
        assert t.norm(phi.y, "L2") < 1e-13

    def test_zero(self):
        g = t.Grid(16)
        phi = t.grad_inv_neg_laplacian(t.SpectralField.zeros(g))
        assert t.norm(phi, "L2") == 0.0

    def test_divergence_recovers_negated_input(self):
        # div(grad((-lap)^{-1} theta)) = lap((-lap)^{-1} theta) = -theta
        theta = band_state(n=64, seed=6).theta
        phi = t.grad_inv_neg_laplacian(theta)
        assert rel_l2(t.div(phi), -1.0 * theta) < 1e-12


class TestRieszDouble:
    def test_single_mode_multiplier(self):
        g = t.Grid(64)
        f = sin_field(g, kx=1, ky=0)
        assert rel_l2(t.riesz_double("x", "x", f), -1.0 * f) < 1e-12

    def test_symmetry(self):
        f = band_state(n=32, seed=7).theta
        a = t.riesz_double("x", "y", f).spec
        b = t.riesz_double("y", "x", f).spec
        assert np.array_equal(a, b)

    def test_trace_identity(self):
        # on every mean-zero field: the block holds no Nyquist mode, so
        # also on one built from grid samples with content at every mode
        g = t.Grid(64)
        x = np.random.default_rng(8).standard_normal((64, 64))
        for f in (band_state(n=64, seed=8).theta, t.SpectralField.from_phys(g, x - x.mean())):
            total = t.riesz_double("x", "x", f) + t.riesz_double("y", "y", f)
            assert rel_l2(total, -1.0 * f) < 1e-12

    def test_annihilates_mean(self):
        g = t.Grid(16)
        f = t.SpectralField.from_phys(g, np.full((16, 16), 3.0))
        assert t.norm(t.riesz_double("x", "x", f), "L2") < 1e-13


class TestLerayProjection:
    def test_annihilates_gradients(self):
        f = band_state(n=32, seed=9).theta
        p = t.leray_project(t.grad(f))
        assert t.norm(p, "L2") < 1e-12 * max(t.norm(t.grad(f), "L2"), 1.0)

    def test_fixed_point_on_solenoidal(self):
        u = band_state(n=32, seed=10).u
        assert rel_l2(t.leray_project(u), u) < 1e-12

    def test_divergence_free_output(self):
        s = band_state(n=64, seed=11)
        a = t.VectorField(s.theta, s.v.x)  # generic, not solenoidal
        p = t.leray_project(a)
        assert t.norm(t.div(p), "L2") < 1e-12 * t.norm(a, "H1")

    def test_idempotent(self):
        s = band_state(n=32, seed=12)
        a = t.VectorField(s.v.x, s.theta)
        once = t.leray_project(a)
        twice = t.leray_project(once)
        assert rel_l2(twice, once) < 1e-13

    def test_self_adjoint(self):
        sa = band_state(n=32, seed=13)
        sb = band_state(n=32, seed=14)
        a = t.VectorField(sa.v.x, sa.theta)
        b = t.VectorField(sb.v.x, sb.theta)
        lhs = t.inner(t.leray_project(a), b)
        rhs = t.inner(a, t.leray_project(b))
        assert abs(lhs - rhs) < 1e-12 * t.norm(a, "L2") * t.norm(b, "L2")

    def test_preserves_component_means(self):
        g = t.Grid(16)
        ax = t.SpectralField.from_phys(g, 1.5 + np.zeros((16, 16)))
        ay = t.SpectralField.from_phys(g, -0.5 + np.zeros((16, 16)))
        p = t.leray_project(t.VectorField(ax, ay))
        assert abs(p.x.mean - 1.5) < 1e-14
        assert abs(p.y.mean + 0.5) < 1e-14


class TestDealias:
    """The two-thirds rule: a field lives on the block of modes with
    max(|k1|, |k2|) <= n/3, so a field built from grid samples keeps every
    mode of the block and drops every other, as a product does."""

    def test_low_mode_unchanged(self):
        g = t.Grid(64)
        f = sin_field(g, kx=1, ky=0)
        assert f.spec.shape == g.spec_shape
        assert_allclose(f.phys, np.sin(coords(g)[0]), atol=1e-14)

    def test_high_mode_zeroed(self):
        g = t.Grid(64)
        f = sin_field(g, kx=30, ky=0)  # 30 > 64/3
        assert t.norm(f, "L2") < 1e-13
        # sin^2 = (1 - cos(2 k x)) / 2: the product keeps its mean and drops (30, 0)
        assert_allclose(multiply(sin_field(g, kx=15), sin_field(g, kx=15)).phys, 0.5, atol=1e-14)

    def test_idempotent_bit_exact(self):
        # the block's grid samples hold nothing past it: a round trip moves
        # no mode by more than roundoff, and a second one moves nothing more
        f = band_state(n=32, seed=15).theta
        once = t.SpectralField.from_phys(f.grid, f.phys)
        twice = t.SpectralField.from_phys(f.grid, once.phys)
        assert rel_l2(once, f) < 1e-14
        assert np.max(np.abs(twice.spec - once.spec)) <= 1e-14 * np.max(np.abs(once.spec))

    def test_cutoff_boundary(self):
        g = t.Grid(64)  # cutoff keeps max |k| <= 21
        keep = sin_field(g, kx=21, ky=0)
        drop = sin_field(g, kx=22, ky=0)
        assert abs(t.norm(keep, "L2") - np.sqrt(2.0) * np.pi) < 1e-12
        assert t.norm(drop, "L2") < 1e-13
        assert np.max(np.abs(g.kx_int)) == np.max(g.ky_int) == 21


class TestVectorFields:
    """A vector field is a SpectralField whose spectrum stacks its x and y
    spectra, and an operator applied to it is, bit for bit, the stack of that
    operator applied to each component."""

    @pytest.mark.parametrize("op", ["derivative_x", "derivative_y", "laplacian", "smoothing_inverse", "advect",
                                    "multiply"])
    def test_operator_acts_on_each_component(self, op):
        s = band_state(n=32, seed=21)
        apply = {
            "derivative_x": lambda f: t.derivative(f, "x"),
            "derivative_y": lambda f: t.derivative(f, "y"),
            "laplacian": t.laplacian,
            "smoothing_inverse": t.smoothing_inverse,
            "advect": lambda f: t.advect(s.u, f),
            "multiply": lambda f: multiply(s.theta, f),  # scalar x vector
        }[op]
        got = apply(s.v).spec
        assert got.shape == (2, 21, 11)
        assert np.array_equal(got, np.stack([apply(c).spec for c in s.v]))

    def test_grad_stacks_the_two_derivatives(self):
        th = band_state(n=32, seed=22).theta
        assert np.array_equal(t.grad(th).spec, np.stack([t.derivative(th, a).spec for a in "xy"]))

    def test_components_are_views_of_the_stack(self):
        s = band_state(n=32, seed=23)
        v = t.VectorField(s.theta, s.v.y)
        assert isinstance(v, t.SpectralField) and v.spec.shape == (2, 21, 11)
        x, y = v
        for c, i in ((v.x, 0), (v.y, 1), (x, 0), (y, 1)):
            assert c.spec.base is v.spec and np.array_equal(c.spec, v.spec[i])
        assert np.array_equal(x.spec, s.theta.spec)

    @pytest.mark.parametrize("access", [lambda f: f.x, lambda f: f.y, list], ids=["x", "y", "iteration"])
    def test_scalar_has_no_components(self, access):
        with pytest.raises(BadParams, match="no x and y components"):
            access(band_state(n=16, seed=24).theta)

    @pytest.mark.parametrize("op", [operator.add, operator.sub], ids=["add", "sub"])
    def test_scalar_and_vector_do_not_add(self, op):
        s = band_state(n=16, seed=25)
        for a, b in ((s.theta, s.v), (s.v, s.theta)):
            with pytest.raises(BadParams, match="do not add"):
                op(a, b)

    def test_components_must_be_scalars_on_one_grid(self):
        s = band_state(n=16, seed=26)
        other = t.SpectralField.zeros(t.Grid(16, length=1.0))
        for x, y in ((s.v, s.theta), (s.theta, other)):
            with pytest.raises(BadParams):
                t.VectorField(x, y)


class TestGridConsistency:
    """The output of every public operator is the block spectrum of a real
    grid field, so a round trip through the grid leaves it unchanged, also
    for input built from grid samples with content at every mode, the
    Nyquist lines included, which building it drops off the block."""

    @staticmethod
    def moved(f, by):
        # largest coefficient change, relative to the largest coefficient
        return np.max(np.abs(by - f.spec)) / np.max(np.abs(f.spec))

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(4, 16).map(lambda h: 2 * h), seed=st.integers(0, 2**32 - 1))
    def test_outputs_survive_grid_roundtrip(self, n, seed):
        g = t.Grid(n)
        rng = np.random.default_rng(seed)
        a, b = (t.SpectralField.from_phys(g, x - x.mean()) for x in rng.standard_normal((2, n, n)))
        outputs = [
            t.derivative(a, "x"),
            t.derivative(a, "y"),
            *t.grad(a),
            t.div(t.VectorField(a, b)),
            t.laplacian(a),
            t.inv_neg_laplacian(a),
            *t.grad_inv_neg_laplacian(a),
            *(t.riesz_double(i, j, a) for i in "xy" for j in "xy"),
            *t.leray_project(t.VectorField(a, b)),
            t.smoothing_inverse(a),
            multiply(a, b),
        ]
        for i, f in enumerate(outputs):
            assert f.spec.shape[-2:] == g.spec_shape
            assert self.moved(f, t.SpectralField.from_phys(g, f.phys).spec) < 1e-12, i

        # the projection stays idempotent through the grid
        p = t.leray_project(t.VectorField(a, b))
        again = t.leray_project(t.VectorField(*(t.SpectralField.from_phys(g, c.phys) for c in p)))
        for c, d in zip(p, again):
            assert self.moved(c, d.spec) < 1e-12


class TestNorms:
    def test_constant_l2(self):
        for L in (2.0 * np.pi, 1.5):
            g = t.Grid(16, length=L)
            f = t.SpectralField.from_phys(g, np.full((16, 16), -3.0))
            assert abs(t.norm(f, "L2") - 3.0 * L) < 1e-12

    def test_sine_l2(self):
        g = t.Grid(32)
        f = sin_field(g)
        assert abs(t.norm(f, "L2") - np.sqrt(2.0) * np.pi) < 1e-12

    def test_parseval(self):
        f = band_state(n=64, seed=16).theta
        g = f.grid
        phys_quad = np.sqrt(np.sum(f.phys**2) * (g.length / g.n) ** 2)
        assert abs(t.norm(f, "L2") - phys_quad) < 1e-12 * phys_quad

    def test_l4_oversampled_quadrature_oracle(self):
        f = band_state(n=64, seed=17, lo=1, hi=10).theta
        g = f.grid
        factor = 4
        m = factor * g.n
        shifted = np.fft.fftshift(np.fft.fft2(f.phys))
        big = np.zeros((m, m), dtype=complex)
        lo = (m - g.n) // 2
        big[lo : lo + g.n, lo : lo + g.n] = shifted
        fine = np.fft.ifft2(np.fft.ifftshift(big) * factor**2).real
        oracle = (np.sum(fine**4) * (g.length / m) ** 2) ** 0.25
        assert abs(t.norm(f, "L4") - oracle) < 1e-8 * oracle

    def test_h_norms(self):
        f = band_state(n=32, seed=18).theta
        h1 = np.sqrt(t.norm(f, "L2") ** 2 + t.norm(t.grad(f), "L2") ** 2)
        assert abs(t.norm(f, "H1") - h1) < 1e-12 * h1

    def test_vector_sums_component_squares(self):
        s = band_state(n=32, seed=19)
        v = s.v
        expect = np.hypot(t.norm(v.x, "L2"), t.norm(v.y, "L2"))
        assert abs(t.norm(v, "L2") - expect) < 1e-13

    def test_unknown_kind(self):
        g = t.Grid(16)
        for kind in ("L3", "H2"):
            with pytest.raises(BadParams):
                t.norm(t.SpectralField.zeros(g), kind)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_seminorm_is_its_parseval_sum(self, order):
        # the reference the record's tests compare against, written out by
        # hand; it builds its own weights and does not read Grid.weights
        f = band_state(n=32, seed=20).theta
        g = f.grid
        w = g.herm_weight * g.k2**order
        want = float(g.length / g.n**2 * np.sqrt(np.sum(w * np.abs(f.spec) ** 2)))
        assert t.seminorm(f, order) == want
        assert "weights" not in vars(g)

    def test_record_weights_built_once(self):
        s = band_state(n=32, seed=20)
        g = s.grid
        model._stepper.cache_clear()  # a record reads the weights of its stepper's grid
        t.make_record(s)
        w = vars(g)["weights"]
        for _ in range(2):
            s = t.imex_step(s, 1e-3)
            t.make_record(s)
        assert g.weights is w
        assert w.shape == (5, *g.spec_shape)
        for j in range(4):
            assert np.array_equal(w[j], g.herm_weight * g.k2**j)
        band = np.maximum(np.abs(g.kx_int), np.abs(g.ky_int))
        assert np.array_equal(w[4], g.herm_weight * (9 * band > 2 * g.n))

    def test_tail_band_threshold_is_exact(self):
        # the float threshold of Grid.weights selects the modes of the exact
        # integer rule 9 max(|k1|, |k2|) > 2 n at every size the grid allows
        for n in range(8, N_MAX + 1, 2):
            band = np.arange(n // 3 + 1)
            assert np.array_equal(band > 2.0 / 3.0 * (n / 3.0), 9 * band > 2 * n), n
        for n in (8, 16, 98, 206):
            g = t.Grid(n)
            band = np.maximum(np.abs(g.kx_int), np.abs(g.ky_int))
            assert np.array_equal(g.weights[4] > 0, np.broadcast_to(9 * band > 2 * n, g.spec_shape)), n


class TestSmoothingInverse:
    def test_constant_preserved(self):
        g = t.Grid(16)
        f = t.SpectralField.from_phys(g, np.full((16, 16), 7.0))
        assert_allclose(t.smoothing_inverse(f).phys, f.phys, atol=1e-12)

    def test_single_mode_halved(self):
        g = t.Grid(32)
        f = sin_field(g)
        assert_allclose(t.smoothing_inverse(f).phys, 0.5 * f.phys, atol=1e-12)

    def test_forward_check_and_contraction(self):
        f = band_state(n=64, seed=20).theta
        out = t.smoothing_inverse(f)
        recon = out - t.laplacian(out)
        assert rel_l2(recon, f) < 1e-12
        assert t.norm(out, "L2") <= t.norm(f, "L2")
