import collections
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import tcm2d as t
from tcm2d import model, storage
from tcm2d.diagnostics import PERTURBATION_SHAPES, _perturbation
from tcm2d.config import parse_config_text, render_config
from tcm2d.errors import BadParams, CflViolation, ConfigParseError, NonFiniteState
from tcm2d.model import _stepper
from tcm2d.spectral import _irfft2, _project, _rfft2, kept_block, multiply

from conftest import band_state, coords, off_block_fields, rel_l2, with_nan


def explicit(s):
    """The fused explicit tendency of state s, as fields (nu, nv, ntheta),
    with nu projected as the step projects each stage result: minus the
    terms that the stage writes over a copy of the state's block, as the
    second stage writes over its input; dt does not enter the stage."""
    st = _stepper(s.grid)
    y = s.spec.copy()
    y = -st.explicit(y, False, y)
    _project(s.grid, y[:2], st.c)
    f = [t.SpectralField(s.grid, spec=c) for c in y]
    return t.VectorField(f[0], f[1]), t.VectorField(f[2], f[3]), f[4]


def public_tendency(s):
    """The same tendency in advective form, term by term from the public
    operators. Under the two-thirds mask the products carry no aliasing
    error, so the step's divergence and rotational form must match it to
    roundoff."""
    v = s.v
    vxx, vxy, vyy = multiply(v.x, v.x), multiply(v.x, v.y), multiply(v.y, v.y)
    div_vv = t.VectorField(t.div(t.VectorField(vxx, vxy)), t.div(t.VectorField(vxy, vyy)))
    return (
        t.leray_project(-1.0 * (t.advect(s.u, s.u) + div_vv)),
        -1.0 * (t.advect(s.u, v) + t.grad(s.theta) + t.advect(v, s.u)),
        -1.0 * (t.advect(s.u, s.theta) + t.div(v)),
    )


def reference_step(s, dt):
    """The IMEX predictor/corrector rebuilt field by field from the public
    operators and the advective tendency."""
    g = s.grid

    def trapezoid(x, n, lam):
        return t.SpectralField(g, spec=((1.0 + 0.5 * dt * lam) * x.spec + dt * n.spec) / (1.0 - 0.5 * dt * lam))

    def update(n):
        u = t.VectorField(*(trapezoid(a, b, -g.k2) for a, b in zip(s.u, n[0])))
        v = t.VectorField(*(trapezoid(a, b, -g.k2) for a, b in zip(s.v, n[1])))
        theta = trapezoid(s.theta, n[2], -s.eps * g.k2)
        return t.State.from_fields(t.leray_project(u), v, theta, s.t + dt, s.eps)

    n0 = public_tendency(s)
    n1 = public_tendency(update(n0))
    return update([0.5 * (a + b) for a, b in zip(n0, n1)])


def tg_config(**kw):
    base = dict(n=32, dt=2e-3, horizon=0.1, preset="taylor_green", diag_stride=10, snap_stride=50)
    base.update(kw)
    return t.SimConfig(**base)


class TestMakeInitial:
    def test_taylor_green_divergence_free(self):
        s = t.make_initial(tg_config())
        X, Y = coords(s.grid)
        assert_allclose(s.u.x.phys, np.sin(X) * np.cos(Y), atol=1e-12)
        assert_allclose(s.u.y.phys, -np.cos(X) * np.sin(Y), atol=1e-12)
        assert t.norm(t.div(s.u), "L2") < 1e-12
        assert t.norm(s.v, "L2") == 0.0 and t.norm(s.theta, "L2") == 0.0

    def test_single_mode_zero_amplitude(self):
        cfg = t.SimConfig(n=16, dt=1e-3, horizon=0.0, preset="single_mode", amplitude=0.0)
        s = t.make_initial(cfg)
        for f in (s.u.x, s.u.y, s.v.x, s.v.y, s.theta):
            assert t.norm(f, "L2") == 0.0

    def test_single_mode_mean_zero(self):
        cfg = t.SimConfig(n=32, dt=1e-3, horizon=0.0, preset="single_mode", amplitude=2.0, mode_x=2, mode_y=1)
        s = t.make_initial(cfg)
        assert abs(s.theta.mean) < 1e-14
        assert abs(t.norm(s.theta, "Linf") - 2.0) < 1e-10

    @pytest.mark.parametrize("mode", [(3, 2), (3, -2), (-3, 0), (0, 5), (-2, 7)])
    def test_single_mode_samples(self, mode):
        cfg = t.SimConfig(n=32, dt=1e-3, horizon=0.0, preset="single_mode", amplitude=1.5,
                          mode_x=mode[0], mode_y=mode[1])
        s = t.make_initial(cfg)
        X, Y = coords(s.grid)
        assert_allclose(s.theta.phys, 1.5 * np.sin(mode[0] * X + mode[1] * Y), atol=1e-13)

    @pytest.mark.parametrize("preset", ["taylor_green", "single_mode", "random_band"])
    def test_presets_hold_no_modes_outside_the_mask(self, preset, monkeypatch):
        # written straight into the block, up to the largest band or mode
        # the config rule lets through, 32 // 3: the fields a preset builds
        # its state from are block spectra, and so are a twin's perturbed
        # fields, with their content where the preset put it
        cfg = t.SimConfig(n=32, dt=1e-3, horizon=0.0, preset=preset, eps=0.1, mode_x=10, mode_y=-10, band_hi=10)
        built, from_fields = [], t.State.from_fields
        monkeypatch.setattr(t.State, "from_fields", lambda *f, **kw: built.append(f[:3]) or from_fields(*f, **kw))
        s = t.make_initial(cfg)
        (fields,) = built
        for shape in PERTURBATION_SHAPES:
            pu, pv, pth = _perturbation(cfg, shape)
            fields += (t.leray_project(s.u + pu), s.v + pv, s.theta + pth)
        assert len(fields) == 3 + 3 * len(PERTURBATION_SHAPES)
        for f in fields:
            assert f.spec.shape[-2:] == s.grid.spec_shape
            # the spectrum of a real field: a round trip through the grid moves
            # it by roundoff only (a column 0 not its own conjugate would move)
            back = np.stack([t.SpectralField.from_phys(s.grid, x).spec for x in f.phys.reshape(-1, 32, 32)])
            assert np.max(np.abs(back - f.spec.reshape(back.shape))) <= 1e-12 * max(np.max(np.abs(f.spec)), 1.0)

    def test_single_mode_rejects_unresolved(self):
        with pytest.raises(BadParams):
            t.SimConfig(n=16, dt=1e-3, horizon=0.0, preset="single_mode", mode_x=8, mode_y=0)
        # past 16 // 3, off the two-thirds block
        with pytest.raises(BadParams, match=r"\|k\| <= 5 for n=16"):
            t.SimConfig(n=16, dt=1e-3, horizon=0.0, preset="single_mode", mode_x=0, mode_y=-6)
        t.SimConfig(n=16, dt=1e-3, horizon=0.0, preset="single_mode", mode_x=0, mode_y=-5)

    def test_random_band_deterministic(self):
        a = band_state(n=32, seed=5)
        b = band_state(n=32, seed=5)
        assert np.array_equal(a.theta.phys, b.theta.phys)
        assert np.array_equal(a.u.x.phys, b.u.x.phys)
        assert np.array_equal(a.v.y.phys, b.v.y.phys)

    def test_random_band_amplitudes_and_structure(self):
        s = band_state(n=64, seed=6, u_amp=2.0, v_amp=0.25, theta_amp=1.5)
        assert abs(t.norm(s.u, "L2") - 2.0) < 1e-12
        assert abs(t.norm(s.v, "L2") - 0.25) < 1e-12
        assert abs(t.norm(s.theta, "L2") - 1.5) < 1e-12
        assert t.norm(t.div(s.u), "L2") < 1e-12
        assert abs(s.theta.mean) < 1e-14

    def test_random_band_rejects_bad_band(self):
        with pytest.raises(BadParams):
            t.SimConfig(n=16, dt=1e-3, horizon=0.0, preset="random_band", band_lo=1, band_hi=8)
        with pytest.raises(BadParams, match=r"\|k\| <= 5 for n=16"):
            t.SimConfig(n=16, dt=1e-3, horizon=0.0, preset="random_band", band_lo=1, band_hi=6)
        t.SimConfig(n=16, dt=1e-3, horizon=0.0, preset="random_band", band_lo=1, band_hi=5)

    def test_random_band_grid_independent_function(self):
        # same seed yields the same continuum function at any resolution
        a = band_state(n=32, seed=7)
        b = band_state(n=64, seed=7)

        def coeff(s, k1, k2):
            # the block holds mode (k1, k2 < 0) as the conjugate of (-k1, -k2),
            # with its r rows in fftfreq order
            r = len(s.theta.spec)
            c = s.theta.spec[k1 % r, k2] if k2 >= 0 else np.conj(s.theta.spec[-k1 % r, -k2])
            return c / s.grid.n**2

        for k1, k2 in ((1, 2), (3, 0), (2, -3)):
            ca, cb = coeff(a, k1, k2), coeff(b, k1, k2)
            assert abs(ca - cb) < 1e-12 * max(abs(ca), 1e-30)


class TestConfigValidation:
    def test_eps_range(self):
        with pytest.raises(BadParams):
            t.SimConfig(n=16, dt=1e-3, horizon=0.1, eps=0.7)
        with pytest.raises(BadParams):
            t.SimConfig(n=16, dt=1e-3, horizon=0.1, eps=-0.1)

    def test_steps_and_strides(self):
        with pytest.raises(BadParams):
            t.SimConfig(n=16, dt=0.0, horizon=0.1)
        with pytest.raises(BadParams):
            t.SimConfig(n=16, dt=1e-3, horizon=-1.0)
        with pytest.raises(BadParams):
            t.SimConfig(n=16, dt=1e-3, horizon=0.1, diag_stride=0)
        with pytest.raises(BadParams):
            t.SimConfig(n=16, dt=1e-3, horizon=0.0501)

    def test_dealias_must_be_true(self):
        # the key stays so that every earlier config parses, but no SimConfig
        # field holds it
        text = "[grid]\nn = 16\n\n[time]\ndt = 0.001\nhorizon = 0.1\n\n[model]\ndealias = {}\n"
        assert parse_config_text(text.format("true")) == t.SimConfig(n=16, dt=1e-3, horizon=0.1)
        with pytest.raises(ConfigParseError, match="dealias = False: products are always two-thirds dealiased"):
            parse_config_text(text.format("false"))
        assert "dealias" not in {f.name for f in fields(t.SimConfig)}

    @pytest.mark.parametrize("field, value", [("diag_stride", 2.5), ("mode_x", 1.0), ("seed", 1.5), ("n", 16.0),
                                              ("snap_stride", True), ("band_hi", np.float64(4.0)), ("mode_y", "0")])
    def test_integer_fields_take_integers(self, field, value):
        # unrefused, a float runs with a wrong record count or fails in
        # make_initial with a bare IndexError or TypeError, a bool runs as 1,
        # and neither renders as a config that parses
        preset = {"mode_x": "single_mode", "mode_y": "single_mode", "seed": "random_band",
                  "band_hi": "random_band"}.get(field, "taylor_green")
        with pytest.raises(BadParams, match=f"{field} must be an integer"):
            t.SimConfig(**{"n": 16, "dt": 0.01, "horizon": 0.1, "preset": preset, field: value})

    def test_integer_fields_take_numpy_integers(self):
        cfg = t.SimConfig(n=np.int64(16), dt=0.01, horizon=0.1, preset="random_band", seed=np.uint32(7),
                          diag_stride=np.int32(2), band_hi=np.int16(4))
        assert cfg == t.SimConfig(n=16, dt=0.01, horizon=0.1, preset="random_band", seed=7, diag_stride=2, band_hi=4)
        assert parse_config_text(render_config(cfg)) == cfg

    @pytest.mark.parametrize("field", ["horizon", "u_amp", "dt"])
    def test_non_finite_values(self, field):
        value = np.inf if field == "dt" else np.nan
        with pytest.raises(BadParams, match=field):
            t.SimConfig(**{"n": 16, "dt": 1e-3, "horizon": 0.1, field: value})


class TestRhs:
    """The explicit part of the right-hand side (everything but the implicit
    Laplacians), as the integrator evaluates it at each stage."""

    def test_zero_state(self):
        g = t.Grid(16)
        zero = t.SpectralField.zeros(g)
        s = t.State.from_fields(t.VectorField(zero, zero), t.VectorField(zero, zero), zero, 0.0, 0.1)
        nu, nv, nth = explicit(s)
        assert t.norm(nu, "L2") == 0.0
        assert t.norm(nv, "L2") == 0.0
        assert t.norm(nth, "L2") == 0.0

    def test_linear_terms_only(self):
        g = t.Grid(32)
        X, _ = coords(g)
        zero = t.SpectralField.zeros(g)
        theta = t.SpectralField.from_phys(g, np.sin(X))
        s = t.State.from_fields(t.VectorField(zero, zero), t.VectorField(zero, zero), theta, 0.0, 0.3)
        nu, nv, nth = explicit(s)
        assert_allclose(nv.x.phys, -np.cos(X), atol=1e-12)
        assert t.norm(nv.y, "L2") < 1e-13
        # eps * lap(theta) is implicit, so no explicit temperature tendency
        assert t.norm(nth, "L2") < 1e-13
        assert t.norm(nu, "L2") < 1e-13

    def test_tendency_divergence_free(self):
        s = band_state(n=32, seed=8)
        nu, _, _ = explicit(s)
        assert t.norm(t.div(nu), "L2") < 1e-12 * max(t.norm(nu, "L2"), 1.0)

    def test_direct_summation_oracle(self):
        # low-mode closed-form state; every quadratic term recomputed by
        # explicit loops from the analytic derivative formulas (no FFT)
        n = 32
        g = t.Grid(n)
        h = g.spacing

        u1f = lambda x, y: -np.cos(2 * x + y)
        u2f = lambda x, y: 2 * np.cos(2 * x + y)
        v1f = lambda x, y: np.sin(x + y)
        v2f = lambda x, y: np.cos(2 * x)
        thf = lambda x, y: np.sin(x) * np.sin(y)

        d = {
            "u1x": lambda x, y: 2 * np.sin(2 * x + y),
            "u1y": lambda x, y: np.sin(2 * x + y),
            "u2x": lambda x, y: -4 * np.sin(2 * x + y),
            "u2y": lambda x, y: -2 * np.sin(2 * x + y),
            "v1x": lambda x, y: np.cos(x + y),
            "v1y": lambda x, y: np.cos(x + y),
            "v2x": lambda x, y: -2 * np.sin(2 * x),
            "v2y": lambda x, y: 0.0,
            "thx": lambda x, y: np.cos(x) * np.sin(y),
            "thy": lambda x, y: np.sin(x) * np.cos(y),
        }

        adv_uu = np.zeros((n, n, 2))
        div_vv = np.zeros((n, n, 2))
        adv_uv = np.zeros((n, n, 2))
        adv_vu = np.zeros((n, n, 2))
        adv_uth = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                x, y = i * h, j * h
                u1, u2, v1, v2 = u1f(x, y), u2f(x, y), v1f(x, y), v2f(x, y)
                adv_uu[i, j, 0] = u1 * d["u1x"](x, y) + u2 * d["u1y"](x, y)
                adv_uu[i, j, 1] = u1 * d["u2x"](x, y) + u2 * d["u2y"](x, y)
                div_vv[i, j, 0] = (
                    v1 * d["v1x"](x, y) + v1 * d["v1x"](x, y) + v2 * d["v1y"](x, y) + v1 * d["v2y"](x, y)
                )
                div_vv[i, j, 1] = (
                    v1 * d["v2x"](x, y) + v2 * d["v1x"](x, y) + v2 * d["v2y"](x, y) + v2 * d["v2y"](x, y)
                )
                adv_uv[i, j, 0] = u1 * d["v1x"](x, y) + u2 * d["v1y"](x, y)
                adv_uv[i, j, 1] = u1 * d["v2x"](x, y) + u2 * d["v2y"](x, y)
                adv_vu[i, j, 0] = v1 * d["u1x"](x, y) + v2 * d["u1y"](x, y)
                adv_vu[i, j, 1] = v1 * d["u2x"](x, y) + v2 * d["u2y"](x, y)
                adv_uth[i, j] = u1 * d["thx"](x, y) + u2 * d["thy"](x, y)

        X, Y = coords(g)
        u = t.VectorField(t.SpectralField.from_phys(g, u1f(X, Y)), t.SpectralField.from_phys(g, u2f(X, Y)))
        v = t.VectorField(t.SpectralField.from_phys(g, v1f(X, Y)), t.SpectralField.from_phys(g, v2f(X, Y)))

        # the bands are far inside the mask
        got = t.advect(u, u)
        assert np.max(np.abs(got.x.phys - adv_uu[:, :, 0])) < 1e-8
        assert np.max(np.abs(got.y.phys - adv_uu[:, :, 1])) < 1e-8
        got = t.advect(u, v)
        assert np.max(np.abs(got.x.phys - adv_uv[:, :, 0])) < 1e-8
        assert np.max(np.abs(got.y.phys - adv_uv[:, :, 1])) < 1e-8
        got = t.advect(v, u)
        assert np.max(np.abs(got.x.phys - adv_vu[:, :, 0])) < 1e-8
        assert np.max(np.abs(got.y.phys - adv_vu[:, :, 1])) < 1e-8
        th = t.SpectralField.from_phys(g, thf(X, Y))
        got = t.advect(u, th)
        assert np.max(np.abs(got.phys - adv_uth)) < 1e-8

        # the fused stage: div(v (x) v) through the projected u tendency
        s = t.State.from_fields(u, v, th, 0.0, 0.1)
        nu, nv, nth = explicit(s)
        rhs_u = t.VectorField(*(t.SpectralField.from_phys(g, -adv_uu[:, :, i] - div_vv[:, :, i]) for i in (0, 1)))
        want = t.leray_project(rhs_u)
        assert np.max(np.abs(nu.x.phys - want.x.phys)) < 1e-8
        assert np.max(np.abs(nu.y.phys - want.y.phys)) < 1e-8
        grad_th = (d["thx"](X, Y), d["thy"](X, Y))
        for i in (0, 1):
            want = -(adv_uv[:, :, i] + grad_th[i] + adv_vu[:, :, i])
            assert np.max(np.abs((nv.x, nv.y)[i].phys - want)) < 1e-8
        div_v = d["v1x"](X, Y) + d["v2y"](X, Y)
        assert np.max(np.abs(nth.phys + adv_uth + div_v)) < 1e-8

    def test_fused_stage_matches_public_operators(self):
        # the band's products run past the n/3 mask edge, so the mask acts
        s = band_state(n=32, seed=22, hi=10)
        for got, ref in zip(explicit(s), public_tendency(s)):
            assert rel_l2(got, ref) < 1e-12


class TestImexStep:
    def test_zero_state_advances_time(self):
        g = t.Grid(16)
        zero = t.SpectralField.zeros(g)
        s = t.State.from_fields(t.VectorField(zero, zero), t.VectorField(zero, zero), zero, 1.0, 0.0)
        out = t.imex_step(s, 0.25)
        assert out.t == 1.25
        assert t.norm(out.u, "L2") == 0.0 and t.norm(out.theta, "L2") == 0.0

    def test_deterministic(self):
        s = band_state(n=32, seed=9)
        a = t.imex_step(s, 1e-3)
        b = t.imex_step(s, 1e-3)
        assert np.array_equal(a.u.x.spec, b.u.x.spec)
        assert np.array_equal(a.theta.spec, b.theta.spec)

    def test_cfl_guard(self):
        s = band_state(n=32, seed=10, u_amp=1.0)
        with pytest.raises(CflViolation) as info:
            t.imex_step(s, 1.0)
        assert info.value.ratio > info.value.limit
        assert info.value.t == 0.0 and info.value.step is None  # step is set only inside a run

    def test_nan_velocity_raises_at_first_step(self):
        for where, field in (("u_x", "u"), ("v_x", "v")):
            s = with_nan(band_state(n=32, seed=10), where)
            with pytest.raises(NonFiniteState) as info:
                t.imex_step(s, 1e-3)
            assert info.value.t == 0.0 and info.value.field == field and info.value.step is None

    def test_nan_theta_raises_within_two_steps(self):
        # the guard transforms theta with u and v, so the first step sees it
        s = with_nan(band_state(n=32, seed=10), "theta")
        with pytest.raises(NonFiniteState) as info:
            t.imex_step(s, 1e-3)
        assert info.value.t == 0.0 and info.value.field == "theta"

    def test_multi_step_matches_public_operators(self):
        s = ref = band_state(n=32, seed=23, hi=10)
        for _ in range(5):
            s = t.imex_step(s, 1e-3)
            ref = reference_step(ref, 1e-3)
        for got, want in ((s.u, ref.u), (s.v, ref.v), (s.theta, ref.theta)):
            assert rel_l2(got, want) < 1e-12

    def test_taylor_green_decay_second_order(self):
        T = 0.24
        errs = []
        for dt in (4e-3, 2e-3):
            steps = int(round(T / dt))
            cfg = tg_config(dt=dt, horizon=T, snap_stride=steps, diag_stride=steps)
            s = t.simulate(cfg).snapshots[-1]
            X, Y = coords(s.grid)
            exact = t.VectorField(
                t.SpectralField.from_phys(s.grid, np.exp(-2 * T) * np.sin(X) * np.cos(Y)),
                t.SpectralField.from_phys(s.grid, -np.exp(-2 * T) * np.cos(X) * np.sin(Y)),
            )
            errs.append(t.norm(s.u - exact, "L2"))
        assert 3.5 < errs[0] / errs[1] < 4.5


def spectra(s):
    return (s.u.x.spec, s.u.y.spec, s.v.x.spec, s.v.y.spec, s.theta.spec)


def same_state(a, b):
    return a.t == b.t and all(np.array_equal(x, y) for x, y in zip(spectra(a), spectra(b)))


def half_plane(block, n):
    """The block spectra scattered by hand into the rfft2 half plane, with
    zeros at every other mode."""
    lo, hi, cols = kept_block(n)
    out = np.zeros((*block.shape[:-2], n, n // 2 + 1), dtype=np.complex128)
    out[..., :lo, :cols], out[..., hi:, :cols] = block[..., :lo, :], block[..., lo:, :]
    return out


class TestLayout:
    """A state is its kept block, and its fields are views of it: a field
    built from grid samples drops every mode off the block, as the rule
    drops it from every product."""

    def test_off_block_modes_are_dropped(self):
        s = band_state(n=32, seed=25, hi=10)
        off = t.State.from_fields(*off_block_fields(s, 25), s.t, s.eps)
        scale = np.max(np.abs(s.spec))
        assert np.max(np.abs(off.spec - s.spec)) <= 1e-13 * scale
        stepped = t.imex_step(off, 1e-3).spec - t.imex_step(s, 1e-3).spec
        assert np.max(np.abs(stepped)) <= 1e-13 * scale

    def test_spec_is_read_only(self, tmp_path):
        s = band_state(n=16, seed=26)
        states = [s, t.imex_step(s, 1e-3), t.State.from_fields(s.u, s.v, s.theta, s.t, s.eps)]
        storage.write_state_snapshot(str(tmp_path), s, 0)
        states.append(storage.read_state_snapshot(str(tmp_path), 0))
        for state in states:
            assert not state.spec.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                state.spec[4, 1, 1] = 1.0
            with pytest.raises(FrozenInstanceError):
                state.spec = state.spec.copy()
        # a field read is a view of the block, read-only as it is
        for f in (s.u, s.v, s.theta):
            assert f.spec.base is s.spec and not f.spec.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                f.spec[..., 1, 1] = 1.0

    def test_fields_are_the_block_scattered(self):
        # the fields are the rows of the block, and their grid samples are
        # those of the block scattered into the half plane
        s = band_state(n=32, seed=27, hi=10)
        for k, f in enumerate(spectra(s)):
            assert f.shape == s.grid.spec_shape and np.shares_memory(f, s.spec)
            assert np.array_equal(f, s.spec[k])
        grid = np.stack([c.phys for c in (*s.u, *s.v, s.theta)])
        assert np.array_equal(grid, np.fft.irfft2(half_plane(s.spec, 32), s=(32, 32)))

    def test_state_refuses_a_block_that_is_not_one(self):
        g = t.Grid(16)
        with pytest.raises(BadParams, match=r"\(5, 11, 6\) complex128 block"):
            t.State(g, np.zeros((5, 3, 3), complex), 0.0, 0.0)
        for spec in (np.zeros((5, 16, 9), complex), np.zeros((4, 11, 6), complex), np.zeros((5, 11, 6)),
                     np.zeros((5, 11, 6), np.complex64)):
            with pytest.raises(BadParams):
                t.State(g, spec, 0.0, 0.0)
        assert not t.State(g, np.zeros((5, 11, 6), complex), 0.0, 0.0).spec.flags.writeable


class TestStepCache:
    """imex_step keeps its constants and stage buffers in a one-entry cache;
    none of that may leak into its results."""

    def test_consecutive_results_share_no_memory(self):
        states = [band_state(n=32, seed=30)]
        for _ in range(3):
            states.append(t.imex_step(states[-1], 1e-3))
        st = _stepper(states[0].grid)
        for a, b in zip(states, states[1:]):
            assert not np.shares_memory(a.spec, b.spec)
            assert not any(np.shares_memory(b.spec, x) for x in vars(st).values() if isinstance(x, np.ndarray))

    @staticmethod
    def poison(g):
        # NaN into every array the stepper of g holds: the two transform
        # buffers and their views, and y1; the constant tables belong to the
        # Grid, and the stepper holds no other array
        st = _stepper(g)
        work = [k for k, a in vars(st).items() if isinstance(a, np.ndarray)]
        assert sorted(work) == ["a", "b", "c", "q", "ra", "rb", "y1"]
        assert set(vars(st)) == {"g", *work}
        for k in work:
            getattr(st, k).fill(np.nan)

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_poisoned_buffers_change_nothing(self, n):
        # a step and a record write each held buffer before they read it,
        # which the two buffers' turns rely on: NaN left in any of them by
        # whatever ran before changes no result
        s = band_state(n=n, seed=38)
        for _ in range(3):
            want_record, want = t.make_record(s), t.imex_step(s, 1e-3)
            self.poison(s.grid)
            record = t.make_record(s)
            self.poison(s.grid)
            got = t.imex_step(s, 1e-3)
            assert np.array_equal(record, want_record)
            assert same_state(got, want)
            s = got

    def test_snapshots_survive_the_run(self):
        cfg = t.SimConfig(n=32, dt=1e-3, horizon=6e-3, preset="random_band", eps=0.1, band_hi=4, seed=31)
        snaps = t.simulate(cfg).snapshots
        assert len(snaps) == 7
        # copies, taken before the next step could write over a shared buffer
        stepped = [[x.copy() for x in spectra(t.imex_step(a, cfg.dt))] for a in snaps[:-1]]
        for want, b in zip(stepped, snaps[1:]):
            assert all(np.array_equal(x, y) for x, y in zip(want, spectra(b)))

    def test_interleaved_keys_match_separate_runs(self):
        # every pair of runs differs in one key: eps, dt or grid
        runs = [(band_state(n=32, seed=32, eps=eps, hi=10), dt) for eps, dt in ((0.1, 1e-3), (0.0, 1e-3), (0.1, 2e-3))]
        runs.append((band_state(n=16, seed=32), 1e-3))
        evict = band_state(n=8, seed=32, hi=2)
        separate = []
        for s, dt in runs:
            t.imex_step(evict, 1e-3)  # each run starts with no cached stepper of its own
            for _ in range(3):
                s = t.imex_step(s, dt)
            separate.append(s)
        states = [s for s, _ in runs]
        for _ in range(3):
            states = [t.imex_step(s, dt) for s, (_, dt) in zip(states, runs)]
        for a, b in zip(states, separate):
            assert same_state(a, b)

    def test_sweep_holds_one_stepper(self):
        # the members step in lockstep: one set of buffers for all of them,
        # and each level's factors built once, not at every step
        base = t.SimConfig(n=16, dt=1e-3, horizon=4e-3, preset="random_band", band_hi=3, seed=33)
        _stepper.cache_clear()
        model._factors.cache_clear()
        t.epsilon_sweep(base, (0.2, 0.1, 0.05, 0.0))
        assert _stepper.cache_info().currsize == _stepper.cache_info().misses == 1
        assert model._factors.cache_info().misses == 4

    @staticmethod
    def warm_step_allocation(n):
        s = t.imex_step(band_state(n=n, seed=34), 1e-3)
        s = t.imex_step(s, 1e-3)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            t.imex_step(s, 1e-3)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_warm_step_allocates_little(self):
        # the stage buffers are reused and no stage array is fresh: a warm
        # step allocates its result, the block (0.076 MB at n = 64), and
        # small temporaries (0.138 MB measured in all; 0.27 MB while the
        # result was a half plane, 0.64 MB while each stage's grid fields
        # were fresh)
        assert self.warm_step_allocation(64) <= 0.15e6

    def test_warm_step_allocates_little_at_n256(self):
        # the result, the block, is 1.18 MB (1.31 MB measured in all; 2.78
        # MB while the result was a half plane, 10.0 MB while each stage's
        # grid fields were fresh)
        assert self.warm_step_allocation(256) <= 1.4e6

    @staticmethod
    def blocks(n, fields, seed):
        g = t.Grid(n)
        return np.stack([t.SpectralField.from_phys(g, x).spec for x in np.random.default_rng(seed).standard_normal((fields, n, n))])

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("fields", [3, 4, 7])
    def test_held_inverse_equals_irfft2(self, n, fields):
        # the step's batches: theta and the curls, u and v, all seven, in
        # blocks that are scattered in order into a held work array whatever
        # it held before: irfft2 of the block scattered into the half plane
        a = self.blocks(n, fields, n + fields)
        want = np.fft.irfft2(half_plane(a, n), s=(n, n))
        work = np.full((7, n, n // 2 + 1), np.nan, dtype=np.complex128)
        out = np.empty((7, n, n))
        got = _irfft2((a[:1], a[1:]), work, out)
        assert got.base is out and np.array_equal(got, want)

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("fields", [3, 4, 7])
    def test_pruned_inverse_equals_irfft2(self, n, fields):
        # a block may be a view of the output, as the stage's curls are
        a = self.blocks(n, fields, n + fields)
        want = np.fft.irfft2(half_plane(a, n), s=(n, n))
        out = np.empty((fields, n, n))
        view = out.reshape(-1)[: 2 * a.size].view(np.complex128).reshape(a.shape)
        view[:] = a
        _irfft2((view,), np.empty((fields, n, n // 2 + 1), dtype=np.complex128), out)
        assert np.array_equal(out, want)

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("fields", [3, 4, 7])
    def test_pruned_forward_equals_masked_rfft2(self, n, fields):
        # the block of rfft2, whatever the grid samples hold past it
        x = np.random.default_rng(n + fields).standard_normal((fields, n, n))
        lo, hi, cols = kept_block(n)
        full = np.fft.rfft2(x)
        q = np.empty((fields, *t.Grid(n).spec_shape), dtype=np.complex128)
        got = _rfft2(x, np.empty_like(full), q)
        assert got is q
        assert np.array_equal(q, np.concatenate((full[:, :lo, :cols], full[:, hi:, :cols]), axis=1))


class TestSimulate:
    def test_zero_horizon(self):
        r = t.simulate(tg_config(horizon=0.0))
        assert len(r.diagnostics) == 1
        assert len(r.snapshots) == 1

    def test_snapshot_count(self):
        cfg = tg_config(dt=1e-2, horizon=0.1, snap_stride=3, diag_stride=2)
        r = t.simulate(cfg)
        assert len(r.snapshots) == 10 // 3 + 1
        assert len(r.diagnostics) == 10 // 2 + 1

    def test_sink_receives_every_snapshot(self):
        cfg = t.SimConfig(n=32, dt=1e-3, horizon=1e-2, preset="random_band", eps=0.1, seed=37, snap_stride=3)
        got = []
        streamed = t.simulate(cfg, on_snapshot=lambda step, s: got.append((step, s)))
        listed = t.simulate(cfg)
        assert streamed.snapshots == []
        assert [step for step, _ in got] == [0, 3, 6, 9]
        assert len(listed.snapshots) == len(got)
        assert all(same_state(s, want) for (_, s), want in zip(got, listed.snapshots))
        for c in t.COLUMNS:
            assert np.array_equal(streamed.diagnostics.col(c), listed.diagnostics.col(c))

    def test_streamed_run_memory_does_not_grow_with_horizon(self):
        # a snapshot every step and a record every 50, so that held
        # snapshots (18.5 KB each at n = 32) dominate what a run allocates;
        # then a record every step too, into a sink that keeps nothing
        def peak(horizon, sink, on_record=None, diag_stride=50):
            cfg = t.SimConfig(n=32, dt=2e-3, horizon=horizon, preset="random_band", eps=0.1, seed=36,
                              diag_stride=diag_stride)
            t.imex_step(t.make_initial(cfg), cfg.dt)  # build the step cache outside the measurement
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                t.simulate(cfg, on_snapshot=sink, on_record=on_record)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        # measured: streamed 0.134 and 0.133 MB, listed 1.01 and 3.83 MB,
        # 150 more snapshots
        streamed = [peak(h, lambda step, s: None) for h in (0.1, 0.4)]
        listed = [peak(h, None) for h in (0.1, 0.4)]
        recorded = [peak(h, lambda step, s: None, lambda row: None, 1) for h in (0.1, 0.4)]
        assert streamed[1] - streamed[0] <= 0.025e6
        assert listed[1] - listed[0] >= 2.5e6
        assert recorded[1] - recorded[0] <= 0.025e6, recorded

    def test_sinks_stop_a_run_of_any_length(self):
        # 10^12 steps, whose records would take 226 TiB as one table: the
        # run allocates nothing in proportion to its length before a sink
        # stops it
        cfg = t.SimConfig(n=16, dt=1e-12, horizon=1.0, preset="taylor_green")
        assert cfg.num_steps() == 10**12

        class Enough(Exception):
            pass

        rows, steps = [], []

        def on_record(row):
            rows.append(row)
            if len(rows) == 3:
                raise Enough

        t.imex_step(t.make_initial(cfg), cfg.dt)  # build the step cache outside the measurement
        tracemalloc.start()
        try:
            with pytest.raises(Enough):
                t.simulate(cfg, lambda step, s: steps.append(step), on_record)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert steps == [0, 1] and len(rows) == 3
        assert peak < 0.5e6, peak

    def test_energy_nonincreasing_regularized(self):
        cfg = t.SimConfig(
            n=32, dt=2e-3, horizon=0.2, preset="random_band", eps=0.1,
            band_lo=1, band_hi=4, seed=11, diag_stride=1, snap_stride=100,
        )
        r = t.simulate(cfg)
        e = r.diagnostics.col("energy")
        assert np.all(np.diff(e) <= 1e-10 * e[0])

    def test_mean_conservation_and_divergence(self):
        cfg = t.SimConfig(
            n=32, dt=2e-3, horizon=0.2, preset="random_band", eps=0.0,
            band_lo=1, band_hi=4, seed=12, diag_stride=5, snap_stride=100,
        )
        r = t.simulate(cfg)
        th0_l2 = r.diagnostics.col("theta_l2")[0]
        mth = r.diagnostics.col("mean_theta")
        assert np.max(np.abs(mth - mth[0])) <= 1e-10 * (1 + th0_l2)
        for colname in ("mean_u_x", "mean_u_y"):
            mu = r.diagnostics.col(colname)
            assert np.max(np.abs(mu - mu[0])) <= 1e-10 * (1 + r.diagnostics.col("u_l2")[0])
        assert np.max(r.diagnostics.col("div_u_rel")) <= 1e-10

    def test_guard_errors_carry_step_index(self, monkeypatch):
        # a NaN in the initial theta is caught by step 1's guard, before the
        # step-0 record; one given to step 3 by step 3's
        cfg = t.SimConfig(n=32, dt=1e-3, horizon=5e-3, preset="random_band", eps=0.1, seed=35)
        make_initial, imex_step = model.make_initial, model.imex_step
        with monkeypatch.context() as m:
            m.setattr(model, "make_initial", lambda cfg: with_nan(make_initial(cfg), "theta"))
            with pytest.raises(NonFiniteState) as info:
                t.simulate(cfg, on_record=pytest.fail)
        assert (info.value.step, info.value.t, info.value.field) == (1, 0.0, "theta")
        with monkeypatch.context() as m:
            m.setattr(model, "imex_step", lambda s, dt, cfl_max: imex_step(
                with_nan(s, "theta") if round(s.t / dt) == 2 else s, dt, cfl_max))
            with pytest.raises(NonFiniteState) as info:
                t.simulate(cfg)
        assert (info.value.step, info.value.t, info.value.field) == (3, 2 * cfg.dt, "theta")
        with pytest.raises(CflViolation) as info:
            t.simulate(replace(cfg, dt=1.0, horizon=2.0))
        assert info.value.step == 1 and info.value.t == 0.0

    def test_decoupled_subsystem_stays_zero(self):
        cfg = tg_config(horizon=0.2, dt=2e-3, snap_stride=100, diag_stride=100)
        r = t.simulate(cfg)
        final = r.snapshots[-1]
        u0 = t.norm(t.make_initial(cfg).u, "L2")
        assert t.norm(final.v, "L2") + t.norm(final.theta, "L2") <= 1e-12 * u0

    def test_richardson_order(self):
        finals = []
        T = 0.2
        for dt in (4e-3, 2e-3, 1e-3):
            steps = int(round(T / dt))
            cfg = t.SimConfig(
                n=32, dt=dt, horizon=T, preset="random_band", eps=0.1,
                band_lo=1, band_hi=4, seed=13, diag_stride=steps, snap_stride=steps,
            )
            finals.append(t.simulate(cfg).snapshots[-1])

        def dist(a, b):
            return np.sqrt(
                t.norm(a.u - b.u, "L2") ** 2
                + t.norm(a.v - b.v, "L2") ** 2
                + t.norm(a.theta - b.theta, "L2") ** 2
            )

        order = np.log2(dist(finals[0], finals[1]) / dist(finals[1], finals[2]))
        assert 1.8 <= order <= 2.2

    def test_semidiscrete_energy_balance_refines(self):
        resids = []
        for dt in (4e-3, 2e-3):
            steps = int(round(0.2 / dt))
            cfg = t.SimConfig(
                n=32, dt=dt, horizon=0.2, preset="random_band", eps=0.05,
                band_lo=1, band_hi=4, seed=14, diag_stride=1, snap_stride=steps,
            )
            r = t.simulate(cfg)
            resids.append(abs(t.energy_identity_residual(r.diagnostics)[-1]))
        assert 3.0 < resids[0] / resids[1] < 5.0


class TestTransformBudget:
    """Transforms per step and per record, counted at the numpy.fft entry
    points; a batch of m fields counts m."""

    NAMES = ("fft2", "ifft2", "fftn", "ifftn", "rfft2", "irfft2", "rfftn", "irfftn")

    def count(self, monkeypatch, fn):
        counts = collections.Counter()
        for name in self.NAMES:
            def wrapped(a, *args, _name=name, _fn=getattr(np.fft, name), **kwargs):
                counts[_name] += int(np.prod(np.shape(a)[:-2]))
                return _fn(a, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, wrapped)
        fn()
        monkeypatch.undo()
        return counts

    def test_step(self, monkeypatch):
        # the first stage reuses the CFL check's grid velocities, even for a
        # state built from grid samples with content on a Nyquist line,
        # which from_phys drops with every other mode off the block
        low = band_state(n=32, seed=24, hi=4)
        row = (-1.0) ** np.arange(32)[:, None] * np.cos(3 * coords(low.grid)[1])  # the row |k1| = n/2
        ux = t.SpectralField.from_phys(low.grid, low.u.x.phys + row)
        nyquist = t.State.from_fields(t.VectorField(ux, low.u.y), low.v, low.theta, low.t, low.eps)
        assert np.max(np.abs(nyquist.spec - low.spec)) <= 1e-12 * np.max(np.abs(low.spec))
        # the step takes each inverse transform as ifftn along axis -2 and
        # then irfft along axis -1, and each forward one as rfft along axis
        # -1 and then fftn along axis -2, so each field counts once
        for name, s in (("low", low), ("nyquist", nyquist)):
            counts = self.count(monkeypatch, lambda: t.imex_step(s, 1e-3))
            assert counts == {"fftn": 14, "ifftn": 14}, name

    def test_record(self, monkeypatch):
        s = t.imex_step(band_state(n=32, seed=24), 1e-3)
        counts = self.count(monkeypatch, lambda: t.make_record(s))
        assert counts == {"ifftn": 14}
