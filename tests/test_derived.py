from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import tcm2d as t
from tcm2d.errors import BadParams, BadWindow, EpsOutOfRange, NonZeroMean

from conftest import band_state, coords, rel_l2


def state_from(u=None, v=None, theta=None, grid=None, eps=0.0, time=0.0):
    g = grid or t.Grid(32)
    zero = t.SpectralField.zeros(g)
    zv = t.VectorField(zero, zero)
    return t.State.from_fields(u=u or zv, v=v or zv, theta=theta or zero, t=time, eps=eps)


class TestPseudoBaroclinic:
    def test_zero_theta_gives_v(self):
        s = band_state(n=32, seed=1, theta_amp=0.0)
        w = t.pseudo_baroclinic(s)
        assert rel_l2(w, s.v) < 1e-13

    def test_single_mode_potential(self):
        g = t.Grid(32)
        X, _ = coords(g)
        theta = t.SpectralField.from_phys(g, np.sin(X))
        s = state_from(theta=theta, grid=g, eps=0.0)
        w = t.pseudo_baroclinic(s)
        assert_allclose(w.x.phys, np.cos(X), atol=1e-12)
        assert t.norm(w.y, "L2") < 1e-13

    def test_linearity(self):
        a = band_state(n=32, seed=2)
        b = band_state(n=32, seed=3)
        joint = state_from(v=a.v + b.v, theta=a.theta + b.theta, grid=a.grid, eps=a.eps)
        w = t.pseudo_baroclinic(joint)
        wa, wb = t.pseudo_baroclinic(a), t.pseudo_baroclinic(b)
        assert rel_l2(w, wa + wb) < 1e-12

    def test_eps_out_of_range(self):
        from types import SimpleNamespace

        s = band_state(n=32, seed=4)
        near = t.State.from_fields(u=s.u, v=s.v, theta=s.theta, t=0.0, eps=0.999999)
        t.pseudo_baroclinic(near)  # still < 1, fine
        bad = SimpleNamespace(u=s.u, v=s.v, theta=s.theta, t=0.0, eps=1.0)
        with pytest.raises(EpsOutOfRange):
            t.pseudo_baroclinic(bad)
        with pytest.raises(EpsOutOfRange):
            t.viscous_flux(bad)
        # a State checks the same range, and the error is a BadParams (CLI exit 2)
        for eps in (1.0, -0.1, float("nan")):
            with pytest.raises(EpsOutOfRange):
                t.State.from_fields(u=s.u, v=s.v, theta=s.theta, t=0.0, eps=eps)
        assert issubclass(EpsOutOfRange, BadParams)

    def test_potential_invariants(self):
        s = band_state(n=64, seed=5, eps=0.2)
        phi = t.temperature_potential(s.theta)
        # div(Phi) reproduces the negated temperature
        assert rel_l2(t.div(phi), -1.0 * s.theta) < 1e-12
        # w - v - Phi/(1-eps) vanishes by construction
        recon = s.v + phi * (1.0 / (1.0 - s.eps))
        assert rel_l2(t.pseudo_baroclinic(s), recon) < 1e-14

    def test_nonzero_mean_rejected(self):
        g = t.Grid(16)
        theta = t.SpectralField.from_phys(g, np.ones((16, 16)))
        with pytest.raises(NonZeroMean):
            t.pseudo_baroclinic(state_from(theta=theta, grid=g))


class TestCommutator:
    def test_zero_inputs(self):
        s = band_state(n=32, seed=6)
        zero = t.SpectralField.zeros(s.grid)
        zv = t.VectorField(zero, zero)
        assert t.norm(t.commutator_f(zv, s.theta), "L2") == 0.0
        assert t.norm(t.commutator_f(s.u, zero), "L2") == 0.0

    def test_constant_velocity_vanishes(self):
        s = band_state(n=64, seed=7)
        g = s.grid
        cu = t.VectorField(
            t.SpectralField.from_phys(g, np.full((g.n, g.n), 2.0)),
            t.SpectralField.from_phys(g, np.full((g.n, g.n), -3.0)),
        )
        f = t.commutator_f(cu, s.theta)
        assert t.norm(f, "L2") <= 1e-12 * t.norm(s.theta, "L2") * 5.0

    def test_bilinearity(self):
        s = band_state(n=32, seed=8)
        f = t.commutator_f(s.u, s.theta)
        for a, b in ((-2.0, 0.5), (0.5, 10.0), (10.0, -2.0)):
            fs = t.commutator_f(a * s.u, b * s.theta)
            diff = t.norm(fs - (a * b) * f, "L2")
            assert diff <= 1e-12 * abs(a * b) * t.norm(f, "L2")

    def test_dual_formula_agreement(self):
        # alias-free band so the two forms coincide to roundoff
        s = band_state(n=64, seed=9, lo=1, hi=15)
        f1 = t.commutator_f(s.u, s.theta)
        f2 = t.commutator_f_gradform(s.u, s.theta)
        assert rel_l2(f2, f1) < 1e-10


class TestViscousFlux:
    def test_constructed_cancellation(self):
        # v = -Phi has div v = +theta, so flux vanishes at eps = 0
        s = band_state(n=64, seed=10)
        phi = t.temperature_potential(s.theta)
        cancel = t.State.from_fields(u=s.u, v=-1.0 * phi, theta=s.theta, t=0.0, eps=0.0)
        flux = t.viscous_flux(cancel)
        assert t.norm(flux, "L2") <= 1e-12 * t.norm(s.theta, "L2")

    def test_zero_theta(self):
        s = band_state(n=32, seed=11, theta_amp=0.0)
        assert rel_l2(t.viscous_flux(s), t.div(s.v)) < 1e-13

    def test_mean_relation(self):
        s = band_state(n=32, seed=12, eps=0.25)
        flux = t.viscous_flux(s)
        assert abs(flux.mean + s.theta.mean / 0.75) < 1e-13

    def test_deterministic_recompute(self):
        s = band_state(n=32, seed=13)
        a = t.viscous_flux(s).spec
        b = t.viscous_flux(s).spec
        assert np.array_equal(a, b)

    def test_streamed_matches_recomputed_bitwise(self):
        # sup of the flux recomputed from trajectory snapshots equals the
        # streamed diagnostics column exactly
        cfg = t.SimConfig(
            n=32, dt=2e-3, horizon=0.04, preset="random_band", eps=0.1,
            band_lo=1, band_hi=4, seed=14, diag_stride=5, snap_stride=5,
        )
        r = t.simulate(cfg)
        streamed = r.diagnostics.col("phi_linf")
        recomputed = np.array([t.norm(t.viscous_flux(s), "Linf") for s in r.snapshots])
        assert np.array_equal(streamed, recomputed)


def short_run(n=32, dt=2e-3, T=0.12, eps=0.1, stride=5, seed=20, preset="random_band"):
    steps = int(round(T / dt))
    cfg = t.SimConfig(
        n=n, dt=dt, horizon=T, preset=preset, eps=eps,
        band_lo=1, band_hi=4, seed=seed, snap_stride=stride, diag_stride=steps,
    )
    return t.simulate(cfg)


class TestResiduals:
    def test_zero_trajectory(self):
        g = t.Grid(16)
        zero = t.SpectralField.zeros(g)
        zv = t.VectorField(zero, zero)
        snaps = [t.State.from_fields(u=zv, v=zv, theta=zero, t=k * 0.1, eps=0.1) for k in range(3)]
        for fn in (t.residual_w_equation, t.residual_phi_equation, t.residual_flux_equation):
            r = fn(snaps)
            assert r.l2 == 0.0 and r.smoothed == 0.0

    def test_decoupled_subsystem(self):
        r = short_run(eps=0.0, preset="taylor_green")
        win = r.snapshots[1:4]
        for fn in (t.residual_w_equation, t.residual_phi_equation, t.residual_flux_equation):
            assert fn(win).l2 <= 1e-12

    def test_bad_windows(self):
        r = short_run()
        a, b, c = r.snapshots[0], r.snapshots[1], r.snapshots[3]
        with pytest.raises(BadWindow):
            t.residual_w_equation([a, b, c])
        with pytest.raises(BadWindow):
            t.residual_w_equation([a, b])
        with pytest.raises(BadWindow):
            t.residual_w_equation([*r.snapshots[0:2], replace(r.snapshots[2], eps=0.3)])

    def test_refinement_order(self):
        levels = []
        for lev in range(2):
            n = 32 * 2**lev
            dt = 4e-3 / 2**lev
            r = short_run(n=n, dt=dt, T=0.16, stride=8, seed=21)
            m = len(r.snapshots) // 2
            win = r.snapshots[m - 1 : m + 2]
            levels.append(
                (
                    t.residual_w_equation(win).l2,
                    t.residual_phi_equation(win).l2,
                    t.residual_flux_equation(win).l2,
                )
            )
        for j in range(3):
            order = np.log2(levels[0][j] / levels[1][j])
            assert order >= 1.8

    def test_smoothed_metric_reported(self):
        r = short_run()
        m = len(r.snapshots) // 2
        res = t.residual_w_equation(r.snapshots[m - 1 : m + 2])
        assert res.smoothed > 0.0
        assert np.isfinite(res.smoothed)
