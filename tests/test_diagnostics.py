import collections
import dataclasses
import tracemalloc

import numpy as np
import pytest

import tcm2d as t
from tcm2d import model, spectral
from tcm2d.errors import BadParams, EmptyTrajectory, NonFiniteState
from tcm2d.spectral import grad_linf

from conftest import band_state, off_block_fields, with_nan


def zero_run(eps=0.1, T=0.1):
    cfg = t.SimConfig(
        n=16, dt=1e-2, horizon=T, preset="single_mode", amplitude=0.0,
        eps=eps, diag_stride=1, snap_stride=5,
    )
    return t.simulate(cfg)


class TestEnergyIdentity:
    def test_zero_initial_data(self):
        r = zero_run()
        res = t.energy_identity_residual(r.diagnostics)
        assert np.all(res == 0.0)

    def test_empty_series(self):
        with pytest.raises(EmptyTrajectory):
            t.energy_identity_residual(t.DiagnosticsSeries(np.empty((0, len(t.COLUMNS)))))

    def test_small_on_resolved_run(self, std_run):
        # magnitude scales with dt^2 and record spacing^2; refinement is
        # exercised separately, this is a sanity bound
        res = t.energy_identity_residual(std_run.diagnostics)
        assert abs(res[-1]) < 1e-3


def oracle_record(s):
    """Every column of a record, field by field from the public operators."""
    g, u, v, th = s.grid, s.u, s.v, s.theta
    w, flux = t.pseudo_baroclinic(s), t.viscous_flux(s)
    sem = t.seminorm

    def grad_l4(a):
        # L4 norm of the gradient tensor, Frobenius pointwise
        frob = sum(t.derivative(c, axis).phys ** 2 for c in a for axis in "xy")
        return (np.sum(frob**2) * (g.length / g.n) ** 2) ** 0.25

    band = np.maximum(np.abs(g.kx_int), np.abs(g.ky_int))
    tail = t.SpectralField(g, np.where(band > 2.0 / 3.0 * (g.n / 3.0), th.spec, 0.0))
    th_l2 = t.norm(th)
    a_func = sem(th, 1) ** 2 + s.t * (sem(u, 2) ** 2 + sem(w, 2) ** 2) + 1.0
    return dict(
        t=s.t,
        energy=0.5 * (t.norm(u) ** 2 + t.norm(v) ** 2 + th_l2**2),
        dissipation=sem(u, 1) ** 2 + sem(v, 1) ** 2 + s.eps * sem(th, 1) ** 2,
        u_l2=t.norm(u),
        v_l2=t.norm(v),
        theta_l2=th_l2,
        grad_u_l2=sem(u, 1),
        grad_v_l2=sem(v, 1),
        grad_theta_l2=sem(th, 1),
        grad_w_l2=sem(w, 1),
        lap_u_l2=sem(u, 2),
        lap_w_l2=sem(w, 2),
        lap_theta_l2=sem(th, 2),
        grad_lap_u_l2=sem(u, 3),
        grad_lap_w_l2=sem(w, 3),
        theta_l4=t.norm(th, "L4"),
        theta_linf=t.norm(th, "Linf"),
        u_linf=t.norm(u, "Linf"),
        v_linf=t.norm(v, "Linf"),
        uv_linf=np.sqrt(np.max(sum(c.phys**2 for c in (*u, *v)))),
        grad_u_linf=grad_linf(u),
        grad_u_l4=grad_l4(u),
        grad_w_l4=grad_l4(w),
        phi_linf=t.norm(flux, "Linf"),
        a_func=a_func,
        b_func=a_func + s.t * (sem(u, 3) ** 2 + sem(w, 3) ** 2) + s.eps * sem(th, 2) ** 2 + np.e,
        theta_tail_frac=t.norm(tail) ** 2 / th_l2**2 if th_l2 > 0 else 0.0,
        mean_theta=th.mean,
        mean_u_x=u.x.mean,
        mean_u_y=u.y.mean,
        div_u_rel=t.norm(t.div(u)) / t.norm(u, "H1") if t.norm(u, "H1") > 0 else 0.0,
    )


RECORD_STATES = {
    "band": lambda: band_state(n=32, seed=3),
    "beyond_mask": lambda: t.State.from_fields(*off_block_fields(band_state(n=32, seed=3, hi=10), 3), 0.0, 0.1),
    "zero": lambda: band_state(n=32, u_amp=0.0, v_amp=0.0, theta_amp=0.0),
    "eps_at_t": lambda: dataclasses.replace(band_state(n=32, seed=5, eps=0.2), t=0.3),
}


class TestRecordRow:
    @pytest.mark.parametrize("name", sorted(RECORD_STATES))
    def test_columns_match_public_operators(self, name):
        # the record's batched pass against a field-by-field evaluation of
        # the block the mask keeps, which the state's fields are; each sum
        # may take another order, so roundoff may differ
        s = RECORD_STATES[name]()
        got = dict(zip(t.COLUMNS, t.make_record(s)))
        want = oracle_record(s)
        assert set(want) == set(t.COLUMNS)
        for c in t.COLUMNS:
            tol = 1e-13 * abs(want[c]) if abs(want[c]) > 1e-10 else 1e-15
            assert abs(got[c] - want[c]) <= tol, (c, got[c], want[c])

    def test_warm_record_allocates_little(self):
        # the record works in the step's held buffers: no grid-size array
        t.make_record(band_state(n=256, seed=35))
        s = band_state(n=256, seed=36)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            t.make_record(s)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.0e6, peak

    def test_row_layout(self):
        s = dataclasses.replace(band_state(n=16, seed=3, hi=4), t=0.25)
        row = t.make_record(s)
        assert row.dtype == np.float64 and row.shape == (len(t.COLUMNS),)
        assert t.COLUMNS[0] == "t" and row[0] == 0.25
        at = dict(zip(t.COLUMNS, row))
        assert at["energy"] == 0.5 * (at["u_l2"] ** 2 + at["v_l2"] ** 2 + at["theta_l2"] ** 2)

    def test_held_records_are_small(self):
        # a run holds its records as one float64 table, 8 bytes a cell and no
        # object per record, and a column is a view of it that refuses writes
        cfg = t.SimConfig(n=16, dt=1e-2, horizon=0.1, preset="taylor_green", diag_stride=3, snap_stride=10)
        series = t.simulate(cfg).diagnostics
        assert series.table.dtype == np.float64 and series.table.shape == (10 // 3 + 1, 31) == (len(series), 31)
        energy = series.col("energy")
        assert np.shares_memory(energy, series.table)
        assert np.array_equal(series.table[:, t.COLUMNS.index("energy")], energy)
        with pytest.raises(ValueError, match="read-only"):
            energy[0] = 0.0
        for bad in (np.zeros(31), np.zeros((2, 30)), np.zeros((2, 31, 1)), np.zeros((2, 31), dtype=np.float32)):
            with pytest.raises(BadParams):
                t.DiagnosticsSeries(bad)


class TestMaxPrinciple:
    def test_decoupled_run_zero_margin(self):
        cfg = t.SimConfig(n=16, dt=1e-2, horizon=0.1, preset="taylor_green", diag_stride=1, snap_stride=10)
        r = t.simulate(cfg)
        m = t.max_principle_check(r.diagnostics)
        assert np.max(np.abs(m)) < 1e-13

    def test_regularized_run_margin(self, std_run):
        m = t.max_principle_check(std_run.diagnostics)
        th0 = std_run.diagnostics.col("theta_linf")[0]
        assert np.min(m) >= -1e-4 * th0


class TestH1Functionals:
    def test_zero_run_values(self):
        r = zero_run()
        g = t.h1_temperature_functionals(r.diagnostics)
        assert np.allclose(g.A, 1.0, atol=1e-14)
        assert np.allclose(g.B, 1.0 + np.e, atol=1e-14)

    def test_initial_sample_drops_weighted_terms(self, std_run):
        g = t.h1_temperature_functionals(std_run.diagnostics)
        gth0 = std_run.diagnostics.col("grad_theta_l2")[0]
        assert abs(g.A[0] - (gth0**2 + 1.0)) < 1e-12
        assert np.all(g.A >= 1.0)
        assert np.all(g.B >= np.e)

    def test_certified_envelope_on_run(self, std_run):
        env = t.certified_envelope(std_run.diagnostics)
        assert np.isfinite(env.fit.K)
        assert env.conclusion.outcome == "holds"


class TestLipschitzBudget:
    def test_zero_velocity(self):
        r = zero_run()
        assert t.lipschitz_budget(r.diagnostics) == 0.0

    def test_nondecreasing_in_horizon(self, std_run):
        curve = t.lipschitz_budget_curve(std_run.diagnostics)
        assert np.all(np.diff(curve) >= 0.0)
        assert abs(curve[-1] - t.lipschitz_budget(std_run.diagnostics)) < 1e-14

    def test_taylor_green_closed_form(self):
        T = 0.5
        cfg = t.SimConfig(n=32, dt=1e-3, horizon=T, preset="taylor_green", amplitude=1.0,
                          diag_stride=1, snap_stride=500)
        r = t.simulate(cfg)
        budget = t.lipschitz_budget(r.diagnostics)
        exact = 1.0 - np.exp(-2.0 * T)
        assert abs(budget - exact) < 1e-4 * exact


class TestRatioMonitors:
    def test_bgw_zero_field(self):
        g = t.Grid(16)
        zero = t.SpectralField.zeros(g)
        assert t.bgw_ratio(t.VectorField(zero, zero)) == 0.0

    def test_bgw_amplitude_family_stays_within_factor_three(self):
        s = band_state(n=64, seed=30)
        vals = [t.bgw_ratio(a * s.u) for a in (0.1, 1.0, 10.0)]
        assert max(vals) / min(vals) < 3.0

    def test_bgw_finite_over_seeds(self):
        # Monte Carlo sweep; the observed max is an empirical constant, not
        # asserted against any fixed value
        vals = [t.bgw_ratio(band_state(n=32, seed=40 + k).u) for k in range(100)]
        assert np.all(np.isfinite(vals))
        assert max(vals) > 0.0

    def test_commutator_ratio_guards(self):
        s = band_state(n=32, seed=31)
        g = s.grid
        const_u = t.VectorField(
            t.SpectralField.from_phys(g, np.full((g.n, g.n), 1.0)),
            t.SpectralField.zeros(g),
        )
        assert t.commutator_estimate_ratio(const_u, s.theta) == 0.0
        zero = t.SpectralField.zeros(g)
        assert t.commutator_estimate_ratio(s.u, zero) == 0.0

    def test_commutator_ratio_homogeneous(self):
        s = band_state(n=32, seed=32)
        r0 = t.commutator_estimate_ratio(s.u, s.theta)
        r1 = t.commutator_estimate_ratio(3.0 * s.u, -7.0 * s.theta)
        assert abs(r0 - r1) <= 1e-12 * r0


def twin_cfg(**kw):
    base = dict(
        n=32, dt=2e-3, horizon=0.1, preset="random_band", eps=0.1,
        band_lo=1, band_hi=4, seed=33, diag_stride=5, snap_stride=50,
    )
    base.update(kw)
    return t.SimConfig(**base)


class TestTwinDivergence:
    def test_zero_delta_bitwise_zero(self):
        rep = t.twin_divergence(twin_cfg(), 0.0)
        assert np.all(rep.separation == 0.0)

    def test_initial_separation_matches_injected_size(self):
        from tcm2d.diagnostics import _perturbation, _smoothed_h1

        cfg = twin_cfg()
        delta = 1e-6
        rep = t.twin_divergence(cfg, delta, shape="mode")
        base = t.make_initial(cfg)
        pu, pv, pth = _perturbation(cfg, "mode")
        pert_u = t.leray_project(base.u + pu * delta)
        injected = _smoothed_h1(pert_u - base.u, pv * delta, pth * delta)
        assert abs(rep.separation[0] - injected) <= 1e-12 * injected

    def test_envelope_holds(self):
        rep = t.twin_divergence(twin_cfg(), 1e-8)
        assert rep.all_passed
        assert np.all(np.isfinite(rep.envelope))

    def test_guard_error_carries_step_index(self, monkeypatch):
        # a NaN in the initial theta is caught by step 1's guard, before
        # step 0 is measured; one given to a member's step 3 by that step's
        from tcm2d import diagnostics, model

        make_initial, imex_step, calls = diagnostics.make_initial, model.imex_step, []
        with monkeypatch.context() as m:
            m.setattr(diagnostics, "make_initial", lambda cfg: with_nan(make_initial(cfg), "theta"))
            m.setattr(diagnostics, "_separation", pytest.fail)
            with pytest.raises(NonFiniteState) as info:
                t.twin_divergence(twin_cfg(), 1e-8)
        assert (info.value.step, info.value.field) == (1, "theta")

        def faulty(s, dt, cfl_max):  # the members step in turn, so call 6 is step 3 of the second
            calls.append(s)
            return imex_step(with_nan(s, "theta") if len(calls) == 6 else s, dt, cfl_max)

        monkeypatch.setattr(model, "imex_step", faulty)
        with pytest.raises(NonFiniteState) as info:
            t.twin_divergence(twin_cfg(), 1e-8)
        assert (info.value.step, info.value.field) == (3, "theta")

    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), -1.0])
    def test_bad_delta(self, delta):
        with pytest.raises(BadParams, match="delta"):
            t.twin_divergence(twin_cfg(), delta)

    def test_unknown_shape_with_zero_delta(self):
        with pytest.raises(BadParams, match="shape"):
            t.twin_divergence(twin_cfg(), 0.0, shape="bogus")

    @pytest.mark.parametrize("shape", ["mode", "band", "theta"])
    def test_shapes_normalized(self, shape):
        from tcm2d.diagnostics import _perturbation, _smoothed_h1

        pu, pv, pth = _perturbation(twin_cfg(), shape)
        assert abs(_smoothed_h1(pu, pv, pth) - 1.0) < 1e-12


class TestNoScatter:
    """A state's fields are views of its block, and the distances and L2
    and H1 norms that the twin and the sweep take of them are sums over the
    block: neither ever scatters a block into a half plane, except into the
    work array of a pruned inverse transform when it reads the grid (each
    step's guard and stages, make_initial's overflow check, and the sup
    norms of the twin's growth coefficient)."""

    @staticmethod
    def scatters(monkeypatch, fn):
        # (scatters outside a pruned inverse transform, scatters inside one)
        calls, depth = collections.Counter(), [0]
        scatter, irfft2 = spectral._scatter, spectral._irfft2

        def counted_scatter(*args):
            calls[depth[0] > 0] += 1
            return scatter(*args)

        def counted_irfft2(*args):
            depth[0] += 1
            try:
                return irfft2(*args)
            finally:
                depth[0] -= 1

        with monkeypatch.context() as m:
            m.setattr(spectral, "_scatter", counted_scatter)
            for module in (spectral, model):
                m.setattr(module, "_irfft2", counted_irfft2)
            fn()
        return calls[False], calls[True]

    def test_twin_and_sweep_never_scatter(self, monkeypatch):
        cfg = t.SimConfig(n=16, dt=1e-3, horizon=4e-3, preset="random_band", eps=0.1, seed=3, snap_stride=2)
        for fn in (lambda: t.twin_divergence(cfg, 1e-3), lambda: t.epsilon_sweep(cfg, (0.1, 0.05, 0.0))):
            outside, inside = self.scatters(monkeypatch, fn)
            assert outside == 0 and inside > 0
        # the sweep's distances, taken at each of the reference's snapshots,
        # add no scatter at all: only its steps and initial states do
        counts = [self.scatters(monkeypatch, lambda: t.epsilon_sweep(dataclasses.replace(cfg, snap_stride=k),
                                                                      (0.1, 0.05, 0.0))) for k in (1, 4)]
        assert counts[0] == counts[1]


class TestEpsilonSweep:
    def test_identical_levels_zero_distance(self):
        base = twin_cfg(horizon=0.05)
        rep = t.epsilon_sweep(base, [0.1, 0.1])
        assert np.all(rep.dist_velocity == 0.0)
        assert np.all(rep.dist_theta == 0.0)

    @pytest.mark.parametrize("levels", [[], [0.7]], ids=["empty", "out_of_range"])
    def test_bad_levels(self, levels):
        with pytest.raises(BadParams):
            t.epsilon_sweep(twin_cfg(horizon=0.05), levels)

    def test_single_level_degenerate(self):
        rep = t.epsilon_sweep(twin_cfg(horizon=0.05), [0.1])
        assert rep.dist_velocity.shape == (1,)
        assert rep.monotone_velocity and rep.monotone_theta

    def test_distances_match_list_mode_runs(self):
        # the reference (eps = 0) is not the first member
        base, levels = twin_cfg(horizon=0.05, snap_stride=2, seed=38), [0.2, 0.0, 0.1, 0.05]
        rep = t.epsilon_sweep(base, levels)
        runs = [t.simulate(dataclasses.replace(base, eps=e)).snapshots for e in levels]
        for i, snaps in enumerate(runs):
            ts = np.array([s.t for s in snaps])
            vel_sq = [t.norm(a.u - b.u, "H1") ** 2 + t.norm(a.v - b.v, "H1") ** 2 for a, b in zip(snaps, runs[1])]
            th_sq = [t.norm(a.theta - b.theta, "L2") ** 2 for a, b in zip(snaps, runs[1])]
            assert rep.dist_velocity[i] == float(np.sqrt(np.trapezoid(vel_sq, ts)))
            assert rep.dist_theta[i] == float(np.sqrt(np.trapezoid(th_sq, ts)))
        assert rep.dist_velocity[1] == rep.dist_theta[1] == 0.0
        assert np.all(rep.dist_velocity[[0, 2, 3]] > 0)

    def test_member_guard_error_carries_its_step_index(self, monkeypatch):
        # only the members start from diagnostics.make_initial; the NaN in
        # theta is caught by step 1's guard, before the step-0 distance
        from tcm2d import diagnostics, model

        make_initial, imex_step = diagnostics.make_initial, model.imex_step
        cfg = twin_cfg(horizon=0.05, snap_stride=5)
        with monkeypatch.context() as m:
            m.setattr(diagnostics, "make_initial", lambda cfg: with_nan(make_initial(cfg), "theta"))
            m.setattr(diagnostics, "norm", pytest.fail)
            with pytest.raises(NonFiniteState) as info:
                t.epsilon_sweep(cfg, [0.1, 0.0])
        assert (info.value.step, info.value.field) == (1, "theta")
        # a NaN given to the member's step 8, between two of the reference's
        # snapshots, is caught by that step's guard
        monkeypatch.setattr(model, "imex_step", lambda s, dt, cfl_max: imex_step(
            with_nan(s, "theta") if s.eps == 0.1 and round(s.t / dt) == 7 else s, dt, cfl_max))
        with pytest.raises(NonFiniteState) as info:
            t.epsilon_sweep(cfg, [0.1, 0.0])
        assert (info.value.step, info.value.field) == (8, "theta")

    def test_sweep_memory_does_not_grow_with_horizon(self):
        # a snapshot every step, so that a held reference trajectory (45 KB
        # a state at n = 32) would dominate what the sweep allocates
        levels = (0.2, 0.1, 0.05, 0.0)

        def peak(horizon):
            cfg = twin_cfg(horizon=horizon, dt=2e-3, snap_stride=1, seed=39)
            for e in levels:  # build the step caches outside the measurement
                t.imex_step(t.make_initial(dataclasses.replace(cfg, eps=e)), cfg.dt)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                t.epsilon_sweep(cfg, levels)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        # measured: 0.49 and 0.51 MB; 3.5 and 11.5 MB with the reference
        # trajectory held and every member making records
        small, large = peak(0.1), peak(0.4)
        assert large - small <= 0.1e6, (small, large)

    def test_monotone_decrease(self):
        base = twin_cfg(horizon=0.2, eps=0.0, snap_stride=10, seed=34)
        rep = t.epsilon_sweep(base, [0.2, 0.1, 0.05, 0.0])
        assert rep.reference_eps == 0.0
        assert rep.monotone_velocity and rep.monotone_theta
        assert np.isfinite(rep.slope_velocity)
