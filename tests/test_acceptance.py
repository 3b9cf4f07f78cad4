"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v tests/test_acceptance.py`` to get one line per
criterion. Stated runtime limits are asserted alongside the tolerances.
"""

import time

import numpy as np
import pytest
from scipy.optimize import brentq

import tcm2d as t

from conftest import band_state, rel_l2


def report(num, name, ok, detail, elapsed, limit):
    line = f"criterion {num} {name}: {'PASS' if ok else 'FAIL'} ({detail}; {elapsed:.1f}s / {limit}s)"
    print(line)
    assert ok, line
    assert elapsed < limit, f"criterion {num} exceeded runtime limit: {elapsed:.1f}s >= {limit}s"


def run_band(n, dt, T, eps, seed, diag_stride=1, snap_stride=None, band=(1, 4)):
    steps = int(round(T / dt))
    cfg = t.SimConfig(
        n=n, dt=dt, horizon=T, preset="random_band", eps=eps,
        band_lo=band[0], band_hi=band[1], u_amp=1.0, v_amp=0.5, theta_amp=0.5,
        seed=seed, diag_stride=diag_stride, snap_stride=snap_stride or steps,
    )
    return t.simulate(cfg)


def test_c1_operator_algebra():
    start = time.time()
    worst = 0.0
    for n in (32, 64):
        s = band_state(n=n, seed=1, hi=n // 4)
        th, u = s.theta, s.u

        back = t.SpectralField(th.grid, th.spec)
        worst = max(worst, rel_l2(t.SpectralField.from_phys(th.grid, back.phys), th))

        a = t.VectorField(s.v.x, th)
        once = t.leray_project(a)
        worst = max(worst, t.norm(t.leray_project(once) - once, "L2") / t.norm(once, "L2"))
        other = t.VectorField(th, s.v.y)
        sym = abs(t.inner(t.leray_project(a), other) - t.inner(a, t.leray_project(other)))
        worst = max(worst, sym / (t.norm(a, "L2") * t.norm(other, "L2")))

        trace = t.riesz_double("x", "x", th) + t.riesz_double("y", "y", th)
        worst = max(worst, rel_l2(trace, -1.0 * th))

        # div(grad((-lap)^{-1} theta)) = -theta on mean-zero fields
        worst = max(worst, rel_l2(t.div(t.grad_inv_neg_laplacian(th)), -1.0 * th))
    report(1, "operator algebra", worst < 1e-12, f"max rel error {worst:.2e}", time.time() - start, 10)


@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_c2_energy_identity_refinement(eps):
    start = time.time()
    resids = []
    for dt in (4e-3, 2e-3, 1e-3):
        r = run_band(n=64, dt=dt, T=1.0, eps=eps, seed=42)
        resids.append(abs(t.energy_identity_residual(r.diagnostics)[-1]))
    ratios = [resids[i] / resids[i + 1] for i in range(2)]
    ok = all(3.5 <= x <= 4.5 for x in ratios)
    report(
        2, f"energy identity (eps={eps})", ok,
        "ratios " + ", ".join(f"{x:.2f}" for x in ratios), time.time() - start, 120,
    )


def test_c3_max_principle():
    start = time.time()
    worst_rel = np.inf
    for eps in (0.05, 0.1, 0.25):
        for seed in (101, 202, 303):
            r = run_band(n=64, dt=2e-3, T=1.0, eps=eps, seed=seed, diag_stride=2)
            margins = t.max_principle_check(r.diagnostics)
            th0 = r.diagnostics.col("theta_linf")[0]
            worst_rel = min(worst_rel, float(np.min(margins)) / th0)
    ok = worst_rel >= -1e-4
    report(3, "maximum principle", ok, f"worst margin/||theta0||_inf = {worst_rel:.2e}", time.time() - start, 300)


def test_c4_derived_equation_residuals():
    start = time.time()
    levels = []
    for lev in range(3):
        n, dt = 32 * 2**lev, 4e-3 / 2**lev
        r = run_band(n=n, dt=dt, T=0.32, eps=0.1, seed=7, snap_stride=8, diag_stride=int(round(0.32 / dt)))
        m = len(r.snapshots) // 2
        win = r.snapshots[m - 1 : m + 2]
        levels.append(
            (
                t.residual_w_equation(win).l2,
                t.residual_phi_equation(win).l2,
                t.residual_flux_equation(win).l2,
            )
        )
    orders = [
        np.log2(levels[i][j] / levels[i + 1][j]) for i in range(2) for j in range(3)
    ]
    ok = all(o >= 1.8 for o in orders)

    cfg = t.SimConfig(n=32, dt=2e-3, horizon=0.1, preset="taylor_green", snap_stride=10, diag_stride=50)
    snaps = t.simulate(cfg).snapshots
    win = snaps[1:4]
    zeros = [
        t.residual_w_equation(win).l2,
        t.residual_phi_equation(win).l2,
        t.residual_flux_equation(win).l2,
    ]
    ok = ok and all(z <= 1e-12 for z in zeros)
    report(
        4, "derived-equation residuals", ok,
        f"min order {min(orders):.2f}, decoupled max {max(zeros):.1e}", time.time() - start, 300,
    )


def test_c5_commutator_properties():
    start = time.time()
    s = band_state(n=64, seed=9, lo=1, hi=15)
    dual = rel_l2(t.commutator_f_gradform(s.u, s.theta), t.commutator_f(s.u, s.theta))

    r0 = t.commutator_estimate_ratio(s.u, s.theta)
    hom = max(
        abs(t.commutator_estimate_ratio(a * s.u, b * s.theta) - r0)
        for a, b in ((-2.0, 0.5), (10.0, -2.0))
    )

    g = s.grid
    cu = t.VectorField(
        t.SpectralField.from_phys(g, np.full((g.n, g.n), 2.0)),
        t.SpectralField.from_phys(g, np.full((g.n, g.n), -1.0)),
    )
    cvan = t.norm(t.commutator_f(cu, s.theta), "L2") / (3.0 * t.norm(s.theta, "L2"))

    maxes = {}
    for n in (64, 128):
        vals = []
        for seed in range(100):
            p = band_state(n=n, seed=1000 + seed, lo=2, hi=20)
            vals.append(t.commutator_estimate_ratio(p.u, p.theta))
        maxes[n] = max(vals)
    spread = abs(maxes[64] - maxes[128]) / max(maxes.values())

    ok = dual < 1e-10 and hom <= 1e-12 * r0 and cvan <= 1e-12 and spread <= 0.2
    report(
        5, "commutator properties", ok,
        f"dual {dual:.1e}, const-u {cvan:.1e}, max-ratio spread {100 * spread:.1f}%",
        time.time() - start, 180,
    )


def test_c6_logarithmic_gronwall():
    start = time.time()
    ts = np.linspace(0.0, 1.0, 101)
    ones = np.ones_like(ts)

    eq1 = t.GronwallSeries(times=ts, A=ones, B=ones, alpha=0 * ones, beta=ones, K=1.0)
    m1 = np.max(np.abs(t.verify_hypothesis(eq1).margins))
    eq2 = t.GronwallSeries(times=ts, A=ones, B=np.e * ones, alpha=0 * ones, beta=0 * ones, K=np.e)
    m2 = np.max(np.abs(t.verify_hypothesis(eq2).margins))

    tf = np.linspace(0.0, 1.0, 401)
    A = np.exp(tf + 1.0)
    B = np.array([brentq(lambda b, c=c: b - c * np.log(b), c, 100.0 * c) for c in A])
    ode = t.GronwallSeries(times=tf, A=A, B=B, alpha=np.ones_like(tf), beta=np.zeros_like(tf), K=1.0)
    ode_rep = t.conclusion_check(ode)

    run = run_band(n=64, dt=2e-3, T=0.5, eps=0.1, seed=42, diag_stride=2)
    env = t.certified_envelope(run.diagnostics)

    ok = (
        m1 < 1e-12
        and m2 < 1e-12
        and ode_rep.outcome == "holds"
        and np.isfinite(env.fit.K)
        and env.conclusion.outcome == "holds"
    )
    report(
        6, "logarithmic Gronwall", ok,
        f"equality margins {max(m1, m2):.1e}, run K {env.fit.K:.3g}", time.time() - start, 60,
    )


def test_c7_twin_uniqueness():
    start = time.time()
    cfg = t.SimConfig(
        n=64, dt=2e-3, horizon=1.0, preset="random_band", eps=0.1,
        band_lo=1, band_hi=4, seed=5, diag_stride=5, snap_stride=500,
    )
    zero = t.twin_divergence(cfg, 0.0)
    bitwise = bool(np.all(zero.separation == 0.0))
    rep = t.twin_divergence(cfg, 1e-8)
    ok = bitwise and rep.all_passed
    report(
        7, "twin-run uniqueness", ok,
        f"delta=0 max sep {np.max(zero.separation):.1e}, envelope pass {rep.all_passed}",
        time.time() - start, 180,
    )


def test_c8_epsilon_sweep():
    start = time.time()
    base = t.SimConfig(
        n=64, dt=2e-3, horizon=0.5, preset="random_band", eps=0.0,
        band_lo=1, band_hi=4, seed=11, diag_stride=25, snap_stride=5,
    )
    rep = t.epsilon_sweep(base, [0.2, 0.1, 0.05, 0.0])
    ok = rep.monotone_velocity and rep.monotone_theta and rep.reference_eps == 0.0
    dv = ", ".join(f"{x:.3g}" for x in rep.dist_velocity[:-1])
    report(8, "epsilon sweep", ok, f"velocity distances {dv}", time.time() - start, 600)


def test_c9_lipschitz_budget():
    start = time.time()
    T = 1.0
    cfg = t.SimConfig(
        n=32, dt=1e-3, horizon=T, preset="taylor_green", amplitude=1.0,
        diag_stride=1, snap_stride=1000,
    )
    r = t.simulate(cfg)
    budget = t.lipschitz_budget(r.diagnostics)
    exact = 1.0 - np.exp(-2.0 * T)
    rel = abs(budget - exact) / exact

    other = run_band(n=64, dt=2e-3, T=0.5, eps=0.1, seed=42, diag_stride=2)
    finite = np.isfinite(t.lipschitz_budget(other.diagnostics))

    ok = rel < 1e-4 and finite
    report(9, "Lipschitz budget", ok, f"closed-form rel err {rel:.1e}", time.time() - start, 60)
