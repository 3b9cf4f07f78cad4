"""Taylor-Green vortex benchmark.

With v = theta = 0 the system reduces to incompressible Navier-Stokes, and
the Taylor-Green vortex u = A(sin x cos y, -cos x sin y) on [0, 2*pi]^2
decays exactly as u(t) = A exp(-2t) u0: the advection term is a pure
gradient that the Leray projection removes. The time stepper's error on
this flow is purely temporal, so halving dt should quarter the error.
"""

import numpy as np

import tcm2d as t

T = 0.48
print(f"Taylor-Green decay to T = {T}, exact factor exp(-2T) = {np.exp(-2 * T):.6f}\n")
print(f"{'dt':>9} {'L2 error':>12} {'ratio':>7}")

prev = None
for dt in (8e-3, 4e-3, 2e-3, 1e-3):
    steps = int(round(T / dt))
    cfg = t.SimConfig(n=64, dt=dt, horizon=T, preset="taylor_green",
                      snap_stride=steps, diag_stride=steps)
    s = t.simulate(cfg).snapshots[-1]
    x = np.arange(s.grid.n) * s.grid.spacing
    X, Y = np.meshgrid(x, x, indexing="ij")
    exact = t.VectorField(
        t.SpectralField.from_phys(s.grid, np.exp(-2 * T) * np.sin(X) * np.cos(Y)),
        t.SpectralField.from_phys(s.grid, -np.exp(-2 * T) * np.cos(X) * np.sin(Y)),
    )
    err = t.norm(s.u - exact, "L2")
    ratio = "" if prev is None else f"{prev / err:7.3f}"
    print(f"{dt:9.0e} {err:12.4e} {ratio:>7}")
    prev = err

print("\nratios near 4 confirm second-order time accuracy")
