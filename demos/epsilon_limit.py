"""Vanishing-diffusivity sweep.

Solutions of the regularized system (temperature diffusivity eps > 0) are
compared against the eps = 0 run from the same initial data. Distances are
measured in L2(0,T; H1) for the velocities and L2(0,T; L2) for the
temperature; they decrease monotonically as eps -> 0, an empirical
counterpart of the vanishing-regularization limit.
"""

import tcm2d as t

base = t.SimConfig(n=64, dt=2e-3, horizon=0.5, preset="random_band", eps=0.0,
                   band_lo=1, band_hi=4, seed=11, diag_stride=25, snap_stride=5)
levels = [0.2, 0.1, 0.05, 0.025, 0.0]
rep = t.epsilon_sweep(base, levels)

print(f"distances to the eps = {rep.reference_eps} run:")
print(f"{'eps':>7} {'velocity L2H1':>15} {'theta L2L2':>12}")
for e, dv, dth in zip(rep.eps_levels, rep.dist_velocity, rep.dist_theta):
    if e == rep.reference_eps:
        continue
    print(f"{e:7.3f} {dv:15.5e} {dth:12.5e}")
print(f"\nmonotone decrease: velocity={rep.monotone_velocity} theta={rep.monotone_theta}")
print(f"observed log-log slopes: velocity {rep.slope_velocity:.2f}, theta {rep.slope_theta:.2f}")
