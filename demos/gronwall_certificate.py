"""Certified envelope for the temperature's H1 growth.

A run's records assemble the functionals

    A(t) = ||grad theta||_2^2 + t ||(lap u, lap w)||_2^2 + 1,
    B(t) = A + t ||(grad lap u, grad lap w)||_2^2 + eps ||lap theta||_2^2 + e,

the smallest constant K closing the differential inequality
A' + B <= K(alpha + log B)A + beta is fitted from the data, and the
double-exponential envelope (2Q+1)exp(Q) is checked sample by sample.
The series is also written as a CSV consumable by `tcm2d gronwall`.
"""

import os

import numpy as np

import tcm2d as t
from tcm2d.storage import write_gronwall_csv

cfg = t.SimConfig(n=64, dt=2e-3, horizon=1.0, preset="random_band", eps=0.1,
                  band_lo=1, band_hi=4, seed=42, diag_stride=2, snap_stride=500)
run = t.simulate(cfg)
env = t.certified_envelope(run.diagnostics)
g = env.series

print(f"fitted K = {env.fit.K:.4f} (binding sample {env.fit.argmax} of {len(g.times)})")
hyp = env.conclusion.hypothesis
print(f"hypothesis margins: min {np.min(hyp.margins):+.3e} (holds: {hyp.holds})")
print(f"conclusion outcome: {env.conclusion.outcome}")
print(f"sup A + int B at T: {env.conclusion.lhs[-1]:.4f}")
print(f"envelope exponent Q(T): {t.q_of_t(g)[-1]:.1f} (log of the certified bound)")

out = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(out, exist_ok=True)
path = os.path.join(out, "h1_functionals.csv")
write_gronwall_csv(path, g.times, g.A, g.B, g.alpha, g.beta)
print(f"\nwrote {path}")
print("try:  tcm2d gronwall --csv demos/output/h1_functionals.csv --fit-k")
