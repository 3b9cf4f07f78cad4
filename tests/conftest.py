import numpy as np
import pytest

import tcm2d as t


def band_state(n=64, seed=0, lo=1, hi=4, eps=0.1, u_amp=1.0, v_amp=0.5, theta_amp=0.5):
    """Random band-limited state through the public preset path."""
    cfg = t.SimConfig(
        n=n,
        dt=1e-3,
        horizon=0.0,
        preset="random_band",
        eps=eps,
        band_lo=lo,
        band_hi=hi,
        u_amp=u_amp,
        v_amp=v_amp,
        theta_amp=theta_amp,
        seed=seed,
    )
    return t.make_initial(cfg)


def coords(grid):
    """Physical coordinates (X, Y) of the grid points, indexed [ix, iy]."""
    x = np.arange(grid.n) * grid.spacing
    return np.meshgrid(x, x, indexing="ij")


def with_nan(s, field):
    """Copy of state s with one NaN sample in u.x, v.x or theta."""
    bad = {"u_x": s.u.x, "v_x": s.v.x, "theta": s.theta}[field].phys.copy()
    bad[3, 5] = np.nan
    f = t.SpectralField.from_phys(s.grid, bad)
    u, v, theta = s.u, s.v, s.theta
    if field == "u_x":
        u = t.VectorField(f, u.y)
    elif field == "v_x":
        v = t.VectorField(f, v.y)
    else:
        theta = f
    return t.State.from_fields(u, v, theta, s.t, s.eps)


def off_block_fields(s, seed):
    """The fields (u, v, theta) of state s rebuilt from their grid samples
    plus, by hand, content at every mode past n/3 of each spectrum, the
    Nyquist lines included: modes that ``SpectralField.from_phys`` drops, so
    the fields are those of s to transform roundoff."""
    g = s.grid
    noise = np.fft.rfft2(np.random.default_rng(seed).standard_normal((5, g.n, g.n)))
    lo, hi, cols = t.spectral.kept_block(g.n)
    noise[:, :lo, :cols] = noise[:, hi:, :cols] = 0.0
    samples = np.fft.irfft2(noise, s=(g.n, g.n)) + [a.phys for a in (*s.u, *s.v, s.theta)]
    f = [t.SpectralField.from_phys(g, x) for x in samples]
    return t.VectorField(f[0], f[1]), t.VectorField(f[2], f[3]), f[4]


def rel_l2(a, b):
    d = t.norm(a - b, "L2")
    s = t.norm(b, "L2")
    return d / s if s > 0 else d


@pytest.fixture(scope="session")
def std_run():
    """One medium-resolution regularized run shared across diagnostics tests."""
    cfg = t.SimConfig(
        n=64,
        dt=2e-3,
        horizon=0.5,
        preset="random_band",
        eps=0.1,
        band_lo=1,
        band_hi=4,
        u_amp=1.0,
        v_amp=0.5,
        theta_amp=0.5,
        seed=42,
        diag_stride=2,
        snap_stride=25,
    )
    return t.simulate(cfg)
