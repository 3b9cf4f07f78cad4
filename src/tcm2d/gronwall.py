"""Logarithmic Gronwall machinery on sampled series.

Given finite sampled functions A >= 1, B > 0 and nonnegative weights alpha,
beta on an increasing time grid, with a finite constant K > 0, the
differential hypothesis is

    (H)  A'(t) + B(t) <= K * (alpha(t) + log B(t)) * A(t) + beta(t),

and the certified consequence is the double-exponential envelope

    sup_{s<=t} A(s) + int_0^t B ds  <=  (2 Q(t) + 1) exp(Q(t)),
    Q(t) = (log A(0) + K ||alpha||_{L1(0,t)} + ||beta||_{L1(0,t)}
            + 2 K^2 t) * exp(K t).

All integrals are trapezoidal; A' comes from second-order differences
(one-sided at the endpoints); times are measured from the first sample.
The conclusion is never reported false when the hypothesis fails; the
outcome is three-valued: holds / not-applicable / violated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParams, BadSeries, Infeasible
from .model import MIN_SPACING

#: default relative tolerance for hypothesis margins and the conclusion
DEFAULT_TOL = 1e-6
#: lower clip of the fitted K
K_MIN = 1e-6


def check_tol(tol: float) -> None:
    """The tol rule: a tolerance is finite and nonnegative, else BadParams.
    An infinite tol would pass every margin and envelope sample, and a NaN
    or negative one fail every margin."""
    if not 0.0 <= tol < np.inf:
        raise BadParams(f"tol must be finite and nonnegative, got {tol}")


@dataclass(frozen=True)
class GronwallSeries:
    """Sampled (A, B, alpha, beta) with the constant K. A sample that is
    not finite or breaks its rule raises BadSeries with its index (a time
    must follow the one before it by at least :data:`MIN_SPACING`), and so
    does a K that is not finite and positive."""

    times: np.ndarray
    A: np.ndarray
    B: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    K: float = 1.0

    def __post_init__(self):
        for name in ("times", "A", "B", "alpha", "beta"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = self.times.size
        for name in ("A", "B", "alpha", "beta"):
            if getattr(self, name).size != n:
                raise BadSeries(f"{name} has {getattr(self, name).size} samples, times has {n}")
        if n < 2:
            raise BadSeries("need at least two samples")
        for name in ("times", "A", "B", "alpha", "beta"):
            self._first_bad(np.isfinite(getattr(self, name)), f"{name} not finite")
        self._first_bad(np.diff(self.times) > 0, "times not strictly increasing", offset=1)
        self._first_bad(np.diff(self.times) >= MIN_SPACING, f"times closer than {MIN_SPACING:g}", offset=1)
        self._first_bad(self.A >= 1.0, "A < 1")
        self._first_bad(self.B > 0.0, "B <= 0")
        self._first_bad(self.alpha >= 0.0, "alpha < 0")
        self._first_bad(self.beta >= 0.0, "beta < 0")
        if not 0.0 < self.K < np.inf:
            raise BadSeries(f"K must be finite and positive, got {self.K}")

    @staticmethod
    def _first_bad(ok: np.ndarray, message: str, offset: int = 0) -> None:
        bad = np.flatnonzero(~ok)
        if bad.size:
            raise BadSeries(message, index=int(bad[0]) + offset)

    @property
    def elapsed(self) -> np.ndarray:
        return self.times - self.times[0]


def _cumtrapz(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    # scipy.integrate.cumulative_trapezoid(y, t, initial=0.0), in its order of operations
    return np.concatenate(([0.0], np.cumsum(np.diff(t) * (y[1:] + y[:-1]) / 2.0)))


def q_of_t(g: GronwallSeries) -> np.ndarray:
    """The envelope exponent Q at every sample; nondecreasing."""
    t = g.elapsed
    # K t before the second K: a K whose square overflows gives Q = inf
    # after t = 0, the documented result, and Q(0) = log A(0) instead of
    # inf * 0
    with np.errstate(over="ignore"):
        base = (
            np.log(g.A[0])
            + g.K * _cumtrapz(g.alpha, t)
            + _cumtrapz(g.beta, t)
            + 2.0 * g.K * (g.K * t)
        )
        return base * np.exp(g.K * t)


def a_prime(g: GronwallSeries) -> np.ndarray:
    """dA/dt at every sample: second-order differences, or the first-order
    one for a series of two samples, which has no second-order stencil. A
    difference past the float range is infinite, and one of two infinite
    terms NaN, with no warning: the callers treat either."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.gradient(g.A, g.times, edge_order=2 if len(g.A) > 2 else 1)


@dataclass(frozen=True)
class HypothesisReport:
    margins: np.ndarray
    scale: np.ndarray
    holds: bool


def verify_hypothesis(g: GronwallSeries, tol: float = DEFAULT_TOL) -> HypothesisReport:
    """Per-sample margin of (H): K(alpha + log B)A + beta - (A' + B).

    The hypothesis holds where margin >= -tol * scale, with a scale built
    from the magnitudes of every term so the tolerance is relative. It
    fails at a sample whose A', margin or scale is not finite (a term past
    the float range), since no finite tolerance is known there. A tol
    that breaks :func:`check_tol` raises BadParams.
    """
    check_tol(tol)
    dA = a_prime(g)
    logB = np.log(g.B)
    with np.errstate(over="ignore", invalid="ignore"):
        margins = g.K * (g.alpha + logB) * g.A + g.beta - (dA + g.B)
        scale = g.K * (1.0 + g.alpha) * (g.A + np.abs(logB) * g.A) + g.beta + np.abs(dA) + g.B
        ok = np.isfinite(dA) & np.isfinite(margins) & np.isfinite(scale) & (margins >= -tol * scale)
    return HypothesisReport(margins=margins, scale=scale, holds=bool(np.all(ok)))


@dataclass(frozen=True)
class ConclusionReport:
    """Envelope check; ``outcome`` is holds / not-applicable / violated."""

    lhs: np.ndarray
    log_rhs: np.ndarray
    satisfied: np.ndarray
    outcome: str
    hypothesis: HypothesisReport


def conclusion_check(g: GronwallSeries, tol: float = DEFAULT_TOL) -> ConclusionReport:
    """Compare sup A + int B against the envelope (2Q + 1) exp(Q).

    The comparison runs in log space, so astronomically large envelopes do
    not overflow. If the hypothesis fails beyond tolerance the conclusion
    is reported as not-applicable, never as false.
    """
    hyp = verify_hypothesis(g, tol)
    lhs = np.maximum.accumulate(g.A) + _cumtrapz(g.B, g.elapsed)
    q = q_of_t(g)
    log_rhs = q + np.log(2.0 * q + 1.0)
    satisfied = np.log(lhs) <= log_rhs + np.log1p(tol)
    if not hyp.holds:
        outcome = "not-applicable"
    elif bool(np.all(satisfied)):
        outcome = "holds"
    else:
        outcome = "violated"
    return ConclusionReport(
        lhs=lhs, log_rhs=log_rhs, satisfied=satisfied, outcome=outcome, hypothesis=hyp
    )


@dataclass(frozen=True)
class FitResult:
    K: float
    argmax: int


def fit_min_k(times, A, B, alpha, beta) -> FitResult:
    """Smallest K satisfying (H) on every sample, clipped below at K_MIN.

    K = max over samples of (A' + B - beta) / ((alpha + log B) A), taken
    where the numerator is positive. A positive numerator over a
    nonpositive denominator is infeasible.
    """
    g = GronwallSeries(times=times, A=A, B=B, alpha=alpha, beta=beta, K=1.0)
    num = a_prime(g) + g.B - g.beta
    # a denominator that overflows is infinite, and its sample needs no K
    with np.errstate(over="ignore"):
        den = (g.alpha + np.log(g.B)) * g.A
    need = num > 0.0
    if np.any(need & (den <= 0.0)):
        idx = int(np.flatnonzero(need & (den <= 0.0))[0])
        raise Infeasible(f"nonpositive denominator with positive numerator at index {idx}")
    if not np.any(need):
        return FitResult(K=K_MIN, argmax=int(np.argmax(num)))
    ratios = np.where(need, num / np.where(need, den, 1.0), -np.inf)
    arg = int(np.argmax(ratios))
    return FitResult(K=max(float(ratios[arg]), K_MIN), argmax=arg)
