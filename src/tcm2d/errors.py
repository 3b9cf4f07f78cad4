"""Exception types shared across the package.

Each class carries the command-line contract of its errors: ``exit_code``
is the process exit status, and ``fields`` names the attributes that the
``TCM-ERROR`` line reports next to ``error`` and ``detail``.
"""


class TcmError(Exception):
    """Base class for all package-specific errors: a config error or a
    malformed input unless a subclass says otherwise."""

    exit_code = 2
    fields = ()


class BadParams(TcmError):
    """Invalid parameters (grid, preset, band, step sizes, ...)."""


class NonZeroMean(TcmError):
    """Operator requiring a mean-zero field received one with nonzero mean.

    Inverting the Laplacian on the torus is ill-posed on the constant mode;
    the tolerance separates conserved-mean roundoff drift from user error.
    """


class EpsOutOfRange(BadParams):
    """Regularization parameter outside the admissible range [0, 1)."""


class CflViolation(TcmError):
    """Advective CFL guard tripped; the step from time ``t`` was rejected.

    ``step`` is the index of that step in the run that raised it (set by
    ``model._trajectory``, which steps runs, twins and sweep members), or
    None outside a run.
    """

    exit_code = 3
    fields = ("ratio", "limit", "t", "step")

    def __init__(self, ratio, limit, t):
        self.ratio = float(ratio)
        self.limit = float(limit)
        self.t = float(t)
        self.step = None
        super().__init__(
            f"advective CFL ratio {self.ratio:.6g} exceeds limit {self.limit:.6g}"
        )


class NonFiniteState(TcmError):
    """The state holds a NaN or infinity; the step was rejected.

    ``field`` names the offending field ("u", "v" or "theta"); ``t`` and
    ``step`` are as for :class:`CflViolation`.
    """

    exit_code = 3
    fields = ("t", "field", "step")

    def __init__(self, t, field):
        self.t = float(t)
        self.field = field
        self.step = None
        super().__init__(f"non-finite {field} at t = {self.t!r}")


class BadWindow(TcmError):
    """Snapshot window is unusable (wrong length or unequal spacing)."""


class BadSeries(TcmError):
    """A sampled-series invariant is violated; reports the first bad index."""

    def __init__(self, message, index=None):
        self.index = index
        super().__init__(message if index is None else f"{message} (index {index})")


class Infeasible(TcmError):
    """No positive constant can satisfy the inequality on these samples."""


class ConfigParseError(TcmError):
    """Malformed or invalid configuration input."""


class ChecksumMismatch(TcmError):
    """A run directory's manifest cannot be trusted: it is malformed (not
    JSON, or a listed file without a path or checksum), it names another
    snapshot format, or a file it lists is missing or does not match its
    recorded checksum."""

    exit_code = 4


class EmptyTrajectory(TcmError):
    """Diagnostics requested on a trajectory with no records."""
