"""Exception hierarchy for the risk engine.

Exit-code mapping used by the CLI:
    ConfigError        -> 2
    DataError          -> 3
    InfeasibleError    -> 4
    NumericDomainError / DegenerateError  -> 5
Plain ValueError raised by precondition guards is treated as a config error.
"""

from __future__ import annotations


class EpcovarError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(EpcovarError):
    """Invalid run configuration (bad flag, bad views file, unsupported combo)."""


class DataError(EpcovarError):
    """Input data unusable (missing column, too few rows, unparseable cell)."""


class InfeasibleError(EpcovarError):
    """The constrained entropy minimization admits no solution within tolerance.

    ``residual`` carries the certificate: the smallest max constraint violation
    that any posterior on the panel can reach, from ``compile_view`` for a row
    that reads one value on every scenario (0 for an empty region, 1 for a
    full one), or from the solver's phase-I program.
    In the rare case that the view is attainable but the solver runs out of
    iterations, it carries the best violation the solver attained instead.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class DegenerateError(EpcovarError):
    """Posterior mass collapsed below the positivity floor.

    Raised instead of silently clipping, so pathological (e.g. bimodal,
    split-support) posteriors surface to the caller: the view is met, or can
    be met, only as some weights vanish. ``min_log_weight`` is the natural log
    of the smallest weight of the first solver iterate that fell below the
    floor, not of a limit the weights approach.
    """

    def __init__(self, message: str, min_log_weight: float):
        super().__init__(message)
        self.min_log_weight = min_log_weight


class NumericDomainError(EpcovarError):
    """A closed-form expression was evaluated outside its valid domain."""
