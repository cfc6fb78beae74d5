"""Exception types shared across the package."""

import copyreg


class StringLabError(Exception):
    """Base class for all package errors.

    Every package error pickles, so that it crosses from a forked child
    (`evolve.forked`) to its parent with its type, message and attributes.
    The default pickling calls the class with `args`, which fails for a
    subclass whose __init__ takes other arguments; these rebuild from
    `args` and the instance dict without calling __init__.
    """

    def __reduce__(self):
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class TimelikeViolation(StringLabError):
    """Metric determinant g = 1 - Lphi*Lbphi dropped to or below the floor.

    Callers treat this as a blow-up indicator, not a crash: the surface is
    about to stop being timelike.
    """

    def __init__(self, min_g, gmin, where=None):
        self.min_g = float(min_g)
        self.gmin = float(gmin)
        self.where = where
        msg = f"determinant {self.min_g:.3e} <= floor {self.gmin:.3e}"
        if where is not None:
            msg += f" at {where}"
        super().__init__(msg)


class HyperbolicityLoss(StringLabError):
    """1 + p^2 - w^2 <= 0 somewhere: the first-order system left the strictly
    hyperbolic regime and the characteristic speeds are no longer real."""

    def __init__(self, min_disc, where=None):
        self.min_disc = float(min_disc)
        self.where = where
        msg = f"hyperbolicity discriminant {self.min_disc:.3e} <= 0"
        if where is not None:
            msg += f" at {where}"
        super().__init__(msg)


class BlowupDetected(StringLabError):
    """Raised by the time stepper when the evolution cannot continue.  For
    an ensemble step, members holds each member's reason at the first check
    that one failed (None if it passed)."""

    def __init__(self, t_last, reason, members=None):
        self.t_last = float(t_last)
        self.reason = reason
        self.members = members
        super().__init__(f"blow-up at t={self.t_last:.6g}: {reason}")


class DataOutOfRange(StringLabError):
    """The t = 0 fields hold a non-finite value or exceed the field cap: an
    input error, raised before any geometry is computed from them."""


class FitOverflow(StringLabError):
    """A sweep's M2 is so large that the hierarchy constants overflow."""


class InsufficientHistory(StringLabError):
    """Not enough time levels for a computation that spans several of them:
    a derivative tower, tracing characteristics through a run, or the
    discrete energy balance of a run."""


class ParseError(StringLabError):
    """Config text could not be parsed."""

    def __init__(self, lineno, msg):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {msg}")


class ValidationError(StringLabError):
    """Config parsed but violates an invariant."""
