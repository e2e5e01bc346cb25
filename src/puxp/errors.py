"""Exception types shared across the package. Messages carry the offending values."""

import math
import numbers


class ShapeError(ValueError):
    """Operands disagree with an operation's shape contract."""


class IndexRangeError(IndexError):
    """A gather index points outside the tensor it gathers from."""


class GradientError(ArithmeticError):
    """A non-finite gradient, network output, or input to a distance kernel.

    Every KNN, nearest-neighbour and point-to-mesh search raises it for a
    non-finite row, naming the row; `puxp` exits 3 on it, and training
    reports it as a DivergenceError at the step.
    """


class DivergenceError(ArithmeticError):
    """Training produced a non-finite loss."""

    def __init__(self, step, message=""):
        self.step = step
        super().__init__(message or f"non-finite loss at step {step}")


class DegenerateTriangleError(ValueError):
    """A (near-)zero-area triangle where a proper one is required."""


class FormatError(ValueError):
    """A file does not follow its declared format."""


class ConfigError(ValueError):
    """An invalid or inconsistent run configuration."""


def integer(name, value, least=1):
    """The one rule for every count, ratio, seed and k: an Integral, not a bool, >= least,
    returned as an int; anything else (2.7, 2.0, "2", None, True) raises ConfigError."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least:
        return int(value)
    raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")


def real(name, value):
    """The one rule for every real-valued setting: a finite Real, not a bool, returned as a
    float; anything else ("0.5", True, None, nan, inf, 10**400) raises ConfigError."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an int beyond every float
            pass
    raise ConfigError(f"{name} must be a finite real number, got {value!r}")
