"""Exception types shared across the package. Messages carry the offending values."""


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
        self.step = int(step)
        super().__init__(message or f"non-finite loss at step {step}")


class DegenerateTriangleError(ValueError):
    """A (near-)zero-area triangle where a proper one is required."""


class FormatError(ValueError):
    """A file does not follow its declared format."""


class ConfigError(ValueError):
    """An invalid or inconsistent run configuration."""
