"""Shared exception types."""


class ShapeMismatch(ValueError):
    """Operand shapes are incompatible."""


class BadGeometry(ValueError):
    """Convolution/pooling geometry yields no valid output."""


class OutOfRange(ValueError):
    """Quantized value falls outside the representable range."""


class EmptyDataset(ValueError):
    """An operation requiring samples received none."""


class FormatError(ValueError):
    """A T3B or TCNN file (or stream) is malformed."""


class Diverged(ValueError):
    """Training left a parameter NaN or infinite."""
