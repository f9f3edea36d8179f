"""Exception hierarchy shared across the package.

Each class names its CLI exit code by its base: a ``DataError`` (a bad
or unusable input file or signal) exits 2, a ``UsageError`` (a bad flag,
parameter or spec) exits 1, and any other ``TfilmError`` is a failed
invariant or check and exits 3.
"""


class TfilmError(Exception):
    """Base class for all library errors."""


class DataError(TfilmError):
    """The input data is malformed, inconsistent or too short for the run."""


class UsageError(TfilmError):
    """An argument, parameter or spec is out of its valid range."""


# --- tensor / autodiff ---

class ShapeMismatch(DataError):
    def __init__(self, op, a, b):
        super().__init__(f"{op}: incompatible shapes {tuple(a)} vs {tuple(b)}")


class NonDivisibleLength(DataError):
    pass


class NonScalarRoot(TfilmError):
    pass


class NoTape(TfilmError):
    """backward() from a root that recorded no tape."""


class NonDeterministicFunction(TfilmError):
    pass


# --- layers ---

class ChannelMismatch(DataError):
    pass


class ChannelsNotDivisible(TfilmError):
    pass


class InvalidRate(UsageError):
    pass


# --- model ---

class ConfigInvariantViolation(UsageError):
    pass


class LengthInvariantViolation(DataError):
    pass


# --- dsp ---

class InvalidCutoff(UsageError):
    pass


class InvalidRipple(UsageError):
    pass


class TooShort(DataError):
    pass


class LengthMismatch(DataError):
    pass


class ZeroReference(DataError):
    pass


# --- data / io ---

class InvalidSpec(UsageError):
    pass


class NonFiniteSamples(DataError):
    pass


class PatchTooLong(DataError):
    pass


class BadMagic(DataError):
    pass


class BadCheckpointConfig(DataError):
    """The model config stored in a checkpoint does not parse or is not a
    valid ``ModelConfig``: a corrupt file, not a usage error."""


class TruncatedFile(DataError):
    pass


class UnsupportedWavEncoding(DataError):
    pass


# --- training ---

class EmptyDataset(DataError):
    pass


class NonFiniteLoss(TfilmError):
    pass
