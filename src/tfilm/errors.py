"""Exception hierarchy shared across the package."""


class TfilmError(Exception):
    """Base class for all library errors."""


# --- tensor / autodiff ---

class ShapeMismatch(TfilmError):
    def __init__(self, op, a, b):
        super().__init__(f"{op}: incompatible shapes {tuple(a)} vs {tuple(b)}")


class NonDivisibleLength(TfilmError):
    pass


class NonScalarRoot(TfilmError):
    pass


class NoTape(TfilmError):
    """backward() from a root that recorded no tape."""


class NonDeterministicFunction(TfilmError):
    pass


# --- layers ---

class ChannelMismatch(TfilmError):
    pass


class KernelLargerThanInput(TfilmError):
    pass


class ChannelsNotDivisible(TfilmError):
    pass


class InvalidRate(TfilmError):
    pass


# --- model ---

class ConfigInvariantViolation(TfilmError):
    pass


class LengthInvariantViolation(TfilmError):
    pass


# --- dsp ---

class InvalidCutoff(TfilmError):
    pass


class InvalidRipple(TfilmError):
    pass


class TooShort(TfilmError):
    pass


class SignalTooShort(TfilmError):
    pass


class LengthMismatch(TfilmError):
    pass


class ZeroReference(TfilmError):
    pass


# --- data / io ---

class InvalidSpec(TfilmError):
    pass


class PatchTooLong(TfilmError):
    pass


class BadMagic(TfilmError):
    pass


class BadCheckpointConfig(TfilmError):
    """The model config stored in a checkpoint does not parse or is not a
    valid ``ModelConfig``: a corrupt file, not a usage error."""


class TruncatedFile(TfilmError):
    pass


class UnsupportedWavEncoding(TfilmError):
    pass


# --- training ---

class EmptyDataset(TfilmError):
    pass


class NonFiniteLoss(TfilmError):
    pass
