"""Exception types shared across the package."""


class SloccInvError(Exception):
    """Base class for all package-specific errors."""


class LengthMismatch(SloccInvError, ValueError):
    """Amplitude or operator count does not match the declared qubit count."""


class AllZero(SloccInvError, ValueError):
    """A state vector with no nonzero amplitude was supplied."""


class IndexOutOfRange(SloccInvError, IndexError):
    """Sign-table or subscript index outside its defined range."""


class ParityError(SloccInvError, ValueError):
    """Operation applied to a qubit count of the wrong parity."""


class SizeMismatch(SloccInvError, ValueError):
    """Two states (or a state and a fixed-size formula) disagree on qubit count."""


class TooFewQubits(SloccInvError, ValueError):
    """Operation requires more qubits than the state has."""


class ParseError(SloccInvError, ValueError):
    """Malformed JSON input: wrong schema, bad counts, or non-finite numbers."""


class BadArgs(SloccInvError, ValueError):
    """Invalid command-line arguments or configuration values."""


class BadWitness(SloccInvError, ValueError):
    """A witness chain is singular or does not map the first state to the second."""


class NormOverflow(SloccInvError, OverflowError):
    """A value outside the float range.

    Raised for NaN/Inf amplitudes or operator entries, for a raw invariant
    or criterion value too large to report, and for a vanishing threshold
    that is not a finite float.
    """
