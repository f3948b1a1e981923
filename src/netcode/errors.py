"""Exception hierarchy shared across the package.

Every error raised on a bad input derives from :class:`InputError`, every
resource cutoff from :class:`ResourceLimit`.  The CLI maps these onto its
exit codes, so new exceptions should subclass one of the two.
"""

from __future__ import annotations


def sized(count: int) -> str:
    """A count for an error message: its digits up to 30 of them, else its
    size, "2^e" or, for no power of two, "over 2^e"."""
    e = count.bit_length() - 1
    return str(count) if e < 99 else f"2^{e}" if count == 1 << e else f"over 2^{e}"


class NetcodeError(Exception):
    """Base class for all package errors."""


class InputError(NetcodeError):
    """A document, argument, or precondition was invalid."""


class ResourceLimit(NetcodeError):
    """An enumeration or table exceeded its configured bound."""


# ---------------------------------------------------------------- instances

class MalformedDocument(InputError):
    """Structurally broken instance/code/chain document."""


class UnknownVertex(InputError):
    pass


class NonPositiveCapacity(InputError):
    pass


class BadDemandMatrix(InputError):
    pass


class DuplicateEdge(InputError):
    pass


class EdgeExists(InputError):
    pass


class EdgeMissing(InputError):
    pass


class EdgePresent(InputError):
    """A probe pair (u, u') must not be an existing edge."""


class NonPositiveScale(InputError):
    pass


class BadPath(InputError):
    pass


class InteriorNodeCollision(InputError):
    pass


class NotConnected(InputError):
    pass


class BadSets(InputError):
    pass


class NoEdges(InputError):
    pass


# -------------------------------------------------------------------- codes

class SplitCapacityViolation(InputError):
    """A directional alphabet split exceeds floor(2**(cap*n)) on some edge."""


class SymbolOutOfRange(InputError):
    """An encoder or decoder produced a value outside its declared alphabet."""


class CapacityOverflow(InputError):
    """Routed loads do not fit the edge alphabet at some timestep."""


class BadRoute(InputError):
    pass


class BadRate(InputError):
    """Requested rate vector is incompatible with the code's message spaces."""


class EnumerationTooLarge(ResourceLimit):
    pass


class TableTooLarge(ResourceLimit):
    """A tabulated encoder/decoder would exceed the serialization limit."""


class BitBudgetExceeded(ResourceLimit):
    """An alphabet or message space floor(2**e) with e past rational.MAX_BITS."""


class SeedSearchFailed(ResourceLimit):
    """No permutation seed within the retry budget met the error target."""


# --------------------------------------------------------------- transforms

class DistanceTooSmall(InputError):
    """Outer-code minimum distance below the decode-success threshold."""


class AlphabetTooSmallForRS(InputError):
    pass


class NotInterleaved(InputError):
    """pipeline_path requires a code produced by interleave."""


class BadPathInstance(InputError):
    """Path instance does not match the expected edge-to-path replacement."""


class AlphabetInclusionFails(InputError):
    """Re-blocking inequality floor(2**(cap*n*m)) <= floor(2**(cap*(n+1)))**m fails."""


class NotABridge(InputError):
    pass
