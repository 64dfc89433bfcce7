"""Error types shared across the package.

Each class names the precondition it reports; none of them carry extra
state beyond the message.
"""


class ForgeError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatch(ForgeError):
    """A partition / weight has the wrong length or violates monotonicity."""


class EmptyShape(ForgeError):
    """An operation that needs a nonempty partition received the empty one."""


class NotRenormalizable(ForgeError):
    """Weight blocks must be strictly decreasing to admit the half-form shift."""


class TooLarge(ForgeError):
    """A basis or linear system exceeds the configured size cap."""


class RankTooSmall(ForgeError):
    """The ambient rank k cannot accommodate the requested column frame."""


class BadWeight(ForgeError):
    """No orbit level set or quantized label has the given weight."""


class InvariantBroken(ForgeError):
    """An internal invariant that the construction guarantees did not hold."""
