"""Exception types shared across the package."""


class MinusordError(Exception):
    """Base class for library-specific failures."""


class ComplementError(MinusordError, ValueError):
    """A required direct-sum complement condition does not hold; ``complement``
    names the one that failed ("M", "N", "n1", ...) when the raiser knows it."""

    def __init__(self, message, complement=None):
        super().__init__(message)
        self.complement = complement


class GroupInvertibilityError(MinusordError, ValueError):
    """An operation needs rank(A @ A) == rank(A) and the input fails it."""


class MembershipError(MinusordError, ValueError):
    """A vector is not contained in the required column space."""


class OrderConditionError(MinusordError, RuntimeError):
    """A partial-order precondition of an operation does not hold.

    Carries the diagnostic :class:`~minusord.orders.OrderReport` of the
    failed check when one is available.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class VerificationError(MinusordError, ArithmeticError):
    """An internal cross-check of a constructed result exceeded tolerance.

    ``check`` names the check (it is also the message), ``residual`` is
    what it measured and ``bound`` the largest residual it allows, when
    the raiser knows them.
    """

    def __init__(self, check, residual=None, bound=None):
        super().__init__(check)
        self.check = check
        self.residual = residual
        self.bound = bound
