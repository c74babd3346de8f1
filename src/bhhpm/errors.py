class BHError(Exception):
    """Base class for all package-specific errors."""


class AlgebraDomainError(BHError, ValueError):
    """Operands live in incompatible domains (different radicands)."""


class EvaluationError(BHError, ArithmeticError):
    """Numeric evaluation is impossible at the requested point."""


class ProblemDomainError(BHError, ValueError):
    """Problem parameters violate a mathematical precondition."""


class UnsupportedProblemError(BHError, ValueError):
    """The problem is valid but outside the symbolic pipeline's scope."""


class ContractViolation(BHError, RuntimeError):
    """An API was called outside its stated contract."""
