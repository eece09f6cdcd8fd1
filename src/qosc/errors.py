"""Exception types shared across the package."""


class QoscError(Exception):
    """Base class for all qosc errors."""


class DegenerateParameter(QoscError):
    """Deformation parameter at or within the guard band of a singular locus."""


class ParityViolation(QoscError):
    """Branch index l breaks the sign rule that makes the state norms positive."""


class ModeMismatch(QoscError):
    """Operation requested for a deformation mode it is not defined on."""


class DimensionTooLarge(QoscError):
    """Dimension exceeds the fixed cap ``repbuild.MAX_K`` on ``k``."""


class NoSolution(QoscError):
    """Matrix equations for an involution admit no solution within tolerance."""


class ParamMismatch(QoscError):
    """Operands were built with different deformation parameters."""
