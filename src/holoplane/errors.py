"""Exception types shared across the package."""


class HoloplaneError(Exception):
    """Base class for all package errors."""


class OutOfHalfspaceError(HoloplaneError):
    """Direction does not point into the measurement half-space ((theta, omega) <= 0)."""


class SingularEvaluationError(HoloplaneError):
    """Field evaluation requested at (or too close to) a source point."""


class ExceptionalDirectionError(HoloplaneError):
    """Bounded-offset point selection requested inside the exceptional direction set."""


class InfeasibleParametersError(HoloplaneError):
    """Quadratic step-size equation has no real solution for the given parameters."""


class DegenerateDeterminantError(HoloplaneError):
    """Two-point system determinant is below the usable floor."""


class OutOfPatchError(HoloplaneError):
    """Interpolation requested outside the sampled grid patch."""


class UndefinedDenominatorError(HoloplaneError):
    """Relative error denominator vanishes on the requested region."""


class ConfigError(HoloplaneError):
    """Malformed or inconsistent experiment configuration; `keys` names the
    config keys the broken rule reads, and `line` the line blamed for it."""

    def __init__(self, message, *keys, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.keys = keys
        self.line = line


class DomainError(ValueError):
    """A parameter out of its domain; `keys` names the parameters the rule reads."""

    def __init__(self, message, *keys):
        super().__init__(message)
        self.keys = keys
