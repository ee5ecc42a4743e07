"""Exception types shared across the library."""


class LevycmError(Exception):
    """Base class for all library errors."""


class ValidationError(LevycmError):
    """A spec payload is structurally invalid.

    ``field`` names the offending entry, e.g. ``"atoms[0].w"``.
    """

    def __init__(self, field, message):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")


class RogersViolationError(LevycmError):
    """Sampled validation found re(f(xi)/xi) < 0; ``witness`` is the point."""

    def __init__(self, witness, value, message="sampled Rogers condition violated"):
        self.witness = witness
        self.value = value
        super().__init__(f"{message} at xi={witness!r}: re(f/xi)={value:.3e}")


class DomainError(LevycmError):
    """Evaluation requested outside the domain of the function."""


class QuadratureError(LevycmError):
    """Adaptive quadrature did not converge; carries the partial result."""

    def __init__(self, value, err_estimate, message="quadrature did not converge"):
        self.value = value
        self.err_estimate = err_estimate
        super().__init__(f"{message} (partial value {value}, err_estimate {err_estimate:.3e})")


class MethodUnsupportedError(LevycmError):
    """The requested method does not apply to this spec."""


class EstimationError(LevycmError):
    """A boundary value on the imaginary axis is not finite, even beside a pole."""


class SpineUndefinedError(LevycmError):
    """The spine is undefined (constant exponent)."""
