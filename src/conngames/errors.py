"""Exception types shared across the package."""


class InvalidDomainError(ValueError):
    """Raised when a solver is handed a domain that fails validation."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("invalid domain: " + "; ".join(self.violations))


class CapExceededError(RuntimeError):
    """Instance too large for an exact solver; names the cap that was hit."""

    def __init__(self, message, cap):
        self.cap = cap
        super().__init__(message)


class DegenerateDomainError(ValueError):
    """Core-style queries are refused on all-win / all-lose domains."""
