"""Exception types shared across the package."""


class RfplanError(Exception):
    """Base class for all package errors."""


class ScenarioParseError(RfplanError):
    """Scenario file could not be read or does not match the schema."""


class ScenarioValidationError(RfplanError):
    """Scenario parsed but violates an invariant.

    Carries the full violation list; the message names the first one.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        first = self.violations[0]
        super().__init__(f"{first.code} at {first.path}: {first.message}")


class DomainError(RfplanError):
    """Input outside the validity envelope of a propagation model."""


class InfeasibleError(RfplanError):
    """Link budget cannot close even at the minimum distance."""


class InputError(RfplanError):
    """Inconsistent or malformed user-supplied input files."""
