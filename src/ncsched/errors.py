"""Exception and warning types shared across the package."""


class NcsError(Exception):
    """Base class for all package errors."""


class SchemaError(NcsError):
    """An instance or report file does not match the expected schema."""


class NotReachableError(NcsError):
    """One or more plants fail the controllability rank test.

    ``plants`` holds the offending 0-based indices; empty when the error
    refers to a single plant outside any instance.
    """

    def __init__(self, plants=()):
        self.plants = tuple(plants)
        if self.plants:
            shown = ", ".join(str(i + 1) for i in self.plants)
            message = f"plants not reachable (1-based): {shown}"
        else:
            message = "plant pair (A, b) is not reachable"
        super().__init__(message)


class WindowOverflowError(NcsError):
    """A steering window does not fit inside the horizon."""


class HorizonTooShortError(NcsError):
    """The horizon does not exceed some plant's state dimension."""


class TooLargeError(NcsError):
    """A combinatorial routine was asked to enumerate more than its cap allows."""


class SolverStallError(NcsError):
    """The LP backend failed, or an equality system's target leaves its matrix range."""


class NonFiniteError(NcsError):
    """A lifted matrix, deadbeat burst or simulated state overflowed to a non-finite value."""


class RejectionBudgetError(NcsError):
    """Instance generation exhausted its redraw budget for one plant."""


class NoSolutionFoundError(NcsError):
    """Every solve route was exhausted without a verified schedule.

    ``code`` is a stable machine-readable tag; ``reasons`` lists one line per
    attempted route.
    """

    def __init__(self, message, code=None, reasons=()):
        self.code = code
        self.reasons = tuple(reasons)
        super().__init__(message)


class IllConditionedWarning(UserWarning):
    """A controllability matrix is nearly singular; results may lose accuracy."""
