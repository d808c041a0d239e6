"""Exception and warning types shared across the package."""


class MedboundsError(Exception):
    """Base class for all package errors."""


class IngestionError(MedboundsError):
    """Raised when input data cannot be read or fails validation."""


class MissingVariableError(MedboundsError):
    """A design term references a variable the evaluation point lacks.

    ``variable`` names a missing covariate (None for any other lack).
    """

    def __init__(self, message, variable=None):
        super().__init__(message)
        self.variable = variable


class SingularDesignError(MedboundsError):
    """Design matrix is rank deficient on the supplied data."""

    def __init__(self, terms):
        self.terms = list(terms)
        super().__init__(
            "design matrix is rank deficient; collinear terms: "
            + ", ".join(self.terms)
        )


class SeparationError(MedboundsError):
    """Detected (quasi-)complete separation while fitting."""


class ConvergenceError(MedboundsError):
    """Newton iterations exhausted before the score tolerance was met."""

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class DegenerateMediatorError(MedboundsError):
    """Mediator has no effect on the outcome; sensitivity range is undefined."""


class DegenerateMediatorWarning(UserWarning):
    """Mediator effect is numerically zero; limits substituted for bounds."""
