"""Exception taxonomy shared across the package.

The CLI maps these onto its exit-code contract: configuration/input problems
exit 2, non-convergence exits 3, numerical failures exit 4.  A ``ModelError``
is a ``ConfigurationError`` (the model is an input), so it exits 2 as well.
"""


class ModalBayesError(Exception):
    """Base class for all package errors."""


class ConfigurationError(ModalBayesError):
    """Invalid inputs, dimensions, files or settings."""


class ModelError(ConfigurationError):
    """Structural model violates a physical requirement (e.g. non-SPD mass)."""


class NumericalError(ModalBayesError):
    """A linear-algebra or optimization step failed numerically."""
