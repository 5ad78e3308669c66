"""Error taxonomy shared by the library and the CLI.

Every error carries a category that maps onto a POSIX exit code:
input 2, model 3, numerical 4, resource 5.
"""

EXIT_INPUT = 2
EXIT_MODEL = 3
EXIT_NUMERICAL = 4
EXIT_RESOURCE = 5


class KernelTowerError(Exception):
    """Base class for all library errors."""

    exit_code = 1
    category = "error"


class InputError(KernelTowerError):
    """Bad arguments, malformed configs, out-of-range symbols."""

    exit_code = EXIT_INPUT
    category = "input"


class ContractError(InputError):
    """An operation was called outside its stated contract."""


class ModelError(KernelTowerError):
    """The supplied model violates a required property (PSD, subinvariance...)."""

    exit_code = EXIT_MODEL
    category = "model"


class DivergenceError(ModelError):
    """Diagonal blow-up: the tower diagonal exceeded the configured ceiling.

    Points the caller at the diagonal classification tools (Lyapunov
    certificates / blow-up witnesses) instead of deeper iteration.
    """

    def __init__(self, message, level=None, diagonal=None):
        super().__init__(message)
        self.level = level
        self.diagonal = diagonal


class NumericalError(KernelTowerError):
    """A numerical procedure failed beyond its tolerance budget."""

    exit_code = EXIT_NUMERICAL
    category = "numerical"


class ResourceError(KernelTowerError):
    """An enumeration would exceed the configured resource cap."""

    exit_code = EXIT_RESOURCE
    category = "resource"
