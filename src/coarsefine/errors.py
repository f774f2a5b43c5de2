"""Exception hierarchy shared by all modules.

Each class carries the process exit code used by the command-line tool.
The base class's 2 (data/model problems) holds unless a class sets its
own: usage problems exit 1, numerical failures exit 3.
"""


class CoarseFineError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class UsageError(CoarseFineError):
    """Bad command-line arguments or configuration values."""

    exit_code = 1


class InputError(CoarseFineError):
    """Invalid runtime input: empty batches, all-zero scores, bad enums."""


class DimensionError(CoarseFineError):
    """Tensor shapes do not compose or do not match a declared shape."""


class ModelFormatError(CoarseFineError):
    """A model/calibration/mask file on disk is malformed."""


class FrozenLayerError(CoarseFineError):
    """Attempted perturbation or zeroth-order scoring of a frozen layer."""


class UnknownLayerError(CoarseFineError):
    """Layer or block name not present in the model."""


class FeasibilityError(CoarseFineError):
    """Sparsity targets cannot be met (p_max too tight for the budget)."""


class NumericalError(CoarseFineError):
    """Non-finite values or singular systems encountered mid-computation."""

    exit_code = 3
