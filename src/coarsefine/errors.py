"""Exception hierarchy shared by all modules.

Each class carries the process exit code used by the command-line tool:
usage problems exit 1, data/model problems exit 2, numerical failures
exit 3.
"""


class CoarseFineError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class UsageError(CoarseFineError):
    """Bad command-line arguments or configuration values."""

    exit_code = 1


class InputError(CoarseFineError):
    """Invalid runtime input: empty batches, all-zero scores, bad enums."""

    exit_code = 2


class DimensionError(CoarseFineError):
    """Tensor shapes do not compose or do not match a declared shape."""

    exit_code = 2


class ModelFormatError(CoarseFineError):
    """A model/calibration/mask file on disk is malformed."""

    exit_code = 2


class FrozenLayerError(CoarseFineError):
    """Attempted perturbation or zeroth-order scoring of a frozen layer."""

    exit_code = 2


class UnknownLayerError(CoarseFineError):
    """Layer or block name not present in the model."""

    exit_code = 2


class FeasibilityError(CoarseFineError):
    """Sparsity targets cannot be met (p_max too tight for the budget)."""

    exit_code = 2


class NumericalError(CoarseFineError):
    """Non-finite values or singular systems encountered mid-computation."""

    exit_code = 3
