"""Exception taxonomy shared by every module in the package.

All errors raised on purpose derive from :class:`BcnnError`, so callers
(the CLI in particular) can distinguish anticipated failures from bugs.
"""


class BcnnError(Exception):
    """Base class for every anticipated error in this package."""


class DimensionError(BcnnError):
    """Array shapes are incompatible with the requested operation."""


class DTypeError(BcnnError, TypeError):
    """An array has a dtype, or a value a type, the operation does not accept."""


class ConfigError(BcnnError):
    """A configuration value or hyperparameter is out of range."""


class CorpusError(BcnnError):
    """A dataset is missing, empty, or otherwise unusable."""


class ConsistencyError(BcnnError):
    """Two inputs that must describe the same model or corpus disagree."""


class NumericError(BcnnError):
    """A non-finite value appeared where a finite one is required."""


class UpdateError(BcnnError):
    """An optimizer step was rejected; parameters were left untouched."""


class TrainingError(BcnnError):
    """Training aborted, e.g. the loss became non-finite."""


class FormatError(BcnnError):
    """A binary file does not match its declared layout."""


class VersionError(FormatError):
    """A binary file declares a version this code does not support."""


class IntegrityError(FormatError):
    """A binary file is truncated or internally inconsistent."""
