"""Exception taxonomy shared across the package."""


class HireMlpError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(HireMlpError, ValueError):
    """Operand shapes are mutually inconsistent."""


class InvalidInputError(HireMlpError, ValueError):
    """Input values violate an operation's precondition."""


class ConfigError(HireMlpError, ValueError):
    """A configuration or parameter structure is internally inconsistent."""


class UsageError(HireMlpError, ValueError):
    """A command-line argument or the file it names cannot be used."""


class UnsupportedOpError(HireMlpError, KeyError):
    """Backward pass hit an op kind with no registered adjoint."""
