"""Exception types shared across the package, and the CLI's exit codes.

Each error class carries the code the CLI exits with when it is raised:
configuration problems exit with 2, numerical/model failures with 3, and
I/O or file-format problems with 4.  An interrupt exits with 130.
"""

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4
EXIT_INTERRUPTED = 130


class PcekitError(Exception):
    """Base class for all package-specific errors."""

    exit_code = EXIT_NUMERIC


class ConfigurationError(PcekitError):
    """A parameter, range, or config document is invalid."""

    exit_code = EXIT_CONFIG


class EvaluationError(PcekitError):
    """A black-box model (or integrand) failed to evaluate."""

    exit_code = EXIT_NUMERIC


class ZeroVarianceError(PcekitError):
    """Sensitivity indices are undefined because the output variance is zero."""

    exit_code = EXIT_NUMERIC


class ModelFormatError(PcekitError):
    """A persisted model or cache document is malformed or has the wrong version."""

    exit_code = EXIT_IO
