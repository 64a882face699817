"""Exception hierarchy shared across the package."""


class ZipCrtError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ZipCrtError, ValueError):
    """A parameter or derived quantity fell outside its admissible range."""


class ConfigError(ZipCrtError, ValueError):
    """A configuration (file or programmatic) is missing or contradictory."""


class EstimationError(ZipCrtError, RuntimeError):
    """Model fitting is impossible on the given data (an arm absent or with
    all-zero outcomes, too few clusters, singular systems)."""


class StudyError(ZipCrtError, RuntimeError):
    """A simulation study produced too many failed replicates to report
    honest rejection rates."""
