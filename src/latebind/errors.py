"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Invalid spec, config, or argument values."""


class ConfigurationError(ValueError):
    """Runtime configuration unusable (e.g. uncalibrated thresholds)."""


class NoBreakEvenError(RuntimeError):
    """Device cost lines never cross: offloading can never amortize."""


class MemoryBudgetExceeded(RuntimeError):
    """Working set outgrew the memory budget with no spill path."""


class ResultMismatchError(RuntimeError):
    """The same query produced different results under different modes or
    variants; late binding soundness is broken."""
