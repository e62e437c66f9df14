"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single type at the public API boundary.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class IsaError(ReproError):
    """An instruction was constructed with invalid operands or fields."""


class ExecutionError(ReproError):
    """The functional simulator hit an illegal state while executing."""


class MemoryError_(ReproError):
    """A memory access fell outside the simulated address space."""


class ConfigError(ReproError):
    """A processor or memory-system configuration is inconsistent."""


def require_positive(config, names) -> None:
    """Raise :class:`ConfigError` unless every field of ``config`` named
    in ``names`` (a width, count or size: no machine has 0 of it) is at
    least 1."""
    for name in names:
        value = getattr(config, name)
        if value < 1:
            raise ConfigError(
                f"{type(config).__name__}.{name} must be >= 1, "
                f"got {value}")


class CompileError(ReproError):
    """The loop-nest compiler could not vectorize the given nest."""
