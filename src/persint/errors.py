"""Exception types shared across the package, and the positive-parameter rule."""

import math


class PersintError(Exception):
    """Base class for errors raised by this package."""

    exit_code = 3


class InvalidParameterError(PersintError):
    """A parameter violates its documented constraint."""


def check_positive(name, value):
    """Raise InvalidParameterError unless ``value`` is finite and > 0 (NaN is not)."""
    if not 0 < value < math.inf:
        raise InvalidParameterError(f"{name} must be finite and > 0, got {value}")


class InvalidInputError(PersintError):
    """An input object is unusable for the requested operation."""


class IncompatibleGridsError(InvalidInputError):
    """Grids do not share the spec/bandwidth/weights needed to combine them."""


class DegenerateGraphError(PersintError):
    """Similarity graph has an isolated node; normalized Laplacian undefined."""


class DegenerateStatisticError(PersintError):
    """A statistic is undefined because its variance estimate is zero."""


class InvariantError(PersintError):
    """An algorithm broke an invariant it guarantees; a defect, not bad input."""


class CsvFormatError(PersintError):
    """A CSV artifact failed to parse. Carries the offending line number."""

    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line
        self.message = message


class ConfigError(PersintError):
    """Configuration failed validation. Carries one message per violation."""

    exit_code = 2

    def __init__(self, errors):
        self.errors = [str(e) for e in errors]
        super().__init__("; ".join(self.errors))


class StageError(PersintError):
    """A pipeline stage failed; carries the stage name and its parameters."""

    def __init__(self, stage, params, cause):
        self.stage = stage
        self.params = dict(params)
        self.cause = cause
        super().__init__(f"stage {stage!r} failed (params {self.params}): {cause}")
