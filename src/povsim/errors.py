"""Exception types raised across the simulation engine."""

from __future__ import annotations


class PovsimError(Exception):
    """Base class for all engine errors."""


class DataError(PovsimError):
    """Malformed or inconsistent input data.

    Carries file / row / column context when the problem was found while
    parsing an input file, so messages are actionable.
    """

    def __init__(self, message: str, *, file: str | None = None,
                 row: int | None = None, column: str | None = None) -> None:
        self.message = message
        self.file = file
        self.row = row
        self.column = column
        parts = []
        if file is not None:
            parts.append(f"file={file}")
        if row is not None:
            parts.append(f"row={row}")
        if column is not None:
            parts.append(f"column={column}")
        ctx = f" ({', '.join(parts)})" if parts else ""
        super().__init__(f"{message}{ctx}")


class ConfigError(PovsimError):
    """Invalid, incomplete or unknown configuration."""


class CalibrationError(PovsimError):
    """Calibration failed to reach its target within the iteration budget."""

    def __init__(self, message: str, *, best_rate: float | None = None,
                 iterations: int | None = None) -> None:
        self.best_rate = best_rate
        self.iterations = iterations
        if best_rate is not None:
            message = f"{message} (best achieved rate: {best_rate:.4f})"
        super().__init__(message)


class PipelineError(PovsimError):
    """A scenario pipeline stage failed; names the stage for diagnosis."""

    def __init__(self, stage: str, message: str) -> None:
        self.stage = stage
        super().__init__(f"stage '{stage}': {message}")
