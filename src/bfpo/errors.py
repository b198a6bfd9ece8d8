"""Exception types shared across the engine."""

from __future__ import annotations


class EngineError(Exception):
    """Base class for every error raised by this package."""


class InputError(EngineError, ValueError):
    """Invalid data passed to an operation (bad tokens, empty sets, ...)."""


class ConfigError(EngineError, ValueError):
    """Invalid or internally inconsistent configuration."""


class NumericError(EngineError, ArithmeticError):
    """Non-finite values appeared where finite numbers are required.

    ``details`` optionally carries a JSON-serializable diagnostic dump of the
    offending computation (e.g. the training batch that produced a NaN).
    """

    def __init__(self, message: str, details: dict | None = None) -> None:
        super().__init__(message)
        self.details = details


class EstimationError(EngineError, RuntimeError):
    """A statistical estimation procedure could not be carried out."""
