"""Configuration errors that name the knob they reject."""

from __future__ import annotations


class ConfigError(ValueError):
    """A rejected configuration value; ``field`` names the knob.

    A ``ValueError``, so callers that only care that construction failed
    need nothing new; front ends (the CLI) read ``field`` to name the flag
    the value came from.
    """

    def __init__(self, field: str, message: str) -> None:
        super().__init__(message)
        self.field = field


def require(ok: bool, field: str, message: str) -> None:
    """Raise :class:`ConfigError` for ``field`` unless ``ok``."""
    if not ok:
        raise ConfigError(field, message)
