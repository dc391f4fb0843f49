"""Environment-variable parsing for the ``from_env`` configs and the
query-option defaults: unset, empty or unparsable values yield the
default, and a flag is on unless it reads ``0`` / ``false`` / ``no`` /
``off``."""

from __future__ import annotations

import os
from typing import Callable, Mapping, Optional


def env_value(key: str, cast: Callable[[str], object], default,
              env: Optional[Mapping[str, str]] = None):
    """``cast(env[key])``, or *default* when unset, empty or invalid."""
    raw = (os.environ if env is None else env).get(key)
    if raw is None or raw == "":
        return default
    try:
        return cast(raw)
    except (TypeError, ValueError):
        return default


def env_flag(key: str, default: bool,
             env: Optional[Mapping[str, str]] = None) -> bool:
    """A boolean switch: *default* when unset or empty."""
    raw = (os.environ if env is None else env).get(key)
    if raw is None or raw == "":
        return default
    return raw.strip().lower() not in ("0", "false", "no", "off")
