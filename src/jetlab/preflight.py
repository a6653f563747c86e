"""What a command checks before it runs: the configuration error and the output directory.

Standard library only: ``cli.main`` loads this module before it knows which
command runs, and each command loads its own stack after it.
"""

from __future__ import annotations

from pathlib import Path


class ConfigError(ValueError):
    """Configuration problem located at a dotted field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def preflight_output_dir(path: str) -> Path:
    """Create the output directory and prove writability before any stepping."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except ValueError as exc:  # an embedded NUL byte
        raise OSError(f"output directory {path!r} is not a valid path: {exc}") from None
    probe = out / ".write_probe"
    try:
        probe.write_text("ok")
        probe.unlink()
    except OSError as exc:
        raise OSError(f"output directory {out} is not writable: {exc}") from exc
    return out
