"""Shared exception types."""


class InfeasibleError(Exception):
    """A (sub)problem has an empty feasible set.

    `reason` is a short machine-readable tag; `detail` carries numbers for
    diagnostics (budget shortfalls, violated caps).
    """

    def __init__(self, reason, detail=""):
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason}: {detail}" if detail else reason)


class ConfigError(Exception):
    """Invalid or unparseable run configuration."""


class CheckError(Exception):
    """An answer failed the constraint check it must pass before output."""
