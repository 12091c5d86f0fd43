"""Exception types shared across the package.

The CLI maps these onto exit codes: config/usage problems exit 2,
data and validation problems exit 1.
"""


class SceneSynthError(Exception):
    """Base class for all package-specific failures.

    A fault found in a file names it, and the file line at fault where
    there is one: the message reads `path:line: message`, and `path` and
    `line` are kept.
    """

    def __init__(self, message: str = "", path=None, line: int | None = None):
        loc = ""
        if path is not None:
            loc = f"{path}:"
            if line is not None:
                loc += f"{line}:"
            loc += " "
        super().__init__(f"{loc}{message}")
        self.path = path
        self.line = line


class ConfigError(SceneSynthError):
    """Invalid or unknown configuration value."""


class MapFormatError(SceneSynthError):
    """Map or scene file does not parse."""


class ValidationError(SceneSynthError):
    """A data invariant does not hold."""


class PlanningError(SceneSynthError):
    """Trajectory search failed."""


class PathOverrunError(PlanningError):
    """A queried or searched arc-length lies outside the reference path."""


class PlanningFailureError(PlanningError):
    """No feasible terminal node exists (all expansions pruned)."""


class RefinementError(SceneSynthError):
    """Trajectory smoothing could not produce a valid solution."""


class MaskingError(SceneSynthError):
    """A masking policy cannot be applied to the given scene."""
