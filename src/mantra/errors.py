"""Exception types shared across the pipeline.

Every error raised on a user-facing path carries enough context to act on:
parse errors name the line, schema errors name the field, sequencing errors
name the expected epoch.
"""


class MantraError(Exception):
    """Base class for all pipeline errors."""


class ParseError(MantraError):
    """A dataset file could not be parsed. Carries the 1-based line number."""

    def __init__(self, line_no, message):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class SchemaError(MantraError):
    """A record parsed but violates the dataset schema (unknown label, bad shape)."""


class ConfigError(MantraError):
    """An experiment or policy configuration is inconsistent."""


class FitError(MantraError):
    """A model fit was requested on data that cannot support it."""


class SequencingError(MantraError):
    """Pipeline stages were invoked out of order (e.g. epochs recorded non-contiguously)."""


class UsageError(MantraError):
    """API misuse: an argument of the wrong task kind, shape or value.  One that
    reaches the CLI (a run diverging to non-finite losses, say) exits 1."""
