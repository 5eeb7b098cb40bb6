"""Exception types shared across the pipeline.

Every error raised on a user-facing path carries enough context to act on:
parse errors name the file and the line, schema errors name the field,
sequencing errors name the expected epoch.
"""


class MantraError(Exception):
    """Base class for all pipeline errors."""


class ParseError(MantraError):
    """A dataset or vocabulary file could not be parsed at a 1-based line."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}: line {line_no}: {message}")


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
