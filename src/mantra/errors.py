"""Exception types shared across the pipeline.

Every error raised on a user-facing path carries enough context to act on:
parse errors name the file and the line, schema errors name a report field
or a whole file, sequencing errors name the expected epoch.
"""


class MantraError(Exception):
    """Base class for all pipeline errors."""


class ParseError(MantraError):
    """A dataset or vocabulary file is bad at a 1-based line: "<path>: line N: ..."."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}: line {line_no}: {message}")


class SchemaError(MantraError):
    """A report field or a whole file breaks its schema (a record's is re-raised as ParseError)."""


class ConfigError(MantraError):
    """An experiment or policy configuration is inconsistent."""


class FitError(MantraError):
    """A model fit was requested on data that cannot support it."""


class SequencingError(MantraError):
    """Pipeline stages were invoked out of order (e.g. epochs recorded non-contiguously)."""


class UsageError(MantraError):
    """API misuse: an argument of the wrong task kind, shape or value.  One that
    reaches the CLI (a run diverging to non-finite losses, say) exits 1."""
