"""Exception types shared across the pipeline; an error's type says who must act.

ConfigError: a run or comparison setup that cannot work, found by its checks or
by the data it loads or makes.  ParseError: a line of a file.  SchemaError: a file or
report as a whole, or a record, which load_jsonl then locates.  UsageError: a
function called outside its contract."""


class MantraError(Exception):
    """Base class for all pipeline errors."""


class ParseError(MantraError):
    """A dataset or vocabulary file is bad at a 1-based line: "<path>: line N: ..."."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}: line {line_no}: {message}")


class SchemaError(MantraError):
    """A report field or a whole file breaks its schema (a record's is re-raised as ParseError)."""


class ConfigError(MantraError):
    """A run or comparison setup cannot work; the CLI exits 2 on it."""


class UsageError(MantraError):
    """A function called outside its contract (an argument of the wrong kind,
    shape or value, or a call out of sequence); every library function raises
    it for such a call.  A run whose losses diverge reaches the CLI with one: exit 1."""
