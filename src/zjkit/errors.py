"""Exception hierarchy shared across the toolbox: one class per exit-code meaning.

Each class's ``exit_code`` is the status ``zjkit`` exits with when the
error ends a command:

    2  ParseError
    3  ConfigError, ShapeMismatch, DetachedRoot, AmbiguousAssignment
    4  SpecMismatch
    5  IoError, CorruptCheckpoint
    6  NonFiniteValue, NoConvergence
    7  MalformedData

``ZjError`` is the base class and is never raised itself. ``ConfigError``
is also a ``ValueError``, so callers that catch ``ValueError`` for a bad
argument still catch it.
"""


class ZjError(Exception):
    """Base class for all toolbox errors."""

    exit_code = 3


class ParseError(ZjError):
    """A config-language string that does not parse; ``offset`` is the byte."""

    exit_code = 2

    def __init__(self, offset, expected, message=None):
        self.offset = offset
        self.expected = frozenset(expected)
        detail = message or "expected one of: " + ", ".join(sorted(self.expected))
        super().__init__(f"parse error at offset {offset}: {detail}")


class ConfigError(ZjError, ValueError):
    """A value, option or combination of inputs the toolbox does not accept."""


class ShapeMismatch(ZjError):
    """Operands whose shapes, widths, batch sizes or counts disagree."""


class DetachedRoot(ZjError):
    """A backward root that no tape records."""


# Nothing in zjkit raises this since ot_fuse hardens its coupling by exact
# assignment; it stays for callers that still catch it (bench/workloads.py).
class AmbiguousAssignment(ZjError):
    pass


class SpecMismatch(ZjError):
    """A checkpoint whose digest or entries do not fit the model spec."""

    exit_code = 4


class IoError(ZjError):
    exit_code = 5


class CorruptCheckpoint(ZjError):
    """A checkpoint file that is malformed or fails its checksum."""

    exit_code = 5


class NonFiniteValue(ZjError):
    exit_code = 6


class NoConvergence(ZjError):
    """An iterative solver that did not reach its tolerance."""

    exit_code = 6


class MalformedData(ZjError):
    """A dataset file with bad magic, a bad label, or a malformed row."""

    exit_code = 7
