"""Exception hierarchy shared across the toolbox.

Each class's ``exit_code`` is the status ``zjkit`` exits with when the
error ends a command; the table is in the ``cli`` docstring.
"""


class ZjError(Exception):
    """Base class for all toolbox errors."""

    exit_code = 3


# tensor core
class ShapeMismatch(ZjError):
    pass


class NonFiniteValue(ZjError):
    exit_code = 6


class NotScalar(ZjError):
    pass


class DetachedRoot(ZjError):
    pass


class NoPerSampleRule(ZjError):
    pass


class ConvergenceFailure(ZjError):
    exit_code = 6


# model zoo / checkpoints
class SpecMismatch(ZjError):
    exit_code = 4


class CorruptCheckpoint(ZjError):
    exit_code = 5


class ChecksumMismatch(CorruptCheckpoint):
    pass


class IoError(ZjError):
    exit_code = 5


class UnknownHook(ZjError):
    pass


class UnknownPath(ZjError):
    pass


class BadPattern(ZjError):
    pass


# architect
class ParseError(ZjError):
    exit_code = 2

    def __init__(self, offset, expected, message=None):
        self.offset = offset
        self.expected = frozenset(expected)
        detail = message or "expected one of: " + ", ".join(sorted(self.expected))
        super().__init__(f"parse error at offset {offset}: {detail}")


class NoMatchingSite(ZjError):
    pass


class IncompatibleSite(ZjError):
    pass


class PlanMismatch(ZjError):
    pass


class NotMergeable(ZjError):
    pass


# tuner
class LabelOutOfRange(ZjError):
    pass


class EmptyClass(ZjError):
    pass


class MissingHook(ZjError):
    pass


class WidthMismatch(ZjError):
    pass


class BatchMismatch(ZjError):
    pass


class DegenerateBatch(ZjError):
    pass


class RefMismatch(ZjError):
    pass


class NotAMatrix(ZjError):
    pass


class KOutOfRange(ZjError):
    pass


class NonFiniteLoss(ZjError):
    exit_code = 6

    def __init__(self, term, value):
        self.term = term
        super().__init__(f"non-finite loss in term '{term}': {value}")


# merger
class EmptyInput(ZjError):
    pass


class NonFiniteCost(ZjError):
    pass


class NoConvergence(ZjError):
    exit_code = 6


class NotSupportedKind(ZjError):
    pass


# Nothing in zjkit raises this since ot_fuse hardens its coupling by exact
# assignment; it stays for callers that still catch it (bench/workloads.py).
class AmbiguousAssignment(ZjError):
    pass


class SizeMismatch(ZjError):
    pass


class ClassCountMismatch(ZjError):
    pass


# data / cli
class BadMagic(ZjError):
    exit_code = 7


class LabelMismatch(ZjError):
    exit_code = 7


class MalformedCsv(ZjError):
    exit_code = 7


class ConfigError(ZjError):
    pass
