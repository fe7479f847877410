"""Exception hierarchy.

ParseError (and subclasses) map to CLI exit 2, ResourceLimitError to exit 3,
every other IndsemError to exit 1.
"""

from __future__ import annotations


class IndsemError(Exception):
    """Base class for all semantic errors raised by this package."""


class ParseError(IndsemError):
    def __init__(self, message, filename="<string>", line=0, col=0):
        super().__init__(f"{filename}:{line}:{col}: {message}")
        self.filename = filename
        self.line = line
        self.col = col


class NonGroundParameterError(ParseError):
    """A parameter (facts) file contains a term with variables."""


class ResourceLimitError(IndsemError):
    def __init__(self, reason, partial=frozenset()):
        super().__init__(reason)
        self.partial = partial


class NonGroundHeadError(IndsemError):
    pass


class NonGroundNegationError(IndsemError):
    pass


class NonGroundParameterSetError(IndsemError):
    """A parameter set given to evaluation holds a term with variables."""


class UncallableLiteralError(IndsemError):
    """A bare-variable body literal was reached before being bound."""


class VariableHeadRestrictionError(IndsemError):
    """A variable-head program was given parameters or negation."""


class NegativeQueryError(IndsemError):
    pass


class NegativeGoalError(IndsemError):
    pass


class UnstratifiableError(IndsemError):
    def __init__(self, message, cycle=()):
        super().__init__(message)
        self.cycle = tuple(cycle)  # templates along the offending cycle


class AllowabilityError(IndsemError):
    def __init__(self, report):
        super().__init__(f"parameter set is not allowable:\n{report}")
        self.report = report


class CompositionPreconditionError(IndsemError):
    def __init__(self, pairs):
        lines = ["composition precondition violated:"]
        for upper_head, lower_term, where in pairs:
            lines.append(f"  head {upper_head} unifies with {lower_term} ({where})")
        super().__init__("\n".join(lines))
        self.pairs = tuple(pairs)


class CompositionMismatchError(IndsemError):
    """Union evaluation disagreed with the chained evaluation."""


class NegationInObjectProgramError(IndsemError):
    pass


class FunctorCollisionError(IndsemError):
    pass


class UniverseTooLargeError(IndsemError):
    pass
