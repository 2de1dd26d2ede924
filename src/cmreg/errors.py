"""Exception types shared across the package.

Exit-code mapping used by the command line tool:
parse/semantic errors and unwritable outputs -> 1, degree-cap breaches -> 2,
bound violations -> 3, internal consistency failures -> 4.
"""


class CmregError(Exception):
    """Base class for all package errors."""


class HomogeneityError(CmregError):
    """An element or map fails the graded degree constraints."""


class DegreeCapExceeded(CmregError):
    """A Groebner or resolution computation ran past its degree cap."""

    def __init__(self, message, degree=None, cap=None):
        super().__init__(message)
        self.degree = degree
        self.cap = cap


class InternalConsistencyError(CmregError):
    """A should-never-happen condition, e.g. nonzero remainder when
    factoring a lifted differential square through the quotient relations."""


class ReductionPreconditionError(CmregError):
    """A candidate reduction ideal is not contained in the target ideal."""


class ProblemSyntaxError(CmregError, ValueError):
    """Problem-file or polynomial text failed to parse at line:column; a
    ValueError too, as parse_poly promises."""

    def __init__(self, message, line, column):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class ProblemSemanticError(CmregError):
    """Problem file parsed but violates a semantic constraint."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class BoundViolation(CmregError):
    """A verified regularity bound failed on some grid cell."""
