"""Shared exception types."""


class KellerlabError(Exception):
    """Base class for every domain error raised by this package."""


class VariableMismatchError(KellerlabError):
    """Operands live over different variable lists."""


class ExactDivisionError(KellerlabError):
    """An exact polynomial division left a remainder."""


class SingularMatrixError(KellerlabError):
    """A matrix that had to be invertible is singular."""


class BudgetExceededError(KellerlabError):
    """A Groebner/search computation ran past its resource budget.

    Signals that the input is beyond desk scale, not that it is wrong.
    """


class NotInvertibleError(KellerlabError):
    """A map has no polynomial inverse within the degree cap asked for."""


class NotZeroDimensionalError(KellerlabError):
    """A fiber ideal expected to be zero-dimensional is not."""


class NotDominantError(KellerlabError):
    """A coordinate of the map satisfies no algebraic relation over the image."""


class InternalCheckError(KellerlabError):
    """A double-entry consistency check failed; indicates a bug, not bad input."""


class ParseError(KellerlabError):
    """Syntax or semantic error in an expression or file, with position."""

    def __init__(self, message, line=1, column=1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column
