"""Exception types shared across the package.

The CLI maps these onto exit codes: input problems -> 1, exhausted budgets -> 2.
"""

from __future__ import annotations

__all__ = [
    "KernelGraphsError",
    "ParseError",
    "BudgetExceededError",
    "ClosureCapExceededError",
    "NotAHullError",
    "UnsupportedParameterError",
]


class KernelGraphsError(Exception):
    """Base class for package errors."""


class ParseError(KernelGraphsError, ValueError):
    """Malformed textual input.

    Carries the 1-based line and column of the offending character when known.
    """

    def __init__(self, message: str, *, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + where)


class BudgetExceededError(KernelGraphsError, RuntimeError):
    """A configured resource cap was hit before the computation finished.

    ``budget`` names which cap ("closure", "search nodes", "time"), so callers
    can distinguish an undecided query from a negative answer.
    """

    def __init__(self, budget: str, limit: int | float, detail: str = ""):
        self.budget = budget
        self.limit = limit
        msg = f"{budget} budget exhausted (limit {limit})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class _Budget:
    """Node counter shared by every search of one call; raises past ``limit``, naming ``what``."""

    __slots__ = ("limit", "used", "what")

    def __init__(self, limit: int | None, what: str):
        self.limit = limit
        self.used = 0
        self.what = what

    def tick(self):
        self.used += 1
        if self.limit is not None and self.used > self.limit:
            raise BudgetExceededError("search nodes", self.limit, self.what)


class ClosureCapExceededError(BudgetExceededError):
    """Semigroup closure grew past the element cap; partial data is unreliable."""

    def __init__(self, limit: int, reached: int):
        self.reached = reached
        super().__init__("closure", limit, f"gave up after {reached} elements")


class NotAHullError(KernelGraphsError, ValueError):
    """Operation requires its input graph to equal its own hull."""


class UnsupportedParameterError(KernelGraphsError, ValueError):
    """Parameters outside the supported range (e.g. no MOLS available)."""
