"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: domain errors exit 1, exceeded
budgets and caps exit 2, input parse errors exit 3.
"""

from __future__ import annotations


class DomainError(ValueError):
    """A well-formed request that violates a precondition (cyclic chain passed
    to an enumeration routine, threshold outside [0, 1], mismatched alphabets,
    and so on)."""


class ParseError(ValueError):
    """Malformed input: bad probability syntax, unknown state or label names,
    rows that do not sum to one, missing keys."""


class BudgetExceededError(RuntimeError):
    """An enumeration or construction hit its node/state cap before finishing.

    ``nodes_visited`` carries how far the computation got when it stopped,
    and ``depth`` the word length (prefix-tree depth) it had reached, when
    the computation walks words.
    """

    def __init__(
        self, message: str, *, nodes_visited: int | None = None, depth: int | None = None
    ):
        super().__init__(message)
        self.nodes_visited = nodes_visited
        self.depth = depth


class OracleInfeasibleError(BudgetExceededError):
    """The exhaustive-subset oracle was asked to handle more support words
    than it can enumerate subsets for."""


class LengthExceededError(Exception):
    """A sampled trajectory emitted more letters than the caller's cap.

    Used as a rejection signal by samplers; carries the prefix emitted so far.
    """

    def __init__(self, message: str, *, prefix: tuple[str, ...] = ()):
        super().__init__(message)
        self.prefix = prefix
