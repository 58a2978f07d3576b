"""Domain errors shared across the package.

Every error carries a stable ``kind`` slug plus an optional integer
``detail`` (a position, index or excess) so front ends can report failures
in the machine-parsable form ``error:<kind>:<detail>``.
"""


class DyckError(Exception):
    """Base class for all domain errors; ``message`` is the text of one raised without any."""

    kind = "error"
    message = "domain error"

    def __init__(self, message=None, detail=None):
        super().__init__(self.message if message is None else message)
        self.detail = detail


def _formatted(template: str, *values, fallback=None):
    """``template.format(*values)``, or ``fallback`` (None: the error's own message)
    when a value holds an int past the int digit limit (4300 digits by default)."""
    try:
        return template.format(*values)
    except ValueError:
        return fallback


def _half_length(n: int, least: int = 0) -> int:
    """``n``, the half-length of a word or triangle, once it is an int (not a bool
    or a float), not negative and at least ``least``: 1 for the box and the right
    angle at the apex, which degenerate to a point at n = 0."""
    if type(n) is not int:
        raise TypeError(f"half-length must be an int, not {type(n).__name__}")
    if n < 0:
        raise ValueError("half-length must be non-negative")
    if n < least:
        raise ValueError(f"half-length must be at least {least}")
    return n


class InvalidCharacter(DyckError):
    """A word's text holds a character other than '(' or ')'; parse_word skips ASCII whitespace."""

    kind = "invalid-character"

    def __init__(self, position, char):
        super().__init__(f"invalid character {char!r} at index {position}", position)
        self.position = position
        self.char = char


class NegativePrefix(DyckError):
    """Closing parentheses outnumber opening ones in some prefix.

    ``position`` counts parenthesis steps consumed when the balance first
    went negative, i.e. the index of the first path node with negative
    unbalance.
    """

    kind = "negative-prefix"

    def __init__(self, position):
        super().__init__(f"balance goes negative after {position} step(s)", position)
        self.position = position


class Unbalanced(DyckError):
    """The word ended with more opening than closing parentheses."""

    kind = "unbalanced"

    def __init__(self, final_excess):
        super().__init__(f"word ends with {final_excess} unmatched '('", final_excess)
        self.final_excess = final_excess


class MalformedPath(DyckError):
    """A node sequence that is not a valid path: wrong origin, a delta that
    is neither an up-step nor a down-step, or negative unbalance."""

    kind = "malformed-path"

    def __init__(self, index, reason="not a valid path"):
        super().__init__(f"node {index}: {reason}", index)
        self.index = index


class ParityViolation(DyckError):
    """Coordinates i and j must have the same parity."""

    kind = "parity-violation"
    message = "i and j must have equal parity"


class NotInLattice(DyckError):
    """Coordinates do not satisfy the lattice constraints."""

    kind = "not-in-lattice"
    message = "point is not a lattice node"


class InconsistentProjection(DyckError):
    """A projected point cannot be lifted: its completion is non-integral or
    a redundant coordinate contradicts the others."""

    kind = "inconsistent-projection"

    def __init__(self, index, reason="point is inconsistent"):
        super().__init__(f"point {index}: {reason}", index)
        self.index = index


class InvalidProjection(DyckError):
    """Projected-path data of the wrong shape: keys, axes or point widths."""

    kind = "invalid-projection"


class InvalidJson(DyckError):
    """Input text that is not JSON, or JSON nested too deeply or holding an
    integer too long to read; ``detail`` is the position of a syntax error."""

    kind = "invalid-json"


class UnreadableInput(DyckError):
    """An input file that cannot be opened, or input that is not UTF-8 text."""

    kind = "unreadable-input"


class UnwritableOutput(DyckError):
    """An output file that cannot be written, or standard output closed by
    its reader (a broken pipe)."""

    kind = "unwritable-output"


class OutOfMemory(DyckError):
    """The interpreter ran out of memory computing an answer (a ``MemoryError``)."""

    kind = "out-of-memory"
    message = "out of memory"


class RankOutOfRange(DyckError):
    """Rank must satisfy 0 <= rank < catalan(n)."""

    kind = "rank-out-of-range"
    message = "rank out of range"


class WrongArity(DyckError):
    """An axis set of the wrong size for the requested operation."""

    kind = "wrong-arity"
    message = "wrong number of axes"
