"""Balanced-parenthesis words and their canonical paths in a 4D integer lattice.

After reading ``k`` symbols of a word, ``l`` counts opening parentheses,
``r`` closing ones, ``i = l + r`` is the number of steps taken and
``j = l - r`` the current excess of opens (the *unbalance*).  The four
values are tied: any two of them determine the other two.  Reading '('
moves a path by ``UP_STEP = (1, 1, 1, 0)``, reading ')' by
``DOWN_STEP = (1, -1, 0, 1)``, always starting from the origin.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import accumulate, chain, repeat
from operator import gt, is_, itemgetter, sub
from typing import NamedTuple

from .errors import InvalidCharacter, MalformedPath, NegativePrefix, Unbalanced


class Axis(enum.Enum):
    """One of the four lattice coordinates."""

    I = "i"
    J = "j"
    L = "l"
    R = "r"


#: Canonical axis order; also the component order of nodes and vectors.
AXES = (Axis.I, Axis.J, Axis.L, Axis.R)

AXIS_INDEX = {axis: k for k, axis in enumerate(AXES)}


class Step(enum.Enum):
    OPEN = "("
    CLOSE = ")"


class LatticeNode(NamedTuple):
    """An integer point in (i, j, l, r) coordinate order.

    On a valid path: i = number of steps taken, j = opens minus closes,
    l = opens, r = closes.  The type itself does not validate; use
    :func:`dyck4d.lattice.is_lattice_node` to test membership.
    """

    i: int
    j: int
    l: int
    r: int


ORIGIN = LatticeNode(0, 0, 0, 0)

#: Path delta produced by reading '(' — components (i, j, l, r).
UP_STEP = (1, 1, 1, 0)
#: Path delta produced by reading ')'.
DOWN_STEP = (1, -1, 0, 1)

_WHITESPACE = " \t\n\r\f\v"
_DROP_WHITESPACE = str.maketrans("", "", _WHITESPACE)
_STEP_OF = {"(": Step.OPEN, ")": Step.CLOSE}
_UNIT = {"(": 1, ")": -1}


@dataclass(frozen=True)
class DyckWord:
    """A balanced word: equal opens and closes, no prefix with excess closes.

    Constructing one validates the invariants, so every instance in
    circulation is valid; the empty word is allowed.  The validated text is
    kept alongside ``steps`` (not part of repr or equality).
    """

    steps: tuple[Step, ...]
    _text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        text = "".join(map(")(".__getitem__, map(is_, self.steps, repeat(Step.OPEN))))
        object.__setattr__(self, "_text", text)
        if min(accumulate(map(_UNIT.__getitem__, text)), default=0) < 0:
            # Steps are +-1 from 0, so the first negative balance is -1.
            raise NegativePrefix(list(accumulate(map(_UNIT.__getitem__, text))).index(-1) + 1)
        excess = 2 * text.count("(") - len(text)
        if excess:
            raise Unbalanced(excess)

    @property
    def n(self) -> int:
        """Half-length: the number of '(' (equal to the number of ')')."""
        return len(self.steps) // 2

    def __str__(self) -> str:
        return render_word(self)


def parse_word(text: str) -> DyckWord:
    """Parse ``text`` into a validated :class:`DyckWord`.

    ASCII whitespace is skipped.  Any other non-parenthesis character
    raises :class:`InvalidCharacter` with its index in the raw text.
    Balance violations raise :class:`NegativePrefix` (position = number of
    parenthesis steps consumed) or :class:`Unbalanced` (final excess).
    """
    compact = text.translate(_DROP_WHITESPACE)
    if compact.strip("()"):  # a foreign character; find its raw index
        for position, char in enumerate(text):
            if char not in "()" and char not in _WHITESPACE:
                raise InvalidCharacter(position, char)
    return DyckWord(tuple(map(_STEP_OF.__getitem__, compact)))


def render_word(word: DyckWord) -> str:
    """Inverse of :func:`parse_word`: '(' for each open, ')' for each close."""
    return word._text


@dataclass(frozen=True)
class Path4D:
    """An origin-anchored node sequence whose deltas are UP_STEP or DOWN_STEP.

    Validation guarantees the unbalance j stays non-negative everywhere,
    which is exactly the balanced-word condition.
    """

    nodes: tuple[LatticeNode, ...]

    def __post_init__(self):
        nodes = tuple(self.nodes)
        if set(map(type, nodes)) != {LatticeNode}:
            # tuple.__new__ builds the nodes without a Python-level call per node
            nodes = tuple(map(tuple.__new__, repeat(LatticeNode), nodes))
            if set(map(len, nodes)) - {4}:
                nodes = tuple(LatticeNode(*node) for node in nodes)  # the TypeError of a bad width
        object.__setattr__(self, "nodes", nodes)
        if not nodes or nodes[0] != ORIGIN:
            raise MalformedPath(0, "path must start at the origin (0, 0, 0, 0)")
        # From the origin, every delta is an up- or down-step exactly when i
        # counts the nodes, l grows by 0 or 1, r = i - l and j = l - r.
        i, j, l, r = zip(*nodes)
        try:
            if (i == tuple(range(len(nodes))) and {0, 1}.issuperset(map(sub, l[1:], l))
                    and r == tuple(map(sub, i, l)) and j == tuple(map(sub, l, r)) and min(j) >= 0):
                return
        except TypeError:
            pass  # a coordinate that is not a number: the loop below raises as before
        for index in range(1, len(nodes)):
            prev, node = nodes[index - 1], nodes[index]
            delta = (node.i - prev.i, node.j - prev.j, node.l - prev.l, node.r - prev.r)
            if delta != UP_STEP and delta != DOWN_STEP:
                raise MalformedPath(index, f"delta {delta} is neither an up-step nor a down-step")
            if node.j < 0:
                raise MalformedPath(index, "unbalance went negative")

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)


def word_to_path(word: DyckWord) -> Path4D:
    """The canonical path of a word: node k holds the counts after k symbols."""
    l = tuple(accumulate(map("(".__eq__, word._text), initial=0))
    i = range(len(l))
    r = tuple(map(sub, i, l))
    j = map(sub, l, r)
    return Path4D(tuple(zip(i, j, l, r)))


def path_to_word(path: Path4D) -> DyckWord:
    """Inverse of :func:`word_to_path`.

    Accepts a :class:`Path4D` or any node sequence; the latter is validated
    first and raises :class:`MalformedPath` like the Path4D constructor.
    """
    if not isinstance(path, Path4D):
        path = Path4D(tuple(path))
    l = tuple(map(itemgetter(2), path.nodes))
    return DyckWord(tuple(map((Step.CLOSE, Step.OPEN).__getitem__, map(gt, l[1:], l))))


def path_as_lists(path: Path4D) -> list[list[int]]:
    """JSON-ready form: a path is an array of [i, j, l, r] nodes."""
    return [list(node) for node in path.nodes]


def path_from_lists(rows) -> Path4D:
    """Rebuild a validated path from its JSON form."""
    if not isinstance(rows, Iterable):
        raise MalformedPath(0, "a path must be an array of nodes")
    nodes = rows = tuple(rows)
    # Arrays of four ints pass one column-wise check; anything else gets the
    # row-by-row check that names the first bad row.
    if not (set(map(type, rows)) == {list} and set(map(len, rows)) == {4}
            and set(map(type, chain.from_iterable(rows))) == {int}):
        nodes = []
        for index, row in enumerate(rows):
            values = list(row) if isinstance(row, Iterable) else ()
            if len(values) != 4 or not all(isinstance(v, int) for v in values):
                raise MalformedPath(index, "a node must be four integers [i, j, l, r]")
            nodes.append(values)
    return Path4D(tuple(nodes))
