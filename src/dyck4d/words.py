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
import re
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, count, repeat
from operator import gt, is_, itemgetter, ne, sub
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
_FOREIGN = re.compile(f"[^(){_WHITESPACE}]")
_STEP_OF = {"(": Step.OPEN, ")": Step.CLOSE}
_UNIT = {"(": 1, ")": -1}


def _first(flags):
    """The index of the first true flag, or None."""
    return next(compress(count(), flags), None)


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
        balance = tuple(accumulate(map(_UNIT.__getitem__, text), initial=0))
        if min(balance) < 0:
            # Steps are +-1 from 0, so the first negative balance is -1.
            raise NegativePrefix(balance.index(-1))
        if balance[-1]:
            raise Unbalanced(balance[-1])

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
    foreign = _FOREIGN.search(text)
    if foreign:
        raise InvalidCharacter(foreign.start(), foreign.group())
    return DyckWord(tuple(map(_STEP_OF.__getitem__, text.translate(_DROP_WHITESPACE))))


def render_word(word: DyckWord) -> str:
    """Inverse of :func:`parse_word`: '(' for each open, ')' for each close."""
    return word._text


def _canonical_columns(opens) -> tuple[tuple[int, ...], ...]:
    """The i, j, l and r columns of the origin path whose step k is '(' exactly
    when ``opens[k]`` is true."""
    l = tuple(accumulate(opens, initial=0))
    i = tuple(range(len(l)))
    r = tuple(map(sub, i, l))
    return i, tuple(map(sub, l, r)), l, r


@dataclass(frozen=True)
class Path4D:
    """An origin-anchored node sequence whose deltas are UP_STEP or DOWN_STEP.

    Validation guarantees the unbalance j stays non-negative everywhere,
    which is exactly the balanced-word condition.  The nodes must equal the
    canonical path of the word their l column spells, '(' wherever l changes.
    """

    nodes: tuple[LatticeNode, ...]

    def __post_init__(self):
        nodes = tuple(self.nodes)
        if set(map(type, nodes)) != {LatticeNode}:
            # tuple.__new__ builds the nodes without a Python-level call per node
            nodes = tuple(map(tuple.__new__, repeat(LatticeNode), nodes))
            if set(map(len, nodes)) - {4}:
                wide = _first(map(ne, map(len, nodes), repeat(4)))
                raise TypeError(f"node {wide}: {len(nodes[wide])} coordinates, not 4")
        object.__setattr__(self, "nodes", nodes)
        if not nodes or nodes[0] != ORIGIN:
            raise MalformedPath(0, "path must start at the origin (0, 0, 0, 0)")
        columns = tuple(zip(*nodes))
        canonical = _canonical_columns(map(ne, columns[2][1:], columns[2]))
        if columns == canonical and min(canonical[1]) >= 0:
            return
        # Up to the first node that differs from the canonical one, the deltas
        # are steps; that node's delta is not (or is not a number at all).
        differs = _first(map(ne, nodes, zip(*canonical)))
        negative = _first(map(gt, repeat(0), canonical[1]))
        if negative is not None and (differs is None or negative < differs):
            raise MalformedPath(negative, "unbalance went negative")
        delta = tuple(map(sub, nodes[differs], nodes[differs - 1]))
        raise MalformedPath(differs, f"delta {delta} is neither an up-step nor a down-step")

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)


def word_to_path(word: DyckWord) -> Path4D:
    """The canonical path of a word: node k holds the counts after k symbols."""
    return Path4D(tuple(zip(*_canonical_columns(map("(".__eq__, word._text)))))


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
