"""Balanced-parenthesis words and their canonical paths in a 4D integer lattice.

After reading ``k`` symbols of a word, ``l`` counts opening parentheses,
``r`` closing ones, ``i = l + r`` is the number of steps taken and
``j = l - r`` the current excess of opens (the *unbalance*).  The four
values are tied: any two of them determine the other two.  Reading '('
moves a path by ``UP_STEP = (1, 1, 1, 0)``, reading ')' by
``DOWN_STEP = (1, -1, 0, 1)``, always starting from the origin.
"""

from __future__ import annotations

import re
from itertools import accumulate, chain, compress, count, repeat
from operator import gt, itemgetter, ne, sub
from typing import NamedTuple

from .errors import InvalidCharacter, MalformedPath, NegativePrefix, Unbalanced, _formatted


#: The axis letters in canonical order; also the component order of nodes and vectors.
AXES = "ijlr"


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
UP_STEP = LatticeNode(1, 1, 1, 0)
#: Path delta produced by reading ')'.
DOWN_STEP = LatticeNode(1, -1, 0, 1)

_WHITESPACE = " \t\n\r\f\v"
_DROP_WHITESPACE = str.maketrans("", "", _WHITESPACE)
_FOREIGN = re.compile(f"[^(){_WHITESPACE}]")
_NOT_PARENTHESIS = re.compile("[^()]")
_UNIT = {"(": 1, ")": -1}
_OPENS = bytes.maketrans(b"()", b"\1\0")
_RISES = bytes.maketrans(b"\1\0", b"()")


def _first(flags):
    """The index of the first true flag, or None."""
    return next(compress(count(), flags), None)


def _stripped(text: str) -> str:
    """``text`` without its ASCII whitespace, once no other character but '(' and
    ')' is left; else :class:`InvalidCharacter` at its index in ``text``."""
    foreign = _FOREIGN.search(text)
    if foreign:
        raise InvalidCharacter(foreign.start(), foreign.group())
    return text.translate(_DROP_WHITESPACE)


def _balanced(j) -> None:
    """The one balance rule of words, on ``j``, a word's running balance from 0:
    :class:`NegativePrefix` names the first prefix that closes more than it
    opens, else :class:`Unbalanced` a final excess of opens."""
    if min(j) < 0:
        # Steps are +-1 from 0, so the first negative balance is -1.
        raise NegativePrefix(j.index(-1))
    if j[-1]:
        raise Unbalanced(j[-1])


class DyckWord(str):
    """A balanced word: equal opens and closes, no prefix with excess closes.

    A word is its text, a ``str`` of '(' and ')' only, and compares, hashes
    and prints as that string.  Construction validates, so every instance is
    valid; the empty word is allowed.  :class:`InvalidCharacter` names the
    index of any other character, whitespace too (:func:`parse_word` skips it).
    The package's builders of words that are balanced by construction
    (:func:`path_to_word`, ``enumerate_words`` and ``unrank``) make theirs
    with ``str.__new__``, which skips the scan.
    """

    __slots__ = ()

    def __new__(cls, text: str):
        foreign = _NOT_PARENTHESIS.search(text)  # TypeError unless a str
        if foreign:
            raise InvalidCharacter(foreign.start(), foreign.group())
        _balanced(tuple(accumulate(map(_UNIT.__getitem__, text), initial=0)))
        return str.__new__(cls, text)

    @property
    def n(self) -> int:
        """Half-length: the number of '(' (equal to the number of ')')."""
        return len(self) // 2


def parse_word(text: str) -> DyckWord:
    """Parse ``text`` into a validated :class:`DyckWord`.

    ASCII whitespace is skipped.  Any other non-parenthesis character
    raises :class:`InvalidCharacter` with its index in the raw text.
    Balance violations raise :class:`NegativePrefix` (position = number of
    parenthesis steps consumed) or :class:`Unbalanced` (final excess).
    """
    return DyckWord(_stripped(text))


def _canonical_columns(opens) -> tuple[tuple[int, ...], ...]:
    """The i, j, l and r columns of the origin path whose step k is '(' exactly
    when ``opens[k]`` is true."""
    l = tuple(accumulate(opens, initial=0))
    i = tuple(range(len(l)))
    r = tuple(map(sub, i, l))
    return i, tuple(map(sub, l, r)), l, r


def _path_columns(columns):
    """The canonical int columns equal to ``columns``, a node sequence's (i, j, l, r)
    columns, when they are a path.

    That is the one path check: the columns must equal the canonical columns of
    the word their l column spells, '(' wherever l changes, and j must never
    go negative.  Otherwise :class:`MalformedPath` names the first bad node,
    the first one checked being the origin.
    """
    if next(zip(*columns), None) != ORIGIN:
        raise MalformedPath(0, "path must start at the origin (0, 0, 0, 0)")
    l = columns[2]
    canonical = _canonical_columns(map(ne, l[1:], l))
    if columns == canonical and min(canonical[1]) >= 0:
        return canonical
    # Up to the first node that differs from the canonical one, the deltas
    # are steps; that node's delta is not (or is not a number at all).
    differs = _first(map(ne, zip(*columns), zip(*canonical)))
    negative = _first(map(gt, repeat(0), canonical[1]))
    if negative is not None and (differs is None or negative < differs):
        raise MalformedPath(negative, "unbalance went negative")
    delta = tuple(column[differs] - column[differs - 1] for column in columns)
    raise MalformedPath(differs, _formatted(
        "delta {} is neither an up-step nor a down-step", delta,
        fallback="the delta is neither an up-step nor a down-step"))


class Path4D(tuple):
    """An origin-anchored node sequence whose deltas are UP_STEP or DOWN_STEP.

    A path is the ``tuple`` of its :class:`LatticeNode` nodes, and compares,
    hashes and prints as that tuple.  Validation guarantees j >= 0 everywhere
    (the balanced-word condition) and that the nodes are the canonical int
    nodes of the word their l column spells, '(' wherever l changes.
    """

    __slots__ = ()

    def __new__(cls, nodes):
        nodes = tuple(nodes)
        if set(map(len, nodes)) - {4}:
            wide = _first(map(ne, map(len, nodes), repeat(4)))
            raise TypeError(f"node {wide}: {len(nodes[wide])} coordinates, not 4")
        return _path_of(_path_columns(tuple(zip(*nodes))), cls)


def _nodes(rows):
    """The :class:`LatticeNode` of each row of four values, lazily, built by
    ``tuple.__new__`` without a Python-level call per node."""
    return map(tuple.__new__, repeat(LatticeNode), rows)


def _path_of(columns, cls=Path4D) -> Path4D:
    """The ``cls`` path of canonical columns, built without re-checking.

    ``columns`` are what :func:`_path_columns` returns, or the canonical
    columns of a balanced word (:func:`_word_columns` of a :class:`DyckWord`,
    or :func:`_parsed_columns`), which pass it by construction: the j column
    of a word is its running balance, which :func:`_balanced` has checked.
    """
    return tuple.__new__(cls, _nodes(zip(*columns)))


def _word_columns(word: str) -> tuple[tuple[int, ...], ...]:
    """The (i, j, l, r) columns of the canonical path of ``word``, a text of '(' and ')'."""
    # Such a text is ASCII: its bytes, '(' made 1 and ')' 0, are its opens as ints.
    return _canonical_columns(word.encode("ascii").translate(_OPENS))


def _parsed_columns(text: str) -> tuple[tuple[int, ...], ...]:
    """``_word_columns(parse_word(text))``, with the text checked once: the same
    errors at the same positions, the balance rule read from the j column."""
    columns = _word_columns(_stripped(text))
    _balanced(columns[1])
    return columns


def _word_of(l) -> DyckWord:
    """The word whose canonical path has the l column ``l``, '(' wherever l rises.

    ``l`` is the l column of checked columns (:func:`_path_columns`), so no
    prefix of the word closes more than it opens: only a final excess of opens,
    a path that ends above j = 0, raises :class:`Unbalanced`.
    """
    excess = 2 * l[-1] - (len(l) - 1)
    if excess:
        raise Unbalanced(excess)
    # The rises as bytes, 1 made '(' and 0 ')', are the word's ASCII text.
    return str.__new__(DyckWord, bytes(map(gt, l[1:], l)).translate(_RISES).decode("ascii"))


def word_to_path(word: DyckWord) -> Path4D:
    """The canonical path of a word: node k holds the counts after k symbols."""
    if not isinstance(word, DyckWord):
        raise TypeError(f"word must be a DyckWord, not {type(word).__name__}")
    return _path_of(_word_columns(word))


def path_to_word(path: Path4D) -> DyckWord:
    """Inverse of :func:`word_to_path`; ``path`` is checked as :class:`Path4D` checks it."""
    return _word_of(tuple(map(itemgetter(2), Path4D(path))))


def _int_columns(rows, width: int):
    """The ``width`` columns of the JSON value ``rows`` when it is a list of lists of
    ``width`` integers, else None; :func:`_first_bad_row` then names the first bad row.
    An integer has ``type(v) is int``: not a bool, a float or a str."""
    if type(rows) is list and set(map(type, rows)) <= {list} and set(map(len, rows)) <= {width}:
        # One flat tuple, type-checked at once; its strided slices are the columns.
        values = tuple(chain.from_iterable(rows))
        if set(map(type, values)) <= {int}:
            return tuple(values[k::width] for k in range(width))
    return None


def _first_bad_row(rows, width: int):
    """The index of the first row of the JSON value ``rows`` that is not a list of
    ``width`` integers, or None when none is; a ``rows`` that is not a list fails at 0."""
    if type(rows) is not list:
        return 0
    return _first(type(row) is not list or len(row) != width or set(map(type, row)) != {int}
                  for row in rows)


def _columns_from_lists(rows):
    """The (i, j, l, r) columns of the JSON form of a path, once they are a path."""
    columns = _int_columns(rows, 4)
    if columns is None:
        raise MalformedPath(_first_bad_row(rows, 4), "a node must be four integers [i, j, l, r]")
    return _path_columns(columns)


def path_from_lists(rows) -> Path4D:
    """Rebuild a validated path from its JSON form, an array of [i, j, l, r] arrays."""
    return _path_of(_columns_from_lists(rows))
