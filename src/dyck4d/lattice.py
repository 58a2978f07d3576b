"""Membership, coordinate completion, enumeration and path counting.

The lattice is the set of integer points (i, j, l, r) with i = l + r,
j = l - r and l >= r >= 0.  Bounding it by a half-length n keeps exactly
the points reachable by balanced words of length 2n (additionally l <= n),
a triangular slab of (n + 1)(n + 2) / 2 nodes.  Every count here is a
product of ballot numbers, one node or one row of nodes at a time, from
``enumeration._ballot``: it reads the prefix table when the process holds
one (two reads, about 1 µs a node at n = 1000, against 70 µs for the closed
form) and never buys one, so counting keeps no state.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import add, floordiv, sub

from .enumeration import _ballot
from .errors import NotInLattice, ParityViolation, _formatted, _half_length
from .words import AXES, LatticeNode, _nodes


def is_lattice_node(i: int, j: int, l: int, r: int, n: int | None = None) -> bool:
    """True iff (i, j, l, r) is a node of the triangle of half-length n (None: the whole lattice).

    Never raises: coordinates that break the tie, are not equal to ints (1.5,
    but not 1.0) or are not numbers (None, "1"), or an n that is below 0 or not
    an int (1.5, True, "1"), simply yield False.
    """
    try:
        member = i == l + r and j == l - r and 0 <= r <= l and not (l % 1 or r % 1)
    except (TypeError, OverflowError):  # not numbers, or an int past float range plus a float
        return False
    return member and (n is None or type(n) is int and l <= n)


#: (l, r) columns from the columns of two axes, keyed by the axis names in i, j, l, r order.
_PAIR_TO_LR = {
    ("i", "j"): lambda i, j: (map(floordiv, map(add, i, j), repeat(2)),
                              map(floordiv, map(sub, i, j), repeat(2))),
    ("i", "l"): lambda i, l: (l, map(sub, i, l)),
    ("i", "r"): lambda i, r: (map(sub, i, r), r),
    ("j", "l"): lambda j, l: (l, map(sub, l, j)),
    ("j", "r"): lambda j, r: (map(add, j, r), r),
    ("l", "r"): lambda l, r: (l, r),
}


def _complete_pair(x: str, a, y: str, b) -> tuple[tuple[int, ...], ...]:
    """The columns (i, j, l, r) of the nodes whose coordinate ``x`` is a and ``y`` is b.

    ``a`` and ``b`` are equally long columns, ``x`` precedes ``y`` in i, j, l, r
    order.  Checking that the nodes give a and b back (an (i, j) pair of mixed
    parity does not) and lattice membership are left to the caller.
    """
    l, r = map(tuple, _PAIR_TO_LR[x, y](a, b))
    return tuple(map(add, l, r)), tuple(map(sub, l, r)), l, r


def complete_node(i: int | None = None, j: int | None = None,
                  l: int | None = None, r: int | None = None) -> LatticeNode:
    """Recover the unique lattice node from any two of its coordinates.

    Exactly two keyword arguments must be given.  Raises
    :class:`ParityViolation` when the completion does not give them back (an
    (i, j) pair of mixed parity) and :class:`NotInLattice` when it falls
    outside the lattice.
    """
    given = {name: value for name, value in zip(AXES, (i, j, l, r)) if value is not None}
    if len(given) != 2:
        raise ValueError(f"exactly two coordinates required, got {len(given)}")
    (x, a), (y, b) = given.items()
    node = LatticeNode(*next(zip(*_complete_pair(x, (a,), y, (b,)))))
    if node._replace(**given) != node:
        raise ParityViolation()
    if not is_lattice_node(*node):
        raise NotInLattice(_formatted("completion of {} gives {}",
                                      dict(sorted(given.items())), tuple(node)))
    return LatticeNode(*map(int, node))


def _region_rows(n: int):
    """(first node, length) of each row i = 0, ..., 2n of the triangle of half-length n.

    Row i holds the triangle's nodes with that i in rising j order: it starts
    at (i, i % 2, ceil(i / 2), floor(i / 2)), runs to j = min(i, 2n - i), and
    each next node adds UP - DOWN = (0, 2, 1, -1).
    """
    return (((i, i % 2, (i + 1) // 2, i // 2), min(i, 2 * n - i) // 2 + 1)
            for i in range(2 * _half_length(n) + 1))


def enumerate_nodes(n: int) -> list[LatticeNode]:
    """All nodes of the triangle of half-length n in lexicographic (i, j) order."""
    rows = (zip(repeat(i, k), range(j, j + 2 * k, 2), range(l, l + k), range(r, r - k, -1))
            for (i, j, l, r), k in _region_rows(n))
    return list(_nodes(chain.from_iterable(rows)))


def count_paths_through(node, n: int) -> int:
    """Number of words of half-length n whose path visits ``node``, exactly.

    The count is the product of two lattice-path counts: valid prefixes
    reaching the node times valid completions from it.  A completion from
    (l, r), read backwards with '(' and ')' swapped, is a prefix reaching
    (n - r, n - l), so each factor is a ballot number (Bertrand's ballot
    theorem, by André's reflection), read from the prefix table when the
    process holds its row and computed otherwise; no table is bought.
    """
    _half_length(n)  # before the node, so a negative n is named first
    node = LatticeNode(*node)
    if not is_lattice_node(*node, n):
        raise NotInLattice(_formatted("{} is not in the lattice bounded by n={}", tuple(node), n))
    l, r = int(node.l), int(node.r)  # an integral float node counts as its int node
    return _ballot(l, r) * _ballot(n - r, n - l)


def _all_counts(n: int):
    """(node, :func:`count_paths_through`) for every node of half-length n, keeping only
    the current count.  Each next node in a row, (0, 2, 1, -1) further on, moves both
    ballot numbers by one ratio: B(l, r) by r(j + 3) / ((j + 1)(l + 2)), and
    B(n - r, n - l) by (n - l)(j + 3) / ((j + 1)(n - r + 2)); the division is exact."""
    for (i, j, l, r), k in _region_rows(n):
        count = _ballot(l, r) * _ballot(n - r, n - l)
        for _ in range(k):
            yield LatticeNode(i, j, l, r), count
            count = (count * (r * (n - l) * (j + 3) ** 2)
                     // ((j + 1) ** 2 * (l + 2) * (n - r + 2)))
            j, l, r = j + 2, l + 1, r - 1
