"""Membership, coordinate completion, enumeration and path counting.

The lattice is the set of integer points (i, j, l, r) with i = l + r,
j = l - r and l >= r >= 0.  Bounding it by a half-length n keeps exactly
the points reachable by balanced words of length 2n (additionally l <= n),
a triangular slab of (n + 1)(n + 2) / 2 nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import NotInLattice, ParityViolation, UnboundedRegion
from .words import LatticeNode


@dataclass(frozen=True)
class LatticeRegion:
    """The infinite lattice (``bound is None``) or the triangle of half-length n."""

    bound: int | None = None

    def __post_init__(self):
        if self.bound is not None and self.bound < 0:
            raise ValueError("bound must be a non-negative half-length")


INFINITE = LatticeRegion(None)


def is_lattice_node(i: int, j: int, l: int, r: int, region: LatticeRegion = INFINITE) -> bool:
    """True iff (i, j, l, r) is a lattice point of ``region``.

    Never raises: coordinates that break the tie simply yield False.
    """
    if i != l + r or j != l - r:
        return False
    if r < 0 or l < r:
        return False
    return region.bound is None or l <= region.bound


#: (l, r) from the values of two axes, keyed by the axis names in i, j, l, r order.
_PAIR_TO_LR = {
    ("i", "j"): lambda i, j: ((i + j) // 2, (i - j) // 2),
    ("i", "l"): lambda i, l: (l, i - l),
    ("i", "r"): lambda i, r: (i - r, r),
    ("j", "l"): lambda j, l: (l, l - j),
    ("j", "r"): lambda j, r: (j + r, r),
    ("l", "r"): lambda l, r: (l, r),
}


def _complete_pair(x: str, a: int, y: str, b: int) -> LatticeNode:
    """The node with coordinate ``x`` equal to a and ``y`` equal to b.

    ``x`` precedes ``y`` in i, j, l, r order.  Raises
    :class:`ParityViolation` for an (i, j) pair of mixed parity; lattice
    membership is left to the caller.
    """
    if x == "i" and y == "j" and (a + b) % 2:
        raise ParityViolation()
    l, r = _PAIR_TO_LR[x, y](a, b)
    return LatticeNode(l + r, l - r, l, r)


def complete_node(i: int | None = None, j: int | None = None,
                  l: int | None = None, r: int | None = None) -> LatticeNode:
    """Recover the unique lattice node from any two of its coordinates.

    Exactly two keyword arguments must be given.  Raises
    :class:`ParityViolation` for an (i, j) pair of mixed parity and
    :class:`NotInLattice` when the completion falls outside the lattice.
    """
    given = {name: value for name, value in zip("ijlr", (i, j, l, r)) if value is not None}
    if len(given) != 2:
        raise ValueError(f"exactly two coordinates required, got {len(given)}")
    (x, a), (y, b) = given.items()
    node = _complete_pair(x, a, y, b)
    if not is_lattice_node(*node):
        raise NotInLattice(f"completion of {dict(sorted(given.items()))} gives {tuple(node)}")
    return node


def enumerate_nodes(region: LatticeRegion) -> list[LatticeNode]:
    """All nodes of a bounded region in lexicographic (i, j) order."""
    if region.bound is None:
        raise UnboundedRegion()
    n = region.bound
    nodes = [LatticeNode(l + r, l - r, l, r) for l in range(n + 1) for r in range(l + 1)]
    nodes.sort(key=lambda node: (node.i, node.j))
    return nodes


@lru_cache(maxsize=None)
def prefix_count_table(n: int):
    """table[l][r] = number of balanced-word prefixes reaching (l, r), r <= l <= n."""
    table = [[0] * (l + 1) for l in range(n + 1)]
    table[0][0] = 1
    for l in range(n + 1):
        for r in range(l + 1):
            if l == 0 and r == 0:
                continue
            total = 0
            if l > 0 and r <= l - 1:  # previous symbol was '('
                total += table[l - 1][r]
            if r > 0:  # previous symbol was ')'
                total += table[l][r - 1]
            table[l][r] = total
    return tuple(tuple(row) for row in table)


def count_paths_through(node, n: int) -> int:
    """Number of words of half-length n whose path visits ``node``, exactly.

    The count is the product of two lattice-path counts: valid prefixes
    reaching the node times valid completions from it.  A completion from
    (l, r), read backwards with '(' and ')' swapped, is a prefix reaching
    (n - r, n - l), so both factors come from one prefix table, computed by
    dynamic programming with arbitrary-precision integers.
    """
    node = LatticeNode(*node)
    if not is_lattice_node(*node, region=LatticeRegion(n)):
        raise NotInLattice(f"{tuple(node)} is not in the lattice bounded by n={n}")
    table = prefix_count_table(n)
    return table[node.l][node.r] * table[n - node.r][n - node.l]
