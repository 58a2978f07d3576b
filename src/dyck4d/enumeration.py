"""Counting, exhaustive generation, ranking and uniform sampling of balanced words.

The canonical order everywhere is lexicographic with '(' < ')', which is
plain string order of the rendered words.  Ranking and unranking walk one
monotone path of ballot numbers instead of materializing the enumeration:
the completions of a prefix at (l, r), read backwards with '(' and ')'
swapped, are the prefixes reaching (n - r, n - l), counted by the ballot
number B(a, b) = C(a + b, b)(a - b + 1)/(a + 1).  The walk carries that
number itself, step to step, in O(n) memory.  Once a process's walks have
cost about one build of the Θ(n²)-entry prefix table at the n called, rank
and unrank read that table instead (ski rental: Karlin, Manasse, Rudolph and
Sleator, "Competitive snoopy caching", 1988).  Row l of the table is the
same for every n >= l, so a process keeps one table, grown to the largest
n bought, and every n below its length reads it.  This module builds the
table.  Row l + 1 is the running sum of row l, so B(l, r) = B(l + 1, r) -
B(l + 1, r - 1) for r >= 1, and B(l, 0) = 1: the table keeps rows 0..500
whole (1/8 of its integer bits), and above them every even row and its last
row; an odd row between is read from the row after it.  That holds 58% of
the memory of whole rows, and walks at n <= 500 read whole rows.
:func:`_ballot` is the package's one source of ballot numbers and its one
closed form: it reads the table when the process holds the row, else
computes the closed form, so a per-node count (lattice) reads it too, but
never buys it.  A walk starts from catalan(n) = B(n, n), read once per call or
stream of draws; unrank checks its rank against it before the buy rule, so a
rejected call charges no walk.
"""

from __future__ import annotations

import math
import random
import threading
from itertools import accumulate
from typing import Iterator

from .errors import RankOutOfRange, _formatted, _half_length
from .words import DyckWord


def catalan(n: int) -> int:
    """The n-th Catalan number, exact at any size: the ballot number B(n, n)."""
    return _ballot(_half_length(n), n)


def enumerate_words(n: int) -> Iterator[DyckWord]:
    """Yield every word of half-length n in lexicographic order.

    Steps from each word to its lexicographic successor (Knuth, TAOCP 4A
    §7.2.1.6): the rightmost '(' whose prefix has positive balance becomes
    ')', and the rest is the least completion, every remaining '(' first.
    The first word is n opens then n closes.  No recursion, so any n streams.
    """
    text = "(" * _half_length(n) + ")" * n
    while True:
        yield str.__new__(DyckWord, text)  # balanced by construction: no second scan
        excess = 0  # closes minus opens right of position p
        for p in range(2 * n - 1, -1, -1):
            if text[p] == ")":
                excess += 1
            elif excess > 1:  # the prefix before p has balance excess - 1 > 0
                break
            else:
                excess -= 1
        else:
            return
        l = text.count("(", 0, p)
        r = p - l + 1
        text = text[:p] + ")" + "(" * (n - l) + ")" * (n - r)


class _OddRow:
    """Row l of the prefix table, for an odd l above _TABLE_CAP // 2, read from row l + 1,
    its running sum: B(l, r) = B(l + 1, r) - B(l + 1, r - 1) for r >= 1, and B(l, 0) = 1."""

    __slots__ = ("below",)

    def __init__(self, below: tuple):
        self.below = below

    def __getitem__(self, r: int) -> int:
        below = self.below
        return below[r] - below[r - 1] if r else 1

    def __iter__(self) -> Iterator[int]:
        # without it, iteration would read index l + 1 too, a spurious 0, before IndexError
        return map(self.__getitem__, range(len(self.below) - 1))


def _prefix_rows(n: int, rows: tuple = ()) -> tuple:
    """Rows 0, ..., n of the prefix table, extending ``rows`` (its rows 0, ..., k <= n).

    Row l holds the number of balanced-word prefixes reaching (l, r) for r = 0, ..., l,
    the ballot numbers B(l, r); it is the same for every half-length n >= l.  Rows up
    to _TABLE_CAP // 2, every even row and the last row are tuples; an odd row above
    the cut is an :class:`_OddRow` read from the row after it.
    """
    # A prefix reaching (l, r < l) ends in '(' from (l - 1, r) or ')' from
    # (l, r - 1), so row l is the running sum of row l - 1; (l, l) is reached
    # only from (l, l - 1), so the row ends by repeating its last value.  The last
    # row is always whole, so the next build extends from it.
    rows = list(rows) or [(1,)]
    while len(rows) <= n:
        row = tuple(accumulate(rows[-1]))
        row += row[-1:]
        last = len(rows) - 1
        if last % 2 and last > _TABLE_CAP // 2:
            rows[last] = _OddRow(row)
        rows.append(row)
    return tuple(rows)


#: A table build at n costs about n / _WALK_RATIO walks at n: at n = 1000 one
#: build took 45-58 ms and one walk 1.0-1.1 ms, and the ratio grows like n (a build
#: adds Θ(n³) bits, a walk multiplies Θ(n²)).  So a walk at n costs n² and a build
#: n³ / _WALK_RATIO, and the call whose walks so far reach that cost buys rows 0..n.
_WALK_RATIO = 16
#: The table is never grown past this n: rows 0..1000 are 42.4 MB of Python objects
#: (73.5 MB were every row whole), and rows 0..500 are kept whole.
_TABLE_CAP = 1000
#: Rows 0..len - 1 of the prefix table, read by every n below its length.  One
#: process-wide tuple, replaced by a longer one when a call buys a larger n.
_table: tuple = ()
#: The summed cost n² of every walk at an n <= _TABLE_CAP the table did not cover.
#: Never reset: it stops growing once the table covers every n up to _TABLE_CAP.
_walked = 0
_lock = threading.Lock()  # guards _walked and the table's growth


def _ballot(l: int, r: int) -> int:
    """Prefixes reaching (l, r), r <= l: the ballot number B(l, r), read from the table
    when it holds row l, else C(l + r, r)(l - r + 1)/(l + 1).  Never buys a table."""
    table = _table  # one read of an immutable tuple, as in _bought_table
    if l < len(table):
        return table[l][r]
    return math.comb(l + r, r) * (l - r + 1) // (l + 1)


def _bought_table(n: int):
    """The prefix table, rows 0..n at least, once the walks so far have paid for it; None: walk."""
    global _table, _walked
    table = _table  # one read of an immutable tuple: no lock needed to use it
    if n < len(table):
        return table
    if n > _TABLE_CAP:
        return None
    with _lock:
        if len(_table) <= n:  # another thread may have grown it since the read above
            _walked += n * n
            if _WALK_RATIO * _walked < n**3:
                return None
            _table = _prefix_rows(n, _table)
        return _table


def rank(word: DyckWord) -> int:
    """Index of ``word`` in the lexicographic enumeration of its half-length."""
    if not isinstance(word, DyckWord):
        raise TypeError(f"word must be a DyckWord, not {type(word).__name__}")
    n = word.n
    table = _bought_table(n)
    # b = B(row, col) with row = n - r, col = n - l - 1 counts the words that complete
    # (l + 1, r): table[row][col], or without a table carried from B(n, n - 1) = catalan(n).
    b = 0 if table else catalan(n)
    k = 0
    row, col = n, n - 1
    for char in word:
        if char == "(":
            if not table:  # times B(row, col - 1) / B(row, col), exact
                b = b * (col * (row - col + 2)) // ((row + col) * (row - col + 1))
            col -= 1
        elif col < 0:  # l = n: only closes remain, and no word opens here
            break
        else:  # every word opening here precedes this one
            k += table[row][col] if table else b
            if not table:  # times B(row - 1, col) / B(row, col), exact
                b = b * ((row - col) * (row + 1)) // ((row + col) * (row - col + 1))
            row -= 1
    return k


def unrank(k: int, n: int) -> DyckWord:
    """Inverse of :func:`rank`: the k-th word of half-length n."""
    _half_length(n)
    if type(k) is not int:  # before catalan(n), a binomial of 2n bits with no table
        raise TypeError(f"rank must be an int, not {type(k).__name__}")
    total = catalan(n)
    if not 0 <= k < total:
        raise RankOutOfRange(_formatted("rank {} not in [0, {}) for n={}", k, total, n))
    return _unrank(k, n, _bought_table(n), total)


def _unrank(k: int, n: int, table, total: int) -> DyckWord:
    """The word of rank 0 <= k < ``total`` = catalan(n), reading ``table`` (None: walk)."""
    b = total  # B(row, col) without a table, carried as in rank
    chars = []
    row, col = n, n - 1  # as in rank: n - r and n - l - 1
    while col >= 0:  # once l = n, only closes remain
        opens = table[row][col] if table else b
        if k < opens:
            chars.append("(")
            if not table:
                b = b * (col * (row - col + 2)) // ((row + col) * (row - col + 1))
            col -= 1
        else:
            k -= opens
            chars.append(")")
            if not table:
                b = b * ((row - col) * (row + 1)) // ((row + col) * (row - col + 1))
            row -= 1
    chars.append(")" * row)
    return str.__new__(DyckWord, "".join(chars))  # balanced by construction: no second scan


def draw_uniform_rank(rng: random.Random, total: int) -> int:
    """Uniform integer in [0, total) by rejection over fixed-width bit blocks."""
    if type(total) is not int:
        raise TypeError(f"total must be an int, not {type(total).__name__}")
    if total <= 0:
        raise ValueError("total must be positive")
    bits = (total - 1).bit_length()
    while True:
        k = rng.getrandbits(bits)
        if k < total:
            return k


def _draws(rng: random.Random, n: int) -> Iterator[tuple[int, DyckWord]]:
    """(rank, word) of each uniform draw at n from ``rng``, one buy-rule call per draw;
    the stream reads catalan(n) once."""
    total = catalan(n)
    while True:
        table = _bought_table(n)
        k = draw_uniform_rank(rng, total)
        yield k, _unrank(k, n, table, total)


def sample_uniform(n: int, seed: int) -> DyckWord:
    """A uniformly random word of half-length n, deterministic per (n, seed).

    Draws a rank with :func:`draw_uniform_rank` from the stdlib Mersenne
    Twister seeded with ``seed`` and unranks it, so uniformity over words
    is exactly uniformity over ranks.
    """
    return next(_draws(random.Random(seed), n))[1]
