"""Counting, exhaustive generation, ranking and uniform sampling of balanced words.

The canonical order everywhere is lexicographic with '(' < ')', which is
plain string order of the rendered words.  Ranking and unranking walk one
monotone path of ballot numbers instead of materializing the enumeration:
the completions of a prefix at (l, r), read backwards with '(' and ')'
swapped, are the prefixes reaching (n - r, n - l), counted by the ballot
number B(a, b) = C(a + b, b)(a - b + 1)/(a + 1).  The walk carries that
binomial from step to step, in O(n) memory.  Once a process's walks at one
n have cost about one build of the Θ(n²)-entry prefix table, rank and
unrank read that table instead (ski rental: Karlin, Manasse, Rudolph and
Sleator, "Competitive snoopy caching", 1988).  Row l of the table is the
same for every n >= l, so a process keeps one table, grown to the largest
n bought, and every n below its length reads it.  This module builds the
table and is its only reader.
"""

from __future__ import annotations

import math
import random
import threading
from itertools import accumulate
from typing import Iterator

from .errors import RankOutOfRange, _formatted
from .words import DyckWord


def catalan(n: int) -> int:
    """The n-th Catalan number, exact at any size."""
    if n < 0:
        raise ValueError("half-length must be non-negative")
    return math.comb(2 * n, n) // (n + 1)


def enumerate_words(n: int) -> Iterator[DyckWord]:
    """Yield every word of half-length n in lexicographic order.

    Steps from each word to its lexicographic successor (Knuth, TAOCP 4A
    §7.2.1.6): the rightmost '(' whose prefix has positive balance becomes
    ')', and the rest is the least completion, every remaining '(' first.
    The first word is n opens then n closes.  No recursion, so any n streams.
    """
    if n < 0:
        raise ValueError("half-length must be non-negative")
    text = "(" * n + ")" * n
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


def _prefix_rows(n: int, rows: tuple = ()) -> tuple:
    """Rows 0, ..., n of the prefix table, extending ``rows`` (its rows 0, ..., k <= n).

    Row l holds the number of balanced-word prefixes reaching (l, r) for r = 0, ..., l,
    the ballot numbers B(l, r); it is the same for every half-length n >= l.
    """
    # A prefix reaching (l, r < l) ends in '(' from (l - 1, r) or ')' from
    # (l, r - 1), so row l is the running sum of row l - 1; (l, l) is reached
    # only from (l, l - 1), so the row ends by repeating its last value.
    rows = list(rows) or [(1,)]
    while len(rows) <= n:
        row = tuple(accumulate(rows[-1]))
        rows.append(row + row[-1:])
    return tuple(rows)


#: A table build at n costs about n / _WALK_RATIO walks: at n = 1000 one build
#: took 110-150 ms and one walk 2-3 ms, and the ratio grows like n (a build
#: adds Θ(n³) bits, a walk multiplies Θ(n²)).  So the call at n whose count
#: reaches n / _WALK_RATIO buys the table, and every later call at n reads it.
_WALK_RATIO = 16
#: The table is never grown past this n: rows 0..1000 hold about 78 MB.
_TABLE_CAP = 1000
#: Rows 0..len - 1 of the prefix table, read by every n below its length.  One
#: process-wide tuple, replaced by a longer one when a call buys a larger n.
_table: tuple = ()
#: rank and unrank calls so far per n, for the _COUNTED n used last (oldest first),
#: counting only calls the table did not cover; bounded, so a process that rotates
#: through more n walks at each instead of growing memory with its history.
_calls: dict[int, int] = {}
_COUNTED = 4
_calls_lock = threading.Lock()


def _bought_table(n: int):
    """The prefix table, rows 0..n at least, once a call at n has paid for it; None: walk."""
    global _table
    table = _table  # one read of an immutable tuple: no lock needed to use it
    if n < len(table):
        return table
    if n > _TABLE_CAP:
        return None
    with _calls_lock:
        calls = _calls.pop(n, 0) + 1  # put back last: the most recently used n
        _calls[n] = calls
        if len(_calls) > _COUNTED:
            del _calls[next(iter(_calls))]
        if calls * _WALK_RATIO < n:
            return None
        if len(_table) <= n:  # another thread may have grown it since the read above
            _table = _prefix_rows(n, _table)
        return _table


def rank(word: DyckWord) -> int:
    """Index of ``word`` in the lexicographic enumeration of its half-length."""
    n = word.n
    table = _bought_table(n)
    # table[row][col] = B(row, col) with row = n - r, col = n - l - 1 counts the
    # words that complete (l + 1, r); without a table, c = C(row + col, col),
    # which starts at C(2n - 1, n - 1) = C(2n, n) / 2 (0 at n = 0, where no step reads it).
    c = 0 if table else math.comb(2 * n, n) // 2
    k = 0
    row, col = n, n - 1
    for char in word:
        if char == "(":
            if not table:
                c = c * col // (row + col)
            col -= 1
        elif col < 0:  # l = n: only closes remain, and no word opens here
            break
        else:  # every word opening here precedes this one
            if table:
                k += table[row][col]
            else:
                k += c * (row - col + 1) // (row + 1)
                c = c * row // (row + col)
            row -= 1
    return k


def unrank(k: int, n: int) -> DyckWord:
    """Inverse of :func:`rank`: the k-th word of half-length n."""
    if n < 0:
        raise ValueError("half-length must be non-negative")
    table = _bought_table(n)
    return _unrank(k, n, table, table[n][n] if table else catalan(n))


def _unrank(k: int, n: int, table, total: int) -> DyckWord:
    """:func:`unrank` for n >= 0 with ``total`` = catalan(n), reading ``table`` (None: walk)."""
    if not 0 <= k < total:
        raise RankOutOfRange(_formatted("rank {} not in [0, {}) for n={}", k, total, n))
    c = 0 if table else total * (n + 1) // 2  # C(2n, n) / 2, as in rank
    chars = []
    row, col = n, n - 1  # as in rank: n - r and n - l - 1
    while col >= 0:  # once l = n, only closes remain
        opens = table[row][col] if table else c * (row - col + 1) // (row + 1)
        if k < opens:
            chars.append("(")
            if not table:
                c = c * col // (row + col)
            col -= 1
        else:
            k -= opens
            chars.append(")")
            if not table:
                c = c * row // (row + col)
            row -= 1
    chars.append(")" * row)
    return str.__new__(DyckWord, "".join(chars))  # balanced by construction: no second scan


def draw_uniform_rank(rng: random.Random, total: int) -> int:
    """Uniform integer in [0, total) by rejection over fixed-width bit blocks."""
    if total <= 0:
        raise ValueError("total must be positive")
    bits = (total - 1).bit_length()
    while True:
        k = rng.getrandbits(bits)
        if k < total:
            return k


def _draw(rng: random.Random, n: int, total: int | None = None):
    """(rank, word, catalan(n)) of one uniform draw at n, with one buy-rule call.

    catalan(n) is read from the table when it covers n, else it is ``total`` if
    the caller has it from an earlier draw, else computed here.
    """
    if n < 0:
        raise ValueError("half-length must be non-negative")
    table = _bought_table(n)
    total = table[n][n] if table else total or catalan(n)
    k = draw_uniform_rank(rng, total)
    return k, _unrank(k, n, table, total), total


def sample_uniform(n: int, seed: int) -> DyckWord:
    """A uniformly random word of half-length n, deterministic per (n, seed).

    Draws a rank with :func:`draw_uniform_rank` from the stdlib Mersenne
    Twister seeded with ``seed`` and unranks it, so uniformity over words
    is exactly uniformity over ranks.
    """
    return _draw(random.Random(seed), n)[1]
