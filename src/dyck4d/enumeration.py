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
Sleator, "Competitive snoopy caching", 1988).
"""

from __future__ import annotations

import math
import random
import threading
from typing import Iterator

from .errors import RankOutOfRange
from .lattice import prefix_count_table
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
        yield DyckWord(text)
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


#: A table build at n costs about n / _WALK_RATIO walks: at n = 1000 one build
#: took 110-150 ms and one walk 2-3 ms, and the ratio grows like n (a build
#: adds Θ(n³) bits, a walk multiplies Θ(n²)).  So the call at n whose count
#: reaches n / _WALK_RATIO buys the table, and every later call at n reads it.
_WALK_RATIO = 16
#: No table is bought above this n: one table there is about 93 MB.
_TABLE_CAP = 1000
#: rank and unrank calls so far per n, for the _COUNTED n used last (oldest first).
_calls: dict[int, int] = {}
#: No more n than prefix_count_table keeps tables for, so a process that rotates
#: through more n walks at each instead of buying tables the cache then evicts.
_COUNTED = prefix_count_table.cache_parameters()["maxsize"]
_calls_lock = threading.Lock()


def _bought_table(n: int):
    """The prefix table of n, once this call has paid for it; None: walk instead."""
    if n > _TABLE_CAP:
        return None
    with _calls_lock:
        calls = _calls.pop(n, 0) + 1  # put back last: the most recently used n
        _calls[n] = calls
        if len(_calls) > _COUNTED:
            del _calls[next(iter(_calls))]
    return prefix_count_table(n) if calls * _WALK_RATIO >= n else None


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
    return _unrank(k, n, None)


def _unrank(k: int, n: int, total: int | None) -> DyckWord:
    """:func:`unrank` for n >= 0, given ``total`` = catalan(n) if the caller has it."""
    table = _bought_table(n)
    if total is None:
        total = table[n][n] if table else catalan(n)
    if not 0 <= k < total:
        raise RankOutOfRange(f"rank {k} not in [0, {total}) for n={n}")
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
    return DyckWord("".join(chars))


def draw_uniform_rank(rng: random.Random, total: int) -> int:
    """Uniform integer in [0, total) by rejection over fixed-width bit blocks."""
    if total <= 0:
        raise ValueError("total must be positive")
    bits = (total - 1).bit_length()
    while True:
        k = rng.getrandbits(bits)
        if k < total:
            return k


def sample_uniform(n: int, seed: int) -> DyckWord:
    """A uniformly random word of half-length n, deterministic per (n, seed).

    Draws a rank with :func:`draw_uniform_rank` from the stdlib Mersenne
    Twister seeded with ``seed`` and unranks it, so uniformity over words
    is exactly uniformity over ranks.
    """
    rng = random.Random(seed)
    total = catalan(n)
    return _unrank(draw_uniform_rank(rng, total), n, total)
