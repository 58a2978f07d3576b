"""Counting, exhaustive generation, ranking and uniform sampling of balanced words.

The canonical order everywhere is lexicographic with '(' < ')', which is
plain string order of the rendered words.  Ranking walks the prefix-count
table instead of materializing the enumeration, so it stays cheap for
half-lengths far beyond desk scale.  The completions of a prefix at (l, r),
read backwards with '(' and ')' swapped, are the prefixes reaching
(n - r, n - l), so the table counts both.
"""

from __future__ import annotations

import math
import random
from typing import Iterator

from .errors import RankOutOfRange
from .lattice import prefix_count_table
from .words import DyckWord, Step


def catalan(n: int) -> int:
    """The n-th Catalan number, exact at any size."""
    if n < 0:
        raise ValueError("half-length must be non-negative")
    return math.comb(2 * n, n) // (n + 1)


def enumerate_words(n: int) -> Iterator[DyckWord]:
    """Yield every word of half-length n in lexicographic order.

    Generates by backtracking with the feasibility bounds (open while
    l < n, close while r < l); '(' is explored first, so the output is
    already sorted.
    """
    if n < 0:
        raise ValueError("half-length must be non-negative")
    steps: list[Step] = []

    def walk(l: int, r: int) -> Iterator[DyckWord]:
        if l == n and r == n:
            yield DyckWord(tuple(steps))
            return
        if l < n:
            steps.append(Step.OPEN)
            yield from walk(l + 1, r)
            steps.pop()
        if r < l:
            steps.append(Step.CLOSE)
            yield from walk(l, r + 1)
            steps.pop()

    yield from walk(0, 0)


def rank(word: DyckWord) -> int:
    """Index of ``word`` in the lexicographic enumeration of its half-length."""
    n = word.n
    table = prefix_count_table(n)
    k = 0
    # table[row][col] with row = n - r, col = n - l - 1 counts the words
    # that complete (l + 1, r); col < 0 means l = n.
    row, col = n, n - 1
    for step in word.steps:
        if step is Step.CLOSE:
            if col >= 0:  # every word opening here precedes this one
                k += table[row][col]
            row -= 1
        else:
            col -= 1
    return k


def unrank(k: int, n: int) -> DyckWord:
    """Inverse of :func:`rank`: the k-th word of half-length n."""
    if n < 0:
        raise ValueError("half-length must be non-negative")
    if not 0 <= k < catalan(n):
        raise RankOutOfRange(f"rank {k} not in [0, {catalan(n)}) for n={n}")
    table = prefix_count_table(n)
    steps = []
    row, col = n, n - 1  # as in rank: n - r and n - l - 1
    for _ in range(2 * n):
        opens = table[row][col] if col >= 0 else 0
        if col >= 0 and k < opens:
            steps.append(Step.OPEN)
            col -= 1
        else:
            k -= opens
            steps.append(Step.CLOSE)
            row -= 1
    return DyckWord(tuple(steps))


def draw_uniform_rank(rng: random.Random, total: int) -> int:
    """Uniform integer in [0, total) by rejection over fixed-width bit blocks."""
    if total <= 0:
        raise ValueError("total must be positive")
    if total == 1:
        return 0
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
    return unrank(draw_uniform_rank(rng, catalan(n)), n)
