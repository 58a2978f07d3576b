"""Brute-force reference implementations used as test oracles.

Everything here is deliberately independent of the package under test:
plain string scans and exhaustive filters, no shared code paths.
"""

import json
import math
from itertools import product


def scan(text):
    """Classify a raw parenthesis string by the running-sum rule.

    Returns ("ok", half_length), ("negative", steps_consumed) or
    ("unbalanced", final_excess).
    """
    balance = 0
    for consumed, char in enumerate(text, start=1):
        balance += 1 if char == "(" else -1
        if balance < 0:
            return ("negative", consumed)
    if balance != 0:
        return ("unbalanced", balance)
    return ("ok", len(text) // 2)


def is_balanced(text):
    return scan(text)[0] == "ok"


def all_balanced(n):
    """Every balanced string of length 2n, by filtering all 2^(2n) candidates.

    itertools.product emits '(' before ')', so the result is already in
    lexicographic order.
    """
    out = []
    for chars in product("()", repeat=2 * n):
        text = "".join(chars)
        if is_balanced(text):
            out.append(text)
    return out


def closed_form_rank(text):
    """A word's index in lexicographic order, by the ballot numbers' closed form.

    A close at l opens and r closes, l < n, passes over the words that open
    there instead: B(n - r, n - l - 1) of them, where B(a, b) =
    C(a + b, b)(a - b + 1)/(a + 1) counts the prefixes reaching (a, b).
    """
    n = len(text) // 2
    l = r = k = 0
    for char in text:
        if char == "(":
            l += 1
        else:
            if l < n:
                a, b = n - r, n - l - 1
                k += math.comb(a + b, b) * (a - b + 1) // (a + 1)
            r += 1
    return k


def count_balanced_bitmask(n):
    """Count balanced strings among all 2^(2n), scanning integer bits.

    Bit k set means symbol k is '('.  Kept separate from all_balanced so
    the count stays affordable up to n = 10.
    """
    length = 2 * n
    total = 0
    for mask in range(1 << length):
        balance = 0
        for position in range(length):
            balance += 1 if (mask >> position) & 1 else -1
            if balance < 0:
                break
        else:
            if balance == 0:
                total += 1
    return total


def visited_nodes(text):
    """The (i, j, l, r) tuples a word's path passes through, origin included."""
    l = r = 0
    nodes = [(0, 0, 0, 0)]
    for char in text:
        if char == "(":
            l += 1
        else:
            r += 1
        nodes.append((l + r, l - r, l, r))
    return nodes


def path_json(text):
    """The JSON form of a word's path, as the CLI writes it: one [i, j, l, r] per node."""
    return json.dumps(visited_nodes(text), separators=(",", ":"))


def projected_json(text, axes):
    """The JSON form of a word's path projected onto ``axes``, as the CLI writes it."""
    columns = ["ijlr".index(a) for a in axes]
    points = [[node[c] for c in columns] for node in visited_nodes(text)]
    return json.dumps({"axes": list(axes), "points": points}, separators=(",", ":"))


def visitation_counts(n):
    """Map node -> number of balanced words of half-length n visiting it."""
    counts = {}
    for text in all_balanced(n):
        for node in visited_nodes(text):
            counts[node] = counts.get(node, 0) + 1
    return counts


def random_word_text(rng, n):
    """A valid word of half-length n from an independent random walk."""
    l = r = 0
    out = []
    while len(out) < 2 * n:
        if l < n and (r == l or rng.random() < 0.5):
            out.append("(")
            l += 1
        else:
            out.append(")")
            r += 1
    return "".join(out)
