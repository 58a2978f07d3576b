"""Parsing balanced parentheses and walking their 4D paths.

Each symbol read updates four tied counters: position i, unbalance j,
opens l, closes r.  A word of half-length n always ends at (2n, 0, n, n).
"""

import json

from dyck4d import DyckError, parse_word, path_to_word, word_to_path

text = "(()())"
word = parse_word(text)
print(f"{text!r} is valid, half-length n = {word.n}")

path = word_to_path(word)
print("its path, one node per symbol read:")
for node in path:
    print(f"  i={node.i}  j={node.j}  l={node.l}  r={node.r}")

print("as JSON:", json.dumps(path))
print("back to text:", path_to_word(path))

for bad in [")(", "(()", "(a)"]:
    try:
        parse_word(bad)
    except DyckError as exc:
        print(f"{bad!r} rejected: error:{exc.kind}:{exc.detail}")
