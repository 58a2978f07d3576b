"""Counting, ranking and uniform sampling.

All words of half-length n are ordered lexicographically with '(' < ')'.
Ranks are exact at any size; per-node counts show how many paths pass
through each lattice point.
"""

from dyck4d import (catalan, count_paths_through,
                    enumerate_nodes, enumerate_words, rank, render_word,
                    sample_uniform, unrank)

print("catalan numbers:", [catalan(n) for n in range(10)])

print("\nall 5 words of half-length 3, with ranks:")
for word in enumerate_words(3):
    print(f"  {rank(word)}  {render_word(word)}")

print("\nrank round trip at n=50:")
k = 10**20
word = unrank(k, 50)
print(f"  unrank({k}, 50) -> {render_word(word)[:40]}...")
print(f"  rank of that word: {rank(word)}")

print("\nuniform samples are deterministic per (n, seed):")
for seed in range(3):
    print(f"  seed {seed}: {render_word(sample_uniform(8, seed))}")

print("\npaths through each node of the n=3 triangle (position i, unbalance j):")
for node in enumerate_nodes(3):
    count = count_paths_through(node, 3)
    print(f"  ({node.i}, {node.j}, {node.l}, {node.r}) -> {count}")
print("every level i sums to catalan(3) = 5: each path crosses each level once")
