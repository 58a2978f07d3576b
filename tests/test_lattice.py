import itertools

import pytest
from hypothesis import given, strategies as st

import oracles
from dyck4d import (INFINITE, LatticeNode, LatticeRegion, NotInLattice,
                    ParityViolation, UnboundedRegion, catalan, complete_node,
                    count_paths_through, enumerate_nodes, is_lattice_node,
                    parse_word, rank, unrank, word_to_path)
from dyck4d.lattice import prefix_count_table


class TestMembership:
    def test_examples(self):
        assert is_lattice_node(2, 0, 1, 1)
        assert not is_lattice_node(2, 2, 0, 1)
        assert is_lattice_node(12, 0, 6, 6, LatticeRegion(6))
        assert not is_lattice_node(7, 7, 7, 0, LatticeRegion(6))

    def test_negative_coordinates(self):
        assert not is_lattice_node(-2, 0, -1, -1)
        assert not is_lattice_node(1, -1, 0, 1)

    def test_every_path_node_is_member(self):
        for n in range(6):
            region = LatticeRegion(n)
            for text in oracles.all_balanced(n):
                for node in oracles.visited_nodes(text):
                    assert is_lattice_node(*node, region=region)
                    assert is_lattice_node(*node)

    def test_monotone_in_bound(self):
        for n in range(6):
            for node in enumerate_nodes(LatticeRegion(n)):
                assert is_lattice_node(*node, region=LatticeRegion(n + 1))
                assert is_lattice_node(*node, region=INFINITE)

    def test_region_rejects_negative_bound(self):
        with pytest.raises(ValueError):
            LatticeRegion(-1)


class TestCompleteNode:
    def test_pair_examples(self):
        assert complete_node(i=12, j=0) == (12, 0, 6, 6)
        assert complete_node(l=1, r=0) == (1, 1, 1, 0)

    def test_parity_violation(self):
        with pytest.raises(ParityViolation):
            complete_node(i=3, j=2)

    def test_out_of_lattice_completions(self):
        with pytest.raises(NotInLattice):
            complete_node(l=0, r=1)  # l < r
        with pytest.raises(NotInLattice):
            complete_node(i=1, l=2)  # r would be negative
        with pytest.raises(NotInLattice):
            complete_node(j=1, l=0)  # r would be negative
        with pytest.raises(NotInLattice):
            complete_node(i=2, j=-2)  # l would be negative

    def test_requires_exactly_two(self):
        with pytest.raises(ValueError):
            complete_node(i=2)
        with pytest.raises(ValueError):
            complete_node(i=2, j=0, l=1)

    def test_all_pairs_recover_every_path_node(self):
        names = "ijlr"
        for text in oracles.all_balanced(5):
            for node in word_to_path(parse_word(text)):
                for keep in itertools.combinations(range(4), 2):
                    known = {names[k]: node[k] for k in keep}
                    assert complete_node(**known) == node

    @given(st.sampled_from(list(itertools.combinations("ijlr", 2))),
           st.integers(-6, 6), st.integers(-6, 6))
    def test_every_pair_against_brute_force(self, names, a, b):
        # Every integer point (l + r, l - r, l, r) with |l|, |r| <= 12 is searched;
        # two coordinates in [-6, 6] fix l and r inside that box if at all.
        known = dict(zip(names, (a, b)))
        found = [node for l, r in itertools.product(range(-12, 13), repeat=2)
                 for node in [LatticeNode(l + r, l - r, l, r)]
                 if all(getattr(node, name) == value for name, value in known.items())]
        if not found:
            with pytest.raises(ParityViolation):
                complete_node(**known)
        elif not is_lattice_node(*found[0]):
            with pytest.raises(NotInLattice):
                complete_node(**known)
        else:
            assert [complete_node(**known)] == found


class TestEnumerateNodes:
    def test_smallest_regions(self):
        assert enumerate_nodes(LatticeRegion(0)) == [(0, 0, 0, 0)]
        assert enumerate_nodes(LatticeRegion(1)) == [(0, 0, 0, 0), (1, 1, 1, 0), (2, 0, 1, 1)]

    def test_count_formula(self):
        for n in range(9):
            nodes = enumerate_nodes(LatticeRegion(n))
            assert len(nodes) == (n + 1) * (n + 2) // 2
        # direct count of pairs r <= l <= 6
        assert len(enumerate_nodes(LatticeRegion(6))) == sum(1 for l in range(7) for r in range(l + 1))

    def test_lexicographic_ij_order(self):
        for n in range(41):
            nodes = enumerate_nodes(LatticeRegion(n))
            keys = [(node.i, node.j) for node in nodes]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)
            by_lr = sorted((LatticeNode(l + r, l - r, l, r) for l in range(n + 1)
                            for r in range(l + 1)), key=lambda node: (node.i, node.j))
            assert nodes == by_lr
            assert all(type(node) is LatticeNode for node in nodes)

    def test_unbounded_raises(self):
        with pytest.raises(UnboundedRegion):
            enumerate_nodes(INFINITE)

    def test_nodes_equal_visited_union(self):
        for n in range(7):
            visited = set()
            for text in oracles.all_balanced(n):
                visited.update(oracles.visited_nodes(text))
            assert visited == {tuple(node) for node in enumerate_nodes(LatticeRegion(n))}


class TestCountPaths:
    def test_frozen_examples(self):
        # oracle visitation counts: 5, 1, 132
        assert count_paths_through((0, 0, 0, 0), 3) == 5
        assert count_paths_through((2, 2, 2, 0), 2) == 1
        assert count_paths_through((12, 0, 6, 6), 6) == 132

    @pytest.mark.parametrize("n", range(7))
    def test_matches_brute_force_everywhere(self, n):
        expected = oracles.visitation_counts(n)
        for node in enumerate_nodes(LatticeRegion(n)):
            assert count_paths_through(node, n) == expected[tuple(node)]

    @pytest.mark.parametrize("n", range(9))
    def test_level_sums_are_catalan(self, n):
        levels = {}
        for node in enumerate_nodes(LatticeRegion(n)):
            levels[node.i] = levels.get(node.i, 0) + count_paths_through(node, n)
        assert set(levels) == set(range(2 * n + 1))
        assert all(total == catalan(n) for total in levels.values())

    def test_not_in_lattice(self):
        with pytest.raises(NotInLattice):
            count_paths_through((1, 1, 1, 1), 3)
        with pytest.raises(NotInLattice):
            count_paths_through((8, 8, 8, 0), 3)  # l exceeds the bound

    def test_accepts_plain_tuples_and_nodes(self):
        assert count_paths_through(LatticeNode(2, 0, 1, 1), 2) == count_paths_through((2, 0, 1, 1), 2)


class TestCountTableCache:
    def test_bounded_and_correct_after_eviction(self):
        prefix_count_table.cache_clear()
        for n in range(10):
            prefix_count_table(n)
        assert prefix_count_table.cache_info().currsize == 4
        # n = 4 was evicted: rank and unrank build its table again
        for k, text in enumerate(oracles.all_balanced(4)):
            word = parse_word(text)
            assert rank(word) == k
            assert unrank(k, 4) == word
        assert prefix_count_table.cache_info().currsize == 4
