import itertools
import json
import math
import random

import pytest
from hypothesis import given, strategies as st

import golden
import oracles
from dyck4d import (LatticeNode, NotInLattice, ParityViolation,
                    catalan, complete_node, count_paths_through, enumerate_nodes,
                    is_lattice_node, parse_word, rank, unrank, verify_flat, word_to_path)
from dyck4d import cli, enumeration, lattice
from dyck4d.enumeration import _prefix_rows
from dyck4d.lattice import _all_counts


class TestMembership:
    def test_examples(self):
        assert is_lattice_node(2, 0, 1, 1)
        assert not is_lattice_node(2, 2, 0, 1)
        assert is_lattice_node(12, 0, 6, 6, 6)
        assert not is_lattice_node(7, 7, 7, 0, 6)

    def test_negative_coordinates(self):
        assert not is_lattice_node(-2, 0, -1, -1)
        assert not is_lattice_node(1, -1, 0, 1)

    def test_every_path_node_is_member(self):
        for n in range(6):
            for text in oracles.all_balanced(n):
                for node in oracles.visited_nodes(text):
                    assert is_lattice_node(*node, n)
                    assert is_lattice_node(*node)

    def test_monotone_in_bound(self):
        for n in range(6):
            for node in enumerate_nodes(n):
                assert is_lattice_node(*node, n + 1)
                assert is_lattice_node(*node)

    def test_region_rejects_negative_bound(self):
        with pytest.raises(ValueError, match="^half-length must be non-negative$"):
            enumerate_nodes(-1)
        with pytest.raises(ValueError, match="^half-length must be non-negative$"):
            verify_flat(-1)
        # before the membership check, which no node passes at n = -1
        with pytest.raises(ValueError, match="^half-length must be non-negative$"):
            count_paths_through((0, 0, 0, 0), -1)
        # membership never raises: no node lies in a triangle of negative half-length
        assert not is_lattice_node(0, 0, 0, 0, -1)

    @pytest.mark.parametrize("n", ["1", 1.5, 1.0, True], ids=["str", "float", "int-float", "bool"])
    def test_non_int_bound_is_no_triangle(self, n):
        # every other entry rejects such an n with TypeError; membership answers False
        assert not is_lattice_node(0, 0, 0, 0, n)
        assert not is_lattice_node(2, 0, 1, 1, n)

    @pytest.mark.parametrize("node", [(None,) * 4, (2, 0, None, 1), ("11", "0", "1", "1"),
                                      (10**400 + 1, 10**400 - 1, 10**400, 1.0)],
                             ids=["None", "one-None", "str", "int-past-float-plus-float"])
    def test_coordinates_that_are_not_numbers(self, node):
        # membership never raises, so the count raises NotInLattice for such a node
        assert not is_lattice_node(*node)
        assert not is_lattice_node(*node, 2)
        with pytest.raises(NotInLattice, match="is not in the lattice bounded by n=2$"):
            count_paths_through(node, 2)


class TestIntNodes:
    """A node's coordinates are ints: a value equal to an int (1.0, True) stands for
    that int, and any other value (1.5, inf, nan) is not a lattice coordinate."""

    def test_membership(self):
        assert is_lattice_node(2.0, 0.0, 1.0, True)
        assert is_lattice_node(2.0, 0.0, 1.0, 1.0, 3)
        for node in [(2.0, 1.0, 1.5, 0.5), (1.0, 0.0, 0.5, 0.5), (3.0, 0.0, 1.5, 1.5),
                     (math.inf, math.inf, math.inf, 0), (math.nan, 0, 0, 0),
                     (math.inf, 0, math.inf, math.inf)]:
            assert not is_lattice_node(*node)
            assert not is_lattice_node(*node, 3)

    def test_completion_is_the_int_node(self):
        node = complete_node(l=1.0, r=True)
        assert node == LatticeNode(2, 0, 1, 1)
        assert [type(v) for v in node] == [int] * 4
        assert json.dumps(node) == "[2, 0, 1, 1]"
        assert list(map(type, complete_node(i=4.0, j=2.0))) == [int] * 4

    def test_completion_of_halves(self):
        with pytest.raises(NotInLattice, match=r"^completion of \{'l': 1.5, 'r': 0.5\} "
                                               r"gives \(2.0, 1.0, 1.5, 0.5\)$"):
            complete_node(l=1.5, r=0.5)

    def test_count_of_an_integral_float_node(self):
        assert count_paths_through((2.0, 0.0, 1.0, 1.0), 3) == count_paths_through(
            (2, 0, 1, 1), 3) == 2
        assert type(count_paths_through((2.0, 0.0, 1.0, True), 3)) is int
        with pytest.raises(NotInLattice):
            count_paths_through((2.0, 1.0, 1.5, 0.5), 3)


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
        assert enumerate_nodes(0) == [(0, 0, 0, 0)]
        assert enumerate_nodes(1) == [(0, 0, 0, 0), (1, 1, 1, 0), (2, 0, 1, 1)]

    def test_count_formula(self):
        for n in range(9):
            nodes = enumerate_nodes(n)
            assert len(nodes) == (n + 1) * (n + 2) // 2
        # direct count of pairs r <= l <= 6
        assert len(enumerate_nodes(6)) == sum(1 for l in range(7) for r in range(l + 1))

    def test_lexicographic_ij_order(self):
        for n in range(41):
            nodes = enumerate_nodes(n)
            keys = [(node.i, node.j) for node in nodes]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)
            by_lr = sorted((LatticeNode(l + r, l - r, l, r) for l in range(n + 1)
                            for r in range(l + 1)), key=lambda node: (node.i, node.j))
            assert nodes == by_lr
            assert all(type(node) is LatticeNode for node in nodes)

    def test_nodes_equal_visited_union(self):
        for n in range(7):
            visited = set()
            for text in oracles.all_balanced(n):
                visited.update(oracles.visited_nodes(text))
            assert visited == {tuple(node) for node in enumerate_nodes(n)}


class TestCountPaths:
    def test_frozen_examples(self):
        # oracle visitation counts: 5, 1, 132
        assert count_paths_through((0, 0, 0, 0), 3) == 5
        assert count_paths_through((2, 2, 2, 0), 2) == 1
        assert count_paths_through((12, 0, 6, 6), 6) == 132

    @pytest.mark.parametrize("n", range(9))
    def test_matches_brute_force_everywhere(self, n):
        expected = oracles.visitation_counts(n)
        for node in enumerate_nodes(n):
            assert count_paths_through(node, n) == expected[tuple(node)]

    @pytest.mark.parametrize("n", range(9))
    def test_level_sums_are_catalan(self, n):
        levels = {}
        for node in enumerate_nodes(n):
            levels[node.i] = levels.get(node.i, 0) + count_paths_through(node, n)
        assert set(levels) == set(range(2 * n + 1))
        assert all(total == catalan(n) for total in levels.values())

    def test_not_in_lattice(self):
        with pytest.raises(NotInLattice, match=r"^\(1, 1, 1, 1\) is not in the lattice "
                                               r"bounded by n=3$"):
            count_paths_through((1, 1, 1, 1), 3)
        with pytest.raises(NotInLattice, match=r"^\(8, 8, 8, 0\) is not in the lattice "
                                               r"bounded by n=3$"):
            count_paths_through((8, 8, 8, 0), 3)  # l exceeds the bound

    def test_accepts_plain_tuples_and_nodes(self):
        assert count_paths_through(LatticeNode(2, 0, 1, 1), 2) == count_paths_through((2, 0, 1, 1), 2)


def _table_count(node, n, table):
    """The count as the prefix table gives it: prefixes to (l, r) times those to (n - r, n - l)."""
    return table[node.l][node.r] * table[n - node.r][n - node.l]


class TestBallotNumbers:
    """count_paths_through multiplies two ballot numbers, and ``count --n`` over all
    nodes moves them by one ratio per node; the prefix table, which rank and unrank
    read once they have bought it instead of walking ballot numbers, must agree."""

    def test_every_node_up_to_60(self):
        table = _prefix_rows(60)  # row l is the same for every n >= l
        for n in range(61):
            for node in enumerate_nodes(n):
                assert count_paths_through(node, n) == _table_count(node, n, table)

    def test_seeded_nodes_at_1000(self):
        rng = random.Random(1000)
        table = _prefix_rows(1000)
        for _ in range(200):
            l = rng.randint(0, 1000)
            r = rng.randint(0, l)
            node = LatticeNode(l + r, l - r, l, r)
            assert count_paths_through(node, 1000) == _table_count(node, 1000, table)

    @pytest.mark.parametrize("n", range(61))
    def test_all_counts_by_table(self, n):
        table = _prefix_rows(n)
        expected = [(node, _table_count(node, n, table)) for node in enumerate_nodes(n)]
        assert list(_all_counts(n)) == expected
        if n <= 7:
            brute = oracles.visitation_counts(n)
            assert [count for _, count in expected] == [brute[tuple(node)] for node, _ in expected]

    def test_all_counts_spot_rows_at_1000(self):
        rows = {0, 1, 2, 3, 500, 999, 1000, 1001, 1500, 1997, 1998, 1999, 2000}
        spots = [(node, count) for node, count in _all_counts(1000) if node.i in rows]
        assert len(spots) == sum(min(i, 2000 - i) // 2 + 1 for i in rows)
        for node, count in spots:
            assert count == count_paths_through(node, 1000)

    def test_outside_the_region_before_any_arithmetic(self):
        # membership is checked first, so a huge n outside the region fails at once
        with pytest.raises(NotInLattice, match=r"bounded by n=10{300}$"):
            count_paths_through((1, 1, 1, 1), 10**300)


@pytest.mark.usefixtures("fresh_counting")
class TestSharedTable:
    def test_one_table_and_bounded_counts(self):
        for n in range(10):  # below n = 16 the first call at n pays
            assert rank(unrank(0, n)) == 0
        assert enumeration._table == _prefix_rows(9)
        assert enumeration._walked == sum(n * n for n in range(10))  # one walk at each n
        # the table covers n = 4: rank and unrank read it, and no walk is charged
        for k, text in enumerate(oracles.all_balanced(4)):
            word = parse_word(text)
            assert rank(word) == k
            assert unrank(k, 4) == word
        assert enumeration._walked == sum(n * n for n in range(10))
        assert len(enumeration._table) == 10

    def test_count_over_all_nodes_keeps_nothing(self, capsys):
        enumeration._table = table = _prefix_rows(5)
        with golden.calls(_prefix_rows) as calls:
            assert cli.main(["count", "--n", "30"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 31 * 32 // 2
        assert enumeration._table is table and enumeration._walked == 0
        assert calls == {"_prefix_rows": []} and not hasattr(lattice, "_prefix_rows")


@pytest.mark.usefixtures("fresh_counting")
class TestCountsReadTheHeldTable:
    """Every ballot number comes from ``enumeration._ballot``: a row the process's
    prefix table holds is read, any other is computed, and no count buys a table."""

    BRUTE = {n: oracles.visitation_counts(n) for n in range(9)}

    @pytest.mark.parametrize("rows", [None, 8, 4], ids=["no-table", "rows-0-8", "rows-0-4"])
    def test_every_node_up_to_8(self, rows):
        # rows 0..4: at n = 8 a node reads one factor and computes the other
        table = enumeration._table = () if rows is None else _prefix_rows(rows)
        for n, brute in self.BRUTE.items():
            for node in enumerate_nodes(n):
                assert count_paths_through(node, n) == brute[tuple(node)]
            assert list(_all_counts(n)) == [(node, brute[tuple(node)])
                                            for node in enumerate_nodes(n)]
        assert enumeration._table is table and enumeration._walked == 0

    @pytest.mark.parametrize("rows", [None, 12, 6], ids=["no-table", "rows-0-12", "rows-0-6"])
    def test_catalan(self, rows):
        table = enumeration._table = () if rows is None else _prefix_rows(rows)
        for n in range(13):
            assert catalan(n) == math.comb(2 * n, n) // (n + 1)
        assert enumeration._table is table and enumeration._walked == 0

    def test_a_held_row_costs_no_binomial(self):
        node = LatticeNode(7, 1, 4, 3)
        enumeration._table = _prefix_rows(10)
        with golden.calls(math.comb) as calls:
            count = count_paths_through(node, 10)
            assert calls["comb"] == []
            enumeration._table = ()
            assert count_paths_through(node, 10) == count
        # B(4, 3) and B(10 - 3, 10 - 4)
        assert calls["comb"] == [{"n": 7, "k": 3}, {"n": 13, "k": 6}]
