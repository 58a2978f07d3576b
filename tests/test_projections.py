import random

import pytest

import oracles
from dyck4d import (AxisSet, InconsistentProjection, MalformedPath,
                    ProjectedPath, all_modifications, enumerate_words, lift,
                    parse_word, project, projected_path_as_json,
                    projected_path_from_json, word_to_path)


class TestAxisSet:
    def test_canonical_order(self):
        assert AxisSet.of("rl").axes == "lr"
        assert AxisSet.of("jlri").axes == "ijlr"
        assert AxisSet.of("l,r") == AxisSet.of("lr")

    def test_constructor_takes_only_canonical_letters(self):
        assert AxisSet("lr").axes == "lr"
        for axes in ("rl", "l", "ll", "x", ("l", "r")):
            with pytest.raises(ValueError):
                AxisSet(axes)

    def test_rejects_bad_sizes_and_duplicates(self):
        with pytest.raises(ValueError):
            AxisSet.of("l")
        with pytest.raises(ValueError):
            AxisSet.of("ll")
        with pytest.raises(ValueError):
            AxisSet.of("x")

    def test_names(self):
        assert AxisSet.of("ij").names() == ["i", "j"]


class TestCensus:
    def test_eleven_modifications(self):
        mods = all_modifications()
        assert len(mods) == 11
        sizes = [len(m) for m in mods]
        assert sizes.count(2) == 6
        assert sizes.count(3) == 4
        assert sizes.count(4) == 1

    def test_first_is_ij(self):
        assert all_modifications()[0] == AxisSet.of("ij")

    def test_contains_lr(self):
        assert AxisSet.of("lr") in all_modifications()

    def test_all_distinct(self):
        assert len(set(all_modifications())) == 11

    def test_canonical_order(self):
        assert [m.axes for m in all_modifications()] == [
            "ij", "il", "ir", "jl", "jr", "lr", "ijl", "ijr", "ilr", "jlr", "ijlr"]


class TestProject:
    def test_monotonic_image(self):
        path = word_to_path(parse_word("()"))
        assert project(path, AxisSet.of("lr")).points == ((0, 0), (1, 0), (1, 1))

    def test_mountain_image(self):
        path = word_to_path(parse_word("()"))
        assert project(path, AxisSet.of("ij")).points == ((0, 0), (1, 1), (2, 0))

    def test_full_axis_set_is_identity(self):
        path = word_to_path(parse_word("()"))
        assert project(path, AxisSet.of("ijlr")).points == tuple(tuple(n) for n in path.nodes)

    def test_step_images(self):
        # '(' is a horizontal link and ')' a vertical link in the l x r grid;
        # they are an upstep and a downstep in the i x j grid.
        path = word_to_path(parse_word("(())"))
        lr = project(path, AxisSet.of("lr")).points
        ij = project(path, AxisSet.of("ij")).points
        for k, char in enumerate(parse_word("(())").text):
            d_lr = (lr[k + 1][0] - lr[k][0], lr[k + 1][1] - lr[k][1])
            d_ij = (ij[k + 1][0] - ij[k][0], ij[k + 1][1] - ij[k][1])
            if char == "(":
                assert d_lr == (1, 0) and d_ij == (1, 1)
            else:
                assert d_lr == (0, 1) and d_ij == (1, -1)

    def test_monotonic_dominance(self):
        for text in oracles.all_balanced(6):
            for l, r in project(word_to_path(parse_word(text)), AxisSet.of("lr")).points:
                assert l >= r


class TestLift:
    def test_round_trip_exhaustive(self):
        mods = all_modifications()
        for n in range(5):
            for word in enumerate_words(n):
                path = word_to_path(word)
                for axes in mods:
                    assert lift(project(path, axes)) == path

    def test_round_trip_randomized_large(self):
        rng = random.Random(424242)
        mods = all_modifications()
        for n in (20, 50, 100):
            for _ in range(5):
                path = word_to_path(parse_word(oracles.random_word_text(rng, n)))
                for axes in mods:
                    assert lift(project(path, axes)) == path

    def test_simple_lift(self):
        proj = ProjectedPath(AxisSet.of("lr"), ((0, 0), (1, 0), (1, 1)))
        assert lift(proj) == word_to_path(parse_word("()"))

    def test_close_before_open_is_malformed(self):
        proj = ProjectedPath(AxisSet.of("lr"), ((0, 0), (0, 1)))
        with pytest.raises(MalformedPath) as exc:
            lift(proj)
        assert exc.value.index == 1

    def test_parity_inconsistency(self):
        proj = ProjectedPath(AxisSet.of("ij"), ((0, 0), (1, 0)))
        with pytest.raises(InconsistentProjection) as exc:
            lift(proj)
        assert exc.value.index == 1

    def test_redundant_coordinate_contradiction(self):
        proj = ProjectedPath(AxisSet.of("ijl"), ((0, 0, 0), (1, 1, 0)))
        with pytest.raises(InconsistentProjection) as exc:
            lift(proj)
        assert exc.value.index == 1

    def test_bad_origin(self):
        proj = ProjectedPath(AxisSet.of("lr"), ((1, 0),))
        with pytest.raises(MalformedPath) as exc:
            lift(proj)
        assert exc.value.index == 0

    def test_bad_delta(self):
        proj = ProjectedPath(AxisSet.of("lr"), ((0, 0), (2, 0)))
        with pytest.raises(MalformedPath) as exc:
            lift(proj)
        assert exc.value.index == 1


class TestJsonForm:
    def test_shape(self):
        proj = project(word_to_path(parse_word("()")), AxisSet.of("lr"))
        assert projected_path_as_json(proj) == {"axes": ["l", "r"], "points": [[0, 0], [1, 0], [1, 1]]}

    def test_round_trip(self):
        for axes in all_modifications():
            proj = project(word_to_path(parse_word("(())()")), axes)
            assert projected_path_from_json(projected_path_as_json(proj)) == proj

    def test_point_width_checked(self):
        with pytest.raises(ValueError):
            ProjectedPath(AxisSet.of("lr"), ((0, 0, 0),))
