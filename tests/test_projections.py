import json
import random

import pytest

import oracles
from dyck4d import projections
from dyck4d import (AXIS_SETS, InconsistentProjection, MalformedPath,
                    ProjectedPath, axis_set, enumerate_words, lift,
                    parse_word, project, projected_path_from_json, render_grid_2d,
                    word_to_path)


def as_json(proj):
    """The JSON form of a projected path, as a reference."""
    return {"axes": list(proj.axes), "points": [list(p) for p in proj.points]}


class TestAxisSet:
    def test_canonical_order(self):
        assert axis_set("rl") == "lr"
        assert axis_set("jlri") == "ijlr"
        assert axis_set("l,r") == axis_set("L R") == "lr"

    def test_rejects_bad_sizes_and_duplicates(self):
        for text in ("l", "ll", "x"):
            with pytest.raises(ValueError, match="axis set must be one of ij, il,"):
                axis_set(text)

    def test_library_calls_take_only_canonical_letters(self):
        path = word_to_path(parse_word("()"))
        for axes in ("rl", "x", "l", ("l", "r")):
            with pytest.raises(ValueError, match="axis set must be one of"):
                project(path, axes)
            with pytest.raises(ValueError, match="axis set must be one of"):
                lift(ProjectedPath(axes, ((0, 0), (1, 0), (1, 1))))
            with pytest.raises(ValueError, match="axis set must be one of"):
                render_grid_2d(axes, 2)


class TestCensus:
    def test_eleven_modifications(self):
        sizes = [len(m) for m in AXIS_SETS]
        assert len(AXIS_SETS) == 11
        assert sizes.count(2) == 6
        assert sizes.count(3) == 4
        assert sizes.count(4) == 1

    def test_first_is_ij(self):
        assert AXIS_SETS[0] == axis_set("ij")

    def test_contains_lr(self):
        assert axis_set("lr") in AXIS_SETS

    def test_all_distinct(self):
        assert len(set(AXIS_SETS)) == 11

    def test_canonical_order(self):
        assert AXIS_SETS == (
            "ij", "il", "ir", "jl", "jr", "lr", "ijl", "ijr", "ilr", "jlr", "ijlr")


class TestProject:
    def test_monotonic_image(self):
        path = word_to_path(parse_word("()"))
        assert project(path, "lr").points == ((0, 0), (1, 0), (1, 1))

    def test_mountain_image(self):
        path = word_to_path(parse_word("()"))
        assert project(path, "ij").points == ((0, 0), (1, 1), (2, 0))

    def test_full_axis_set_is_identity(self):
        path = word_to_path(parse_word("()"))
        assert project(path, "ijlr").points == tuple(map(tuple, path))

    def test_step_images(self):
        # '(' is a horizontal link and ')' a vertical link in the l x r grid;
        # they are an upstep and a downstep in the i x j grid.
        path = word_to_path(parse_word("(())"))
        lr = project(path, "lr").points
        ij = project(path, "ij").points
        for k, char in enumerate(parse_word("(())")):
            d_lr = (lr[k + 1][0] - lr[k][0], lr[k + 1][1] - lr[k][1])
            d_ij = (ij[k + 1][0] - ij[k][0], ij[k + 1][1] - ij[k][1])
            if char == "(":
                assert d_lr == (1, 0) and d_ij == (1, 1)
            else:
                assert d_lr == (0, 1) and d_ij == (1, -1)

    def test_monotonic_dominance(self):
        for text in oracles.all_balanced(6):
            for l, r in project(word_to_path(parse_word(text)), "lr").points:
                assert l >= r


class TestLift:
    def test_round_trip_exhaustive(self):
        mods = AXIS_SETS
        for n in range(5):
            for word in enumerate_words(n):
                path = word_to_path(word)
                for axes in mods:
                    assert lift(project(path, axes)) == path

    def test_round_trip_randomized_large(self):
        rng = random.Random(424242)
        mods = AXIS_SETS
        for n in (20, 50, 100):
            for _ in range(5):
                path = word_to_path(parse_word(oracles.random_word_text(rng, n)))
                for axes in mods:
                    assert lift(project(path, axes)) == path

    def test_simple_lift(self):
        proj = ProjectedPath("lr", ((0, 0), (1, 0), (1, 1)))
        assert lift(proj) == word_to_path(parse_word("()"))

    def test_close_before_open_is_malformed(self):
        proj = ProjectedPath("lr", ((0, 0), (0, 1)))
        with pytest.raises(MalformedPath) as exc:
            lift(proj)
        assert exc.value.index == 1

    def test_parity_inconsistency(self):
        proj = ProjectedPath("ij", ((0, 0), (1, 0)))
        with pytest.raises(InconsistentProjection) as exc:
            lift(proj)
        assert exc.value.index == 1

    @pytest.mark.parametrize("axes, points", [
        ("ij", ((0, 0), (1, 1), (2, 0), (3, 0))),
        ("ijl", ((0, 0, 0), (1, 1, 1), (2, 0, 2))),
        ("jlr", ((0, 0, 0), (1, 1, 0), (0, 1, 0))),
    ])
    def test_json_rows_find_the_same_point(self, axes, points):
        """The CLI lifts the columns it reads from the JSON arrays: the first bad
        point, its index and its message are those :func:`lift` names for the tuples."""
        data = {"axes": list(axes), "points": [list(p) for p in points]}
        raised = []
        for call in (lambda: lift(ProjectedPath(axes, points)),
                     lambda: projections._lift_columns(*projections._json_columns(data))):
            with pytest.raises(InconsistentProjection) as exc:
                call()
            raised.append((exc.value.index, str(exc.value)))
        assert raised[0] == raised[1]
        assert raised[0][0] == len(points) - 1

    def test_redundant_coordinate_contradiction(self):
        proj = ProjectedPath("ijl", ((0, 0, 0), (1, 1, 0)))
        with pytest.raises(InconsistentProjection) as exc:
            lift(proj)
        assert exc.value.index == 1

    def test_bad_origin(self):
        proj = ProjectedPath("lr", ((1, 0),))
        with pytest.raises(MalformedPath) as exc:
            lift(proj)
        assert exc.value.index == 0

    def test_bad_delta(self):
        proj = ProjectedPath("lr", ((0, 0), (2, 0)))
        with pytest.raises(MalformedPath) as exc:
            lift(proj)
        assert exc.value.index == 1


class TestJsonForm:
    def test_shape(self):
        proj = project(word_to_path(parse_word("()")), "lr")
        assert as_json(proj) == {"axes": ["l", "r"], "points": [[0, 0], [1, 0], [1, 1]]}
        # the points are a tuple of tuples, so json.dumps writes them in the JSON form
        assert json.dumps({"axes": list(proj.axes), "points": proj.points}) == \
            json.dumps(as_json(proj))

    def test_round_trip(self):
        for axes in AXIS_SETS:
            proj = project(word_to_path(parse_word("(())()")), axes)
            assert projected_path_from_json(as_json(proj)) == proj

    def test_point_width_checked(self):
        with pytest.raises(ValueError, match=r"point \(0, 0, 0\) does not match 2 axes"):
            lift(ProjectedPath("lr", ((0, 0, 0),)))
