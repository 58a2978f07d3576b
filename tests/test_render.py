import contextlib
import functools
import io
import math
import random
import xml.etree.ElementTree as ET
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import golden
import oracles
from dyck4d import render
from dyck4d import (ROLE_COLORS, ProjectedPath, WrongArity, double_tesseract,
                    edge_list_text, parse_word, project, render_grid_2d,
                    render_wireframe, word_to_path)
from dyck4d.cli import main

SVG_NS = "{http://www.w3.org/2000/svg}"


def classes(svg):
    root = ET.fromstring(svg)
    return Counter(el.get("class") for el in root.iter() if el.get("class"))


def elements_of_class(svg, css_class):
    root = ET.fromstring(svg)
    return [el for el in root.iter() if el.get("class") == css_class]


class TestGrid:
    def test_lr_grid_structure(self):
        svg = render_grid_2d("lr", 6)
        counts = classes(svg)
        assert counts["grid"] == 14  # 7 vertical + 7 horizontal isolines
        assert counts["diagonal"] == 1
        diagonal = elements_of_class(svg, "diagonal")[0]
        assert diagonal.get("stroke") == ROLE_COLORS["blue-j"]
        assert diagonal.get("stroke-dasharray") is not None

    def test_ij_mountain_frame(self):
        svg = render_grid_2d("ij", 1, project(word_to_path(parse_word("()")), "ij"))
        counts = classes(svg)
        assert counts["grid"] == 3 + 2  # i = 0..2 vertical, j = 0..1 horizontal
        assert counts["path"] == 1
        # pixel mapping: 40 px/unit, 20 px margin, y flipped (j max = 1)
        polyline = elements_of_class(svg, "path")[0]
        assert polyline.get("points") == "20.00,60.00 60.00,20.00 100.00,60.00"

    def test_no_diagonal_outside_lr(self):
        assert classes(render_grid_2d("ij", 4))["diagonal"] == 0

    def test_grid_line_colors_follow_axes(self):
        svg = render_grid_2d("lr", 2)
        strokes = {el.get("stroke") for el in elements_of_class(svg, "grid")}
        assert strokes == {ROLE_COLORS["yellow-l"], ROLE_COLORS["red-r"]}

    def test_wrong_arity(self):
        with pytest.raises(WrongArity):
            render_grid_2d("ijl", 4)
        with pytest.raises(WrongArity):  # before the half-length check
            render_grid_2d("ijl", -1)

    def test_mismatched_projection(self):
        proj = project(word_to_path(parse_word("()")), "ij")
        with pytest.raises(ValueError):
            render_grid_2d("lr", 1, proj)

    def test_wrong_arity_before_the_mismatch(self):
        proj = project(word_to_path(parse_word("()")), "ij")
        with pytest.raises(WrongArity):
            render_grid_2d("ijl", 1, proj)

    @pytest.mark.parametrize("axes", ["ij", "il", "ir", "jl", "jr", "lr"])
    @pytest.mark.parametrize("n", [-1, -2])
    @pytest.mark.parametrize("overlay", [False, True], ids=["bare", "overlay"])
    def test_negative_half_length(self, axes, n, overlay):
        proj = project(word_to_path(parse_word("()")), axes) if overlay else None
        with pytest.raises(ValueError, match="half-length must be non-negative"):
            render_grid_2d(axes, n, proj)

    @pytest.mark.parametrize("axes", ["ij", "il", "ir", "jl", "jr", "lr"])
    @pytest.mark.parametrize("n, m", [(0, 0), (3, 3), (9, 9), (0, 2), (3, 7), (7, 3), (4, 0)])
    def test_library_and_cli_draw_the_same_bytes(self, axes, n, m):
        """The CLI draws its overlay from the word's columns, the library from a
        projected path; a word of another half-length than the grid included."""
        word = oracles.random_word_text(random.Random(100 * n + m), m)
        expected = render_grid_2d(axes, n, project(word_to_path(parse_word(word)), axes))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["render", "grid", "--axes", axes, "--n", str(n), "--word", word]) == 0
        assert out.getvalue() == expected

    @pytest.mark.parametrize("axes, n", [("ij", 0), ("ij", 3), ("lr", 2), ("jr", 1)])
    def test_empty_projected_path(self, axes, n):
        """An overlay of no points leaves the canvas as it is and adds an empty polyline."""
        bare = render_grid_2d(axes, n).split("\n")
        drawn = render_grid_2d(axes, n, ProjectedPath(axes, ())).split("\n")
        assert drawn == bare[:-2] + [
            '<polyline class="path" points="" fill="none" stroke="#111111" '
            'stroke-width="2.50"/>'] + bare[-2:]

    def test_deterministic(self):
        a = render_grid_2d("lr", 6, project(word_to_path(parse_word("()()()()()()")), "lr"))
        b = render_grid_2d("lr", 6, project(word_to_path(parse_word("()()()()()()")), "lr"))
        assert a == b


class TestWireframe:
    def test_box_orthographic(self):
        box = double_tesseract(2)
        svg, edges = render_wireframe(box, "orthographic-3d")
        counts = classes(svg)
        assert counts["vertex"] == 16
        assert counts["edge"] == 32
        assert counts["anchor"] == 0

    def test_cell_orthographic(self):
        box = double_tesseract(1)
        svg, _ = render_wireframe(box.cell("j", 0), "orthographic-3d")
        counts = classes(svg)
        assert counts["vertex"] == 8
        assert counts["edge"] == 12

    def test_schlegel_structure(self):
        box = double_tesseract(6)
        svg, _ = render_wireframe(box, "schlegel")
        counts = classes(svg)
        assert counts["vertex"] == 16
        assert counts["edge"] == 32
        assert counts["anchor"] == 3

    def test_triangle_overlay_flag(self):
        box = double_tesseract(6)
        bare, _ = render_wireframe(box, "schlegel")
        overlaid, _ = render_wireframe(box, "schlegel", include_triangle=True)
        assert classes(bare)["side-blue"] == 0
        for name in ("side-blue", "side-red", "side-yellow"):
            assert classes(overlaid)[name] == 1

    def test_edge_colors_follow_varying_axis(self):
        box = double_tesseract(3)
        svg, _ = render_wireframe(box, "orthographic-3d")
        strokes = Counter(el.get("stroke") for el in elements_of_class(svg, "edge"))
        # 8 edges per axis
        assert strokes == Counter({ROLE_COLORS["green-i"]: 8, ROLE_COLORS["blue-j"]: 8,
                                   ROLE_COLORS["yellow-l"]: 8, ROLE_COLORS["red-r"]: 8})

    def test_deterministic(self):
        box = double_tesseract(6)
        assert render_wireframe(box, "schlegel", True) == render_wireframe(box, "schlegel", True)

    def test_unknown_style(self):
        with pytest.raises(ValueError):
            render_wireframe(double_tesseract(2), "perspective")

    def test_schlegel_needs_full_box(self):
        box = double_tesseract(2)
        with pytest.raises(ValueError):
            render_wireframe(box.cell("i", 0), "schlegel")

    def test_triangle_overlay_needs_full_box(self):
        cell = double_tesseract(2).cell("i", 0)
        with pytest.raises(ValueError, match="^the triangle overlay needs the full 4D box$"):
            render_wireframe(cell, "orthographic-3d", include_triangle=True)

    def test_no_projected_vertex_collisions(self):
        for n in range(1, 9):
            columns = tuple(zip(*double_tesseract(n).vertices))
            assert len(set(zip(*render._ortho_columns(*columns)))) == 16
            assert len(set(zip(*render._schlegel_columns(n, *columns)))) == 16

    @pytest.mark.parametrize("n", [1, 2, 7, 399, 400, 10**300])
    def test_view_columns_match_the_point_formulas(self, n):
        """Both views give every point the floats of the formulas in the module
        docstring, evaluated one point at a time in the same order."""
        def ortho(i, j, l, r):
            return (l + render.VIEW_J[0] * j + render.VIEW_I[0] * i,
                    r + render.VIEW_J[1] * j + render.VIEW_I[1] * i)

        def schlegel(i, j, l, r):
            scale = 1.0 - (i / (2 * n)) * (1.0 - render.SCHLEGEL_INNER_SCALE)
            center = n / 2
            qj, ql, qr = (center + scale * (c - center) for c in (j, l, r))
            return (ql + render.VIEW_J[0] * qj, qr + render.VIEW_J[1] * qj)

        rng = random.Random(n)
        points = list(double_tesseract(n).vertices) + [
            (rng.randint(0, 2 * n), rng.randint(0, n), rng.randint(0, n), rng.randint(0, n))
            for _ in range(50)]
        columns = tuple(zip(*points))
        for view, point in ((render._ortho_columns, ortho),
                            (functools.partial(render._schlegel_columns, n), schlegel)):
            assert list(zip(*view(*columns))) == [point(*p) for p in points]

    # The CLI's bound, 10**300, draws in both views.  At 2 * 10**306 the orthographic
    # canvas passes the largest float while the nested cubes still fit; at 10**307
    # both do; at 10**309 the corner i = 2n is past it, and no view may convert it.
    @pytest.mark.parametrize("n, style, fits", [
        (10**300, "orthographic-3d", True), (10**300, "schlegel", True),
        (2 * 10**306, "orthographic-3d", False), (2 * 10**306, "schlegel", True),
        (10**307, "orthographic-3d", False), (10**307, "schlegel", False),
        (10**309, "orthographic-3d", False), (10**309, "schlegel", False),
    ], ids=[f"{n}-{style}" for n in ("1e300", "2e306", "1e307", "1e309")
            for style in ("orthographic", "schlegel")])
    def test_canvas_past_float_range(self, n, style, fits):
        box = double_tesseract(n)
        if fits:
            svg, _ = render_wireframe(box, style)
            assert "inf" not in svg and "nan" not in svg
            return
        with pytest.raises(OverflowError, match="^the canvas leaves float range$") as exc:
            render_wireframe(box, style)
        tb = exc.value.__traceback__  # raised by the package's check, not by arithmetic
        while tb.tb_next:
            tb = tb.tb_next
        assert tb.tb_frame.f_code.co_name == "_in_float_range"

    @pytest.mark.parametrize("style", ["orthographic-3d", "schlegel"])
    def test_overlay_of_a_negative_half_length(self, style):
        box = double_tesseract(2)._replace(n=-1)
        with pytest.raises(ValueError, match="^half-length must be non-negative$"):
            render_wireframe(box, style, include_triangle=True)


class TestEdgeList:
    def test_format(self):
        box = double_tesseract(1)
        text = edge_list_text(box)
        lines = text.splitlines()
        assert len(lines) == 48
        assert lines[0] == "v 0 0 0 0"
        assert lines[15] == "v 2 1 1 1"
        assert all(line.startswith("v ") for line in lines[:16])
        assert all(line.startswith("e ") for line in lines[16:])

    def test_indices_in_range(self):
        box = double_tesseract(4)
        text = edge_list_text(box)
        for line in text.splitlines()[16:]:
            _, a, b = line.split()
            assert 0 <= int(a) < int(b) < 16

    def test_same_for_both_styles(self):
        box = double_tesseract(3)
        _, a = render_wireframe(box, "orthographic-3d")
        _, b = render_wireframe(box, "schlegel")
        assert a == b == edge_list_text(box)


class TestSvgHygiene:
    def documents(self):
        box = double_tesseract(6)
        yield render_grid_2d("lr", 6)
        yield render_grid_2d("ij", 3, project(word_to_path(parse_word("((()))")), "ij"))
        yield render_grid_2d("il", 2)
        yield render_wireframe(box, "orthographic-3d", True)[0]
        yield render_wireframe(box, "schlegel", True)[0]
        yield render_wireframe(box.cell("l", 6), "orthographic-3d")[0]

    def test_well_formed_xml(self):
        for svg in self.documents():
            ET.fromstring(svg)

    def test_only_role_colors_referenced(self):
        allowed = set(ROLE_COLORS.values())
        for svg in self.documents():
            root = ET.fromstring(svg)
            for el in root.iter():
                for attr in ("stroke", "fill"):
                    value = el.get(attr)
                    if value and value != "none":
                        assert value in allowed, (attr, value)

    def test_empty_scene_renders(self):
        ET.fromstring(render._to_svg([]))


def _fmt(value):
    return format(float(value), ".2f")


class TestPixelColumn:
    """An all-int column skips float formatting only where that gives the same bytes:
    below an extent of 2**53, where every int is exact in binary64."""

    @pytest.fixture
    def unit_pixels(self, monkeypatch):
        # a pixel is its offset from the column's edge, so it can be any int near 2**53
        monkeypatch.setattr(render, "MARGIN", 0)
        monkeypatch.setattr(render, "PIXELS_PER_UNIT", 1)

    @pytest.fixture
    def float_columns(self):
        """The arguments of every column formatted by the float path from now on."""
        with golden.calls(render._fmt_all) as calls:
            yield calls["_fmt_all"]

    @pytest.mark.parametrize("v", [0, 1, -1, 2**53 - 2, 2**53 - 1, -(2**53 - 1)])
    def test_int_path_below_the_bound(self, unit_pixels, float_columns, v):
        # with flip, a pixel is -(v - max): (0, v) reaches |v| either way
        extent, pixels = render._pixel_column((0, v), flip=v < 0)
        assert (extent, pixels) == (_fmt(abs(v)), [_fmt(0), _fmt(abs(v))])
        assert float_columns == []

    @pytest.mark.parametrize("v", [2**53, 2**53 + 1, -(2**53 + 1)])
    def test_float_path_from_the_bound(self, unit_pixels, float_columns, v):
        extent, pixels = render._pixel_column((0, v), flip=v < 0)
        assert (extent, pixels) == (_fmt(abs(v)), [_fmt(0), _fmt(abs(v))])
        assert float_columns == [{"values": [0, abs(v)]}]
        if abs(v) > 2**53:  # where an int's own digits would no longer match
            assert f"{abs(v)}.00" != _fmt(abs(v))

    def test_fmt_all_formats_as_fmt(self):
        # halfway cases that binary64 rounds either way, an int past 2**53, a
        # 302-digit float, the infinities and nan
        values = [-0.0, 0.005, 0.015, 2.675, 2**53 + 1, 4e301, math.inf, -math.inf, math.nan]
        assert render._fmt_all(values) == [f"{float(x):.2f}" for x in values]
        assert render._fmt_all([]) == []

    @pytest.mark.parametrize("column", [(0, 1.0), (0.5, 3), (2.0, 4.0)])
    def test_float_path_unless_every_value_is_an_int(self, float_columns, column):
        _, pixels = render._pixel_column(column, flip=False)
        lo = min(column)
        assert pixels == [_fmt(render.MARGIN + render.PIXELS_PER_UNIT * (v - lo))
                          for v in column]
        assert len(float_columns) == 1

    def test_bound_at_the_real_canvas_metrics(self, float_columns):
        # 2 MARGIN + PIXELS_PER_UNIT * span first reaches 2**53 at this span
        span = (2**53 - 2 * render.MARGIN) // render.PIXELS_PER_UNIT + 1
        render._pixel_column((0, span - 1), flip=False)
        assert float_columns == []
        render._pixel_column((0, span), flip=False)
        assert len(float_columns) == 1

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([0, -5, 2**53 - 3, 2**53, -(2**53) - 1, 2**60]),
           st.sampled_from([0, 1, 7, 30, 10**12]).flatmap(
               lambda span: st.lists(st.integers(0, span), min_size=1, max_size=120)),
           st.booleans())
    def test_lookup_equals_the_formula(self, base, offsets, flip):
        """An all-int column reads each pixel from a table of its distinct values; the
        text is the float formula's, for columns that repeat their values and for
        sparse ones, also for values near or past ``_EXACT_INT`` whose span is small,
        for negative values and for a span of 0."""
        column = [base + k for k in offsets]
        lo, hi = min(column), max(column)
        origin, scale = (hi, -render.PIXELS_PER_UNIT) if flip else (lo, render.PIXELS_PER_UNIT)
        assert render._pixel_column(column, flip) == (
            _fmt(2 * render.MARGIN + render.PIXELS_PER_UNIT * (hi - lo)),
            [_fmt(render.MARGIN + scale * (v - origin)) for v in column])

    @pytest.mark.parametrize("column", [(0, 1.0) * 4, (2.5, 3, 3, 2.5, 3), (True, 0) * 3])
    def test_repeated_values_keep_the_float_path(self, float_columns, column):
        # a float or a bool sends a column to float formatting, repeated or not
        _, pixels = render._pixel_column(column, flip=True)
        hi = max(column)
        assert pixels == [_fmt(render.MARGIN - render.PIXELS_PER_UNIT * (v - hi))
                          for v in column]
        assert len(float_columns) == 1

    def test_repeated_values_from_the_bound_keep_the_float_path(self, unit_pixels,
                                                                float_columns):
        render._pixel_column((0, 2**53) * 4, flip=False)
        assert float_columns == [{"values": [0, 2**53] * 4}]


# A drawing element as (tag, points, builder keywords); the builders take the
# first point (circle) or the first two (line) positionally.
_COORD = st.one_of(st.integers(-10**6, 10**6),
                   st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))
_POINT = st.tuples(_COORD, _COORD)
_STYLE = {"role": st.sampled_from(sorted(ROLE_COLORS)),
          "css_class": st.sampled_from(["grid", "edge", "path", "side-blue"])}
_WIDTH = st.floats(0, 10, allow_nan=False)
_SPEC = st.one_of(
    st.tuples(st.just("line"), st.tuples(_POINT, _POINT),
              st.fixed_dictionaries({**_STYLE, "dashed": st.booleans(), "width": _WIDTH})),
    st.tuples(st.just("polyline"), st.lists(_POINT, min_size=1, max_size=6).map(tuple),
              st.fixed_dictionaries(_STYLE)),
    st.tuples(st.just("circle"), st.tuples(_POINT),
              st.fixed_dictionaries({**_STYLE, "radius": _WIDTH})),
)


def _build(tag, points, style):
    xs, ys = zip(*points)
    if tag == "line":
        return render.Element(xs, ys, render._line(**style))
    if tag == "polyline":
        return render._polyline(xs, ys, **style)
    return render.Element(xs, ys, render._circle(**style))


def reference_svg(specs):
    """The per-element renderer the columnar ``render._to_svg`` must match byte for byte."""
    def fmt(value):
        return f"{float(value):.2f}"

    points = [point for _, pts, _ in specs for point in pts] or [(0.0, 0.0)]
    xs, ys = [x for x, _ in points], [y for _, y in points]
    min_x, max_x, min_y, max_y = min(xs), max(xs), min(ys), max(ys)

    def px(x):
        return fmt(render.MARGIN + render.PIXELS_PER_UNIT * (x - min_x))

    def py(y):
        return fmt(render.MARGIN + render.PIXELS_PER_UNIT * (max_y - y))

    width = fmt(2 * render.MARGIN + render.PIXELS_PER_UNIT * (max_x - min_x))
    height = fmt(2 * render.MARGIN + render.PIXELS_PER_UNIT * (max_y - min_y))
    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">']
    for tag, pts, style in specs:
        color, css = ROLE_COLORS[style["role"]], style["css_class"]
        dash = ' stroke-dasharray="6,4"' if style.get("dashed") else ""
        if tag == "line":
            (x1, y1), (x2, y2) = pts
            lines.append(f'<line class="{css}" x1="{px(x1)}" y1="{py(y1)}" x2="{px(x2)}" '
                         f'y2="{py(y2)}" stroke="{color}" stroke-width="{fmt(style["width"])}"{dash}/>')
        elif tag == "polyline":
            coords = " ".join(f"{px(x)},{py(y)}" for x, y in pts)
            lines.append(f'<polyline class="{css}" points="{coords}" fill="none" '
                         f'stroke="{color}" stroke-width="2.50"/>')
        else:
            (x, y), = pts
            lines.append(f'<circle class="{css}" cx="{px(x)}" cy="{py(y)}" '
                         f'r="{fmt(style["radius"])}" fill="{color}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(st.lists(_SPEC, max_size=8))
def test_scene_matches_per_element_reference(specs):
    assert render._to_svg([_build(*spec) for spec in specs]) == reference_svg(specs)
