"""Independent inputs and expected answers for the benchmark.

Nothing here imports ``dyck4d``: words come from the cyclic lemma, counts
and ranks from ballot numbers, paths and projections from the definitions
in the README.  The benchmark compares every response of the program with
what this module computes.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import xml.etree.ElementTree as ET

AXES = "ijlr"
#: The 11 axis sets in canonical order: 6 pairs, 4 triples, the full set.
AXIS_SETS = ("ij", "il", "ir", "jl", "jr", "lr", "ijl", "ijr", "ilr", "jlr", "ijlr")
PAIRS = AXIS_SETS[:6]
#: Box extent per axis, in units of n.
EXTENT = {"i": 2, "j": 1, "l": 1, "r": 1}
SVG_NS = "{http://www.w3.org/2000/svg}"
COMPACT = (",", ":")


def random_word(rng: random.Random, n: int) -> str:
    """Uniform balanced word of half-length n by the cyclic lemma.

    Shuffle n opens and n + 1 closes; exactly one rotation keeps every
    proper prefix non-negative: the one starting after the first minimum
    of the prefix sums.  Dropping its final close leaves a balanced word.
    """
    seq = [1] * n + [-1] * (n + 1)
    rng.shuffle(seq)
    total = low = 0
    cut = 0
    for index, step in enumerate(seq, start=1):
        total += step
        if total < low:
            low, cut = total, index
    rotated = seq[cut:] + seq[:cut]
    return "".join("(" if step > 0 else ")" for step in rotated[:-1])


def ballot(a: int, b: int) -> int:
    """Lattice paths from (0, 0) to (a, b) that never have b > a: C(a+b, b) - C(a+b, b-1)."""
    if b < 0 or b > a:
        return 0
    return math.comb(a + b, b) - (math.comb(a + b, b - 1) if b else 0)


def count_through(l: int, r: int, n: int) -> int:
    """Words of half-length n whose path visits (l, r): prefixes times completions."""
    return ballot(l, r) * ballot(n - r, n - l)


def rank_of(word: str) -> int:
    """Lexicographic rank ('(' < ')') as a sum of ballot numbers.

    Each ')' read at (l, r) with l < n skips every word that opens there,
    i.e. the completions from (l + 1, r).  The completion count from
    (l, r) is C(a+b, b)·(a-b+1)/(a+1) with a = n - r, b = n - l; the
    binomial is carried along the walk by exact ratio updates.
    """
    n = len(word) // 2
    binom = math.comb(2 * n, n)  # C(a+b, b) at (l, r) = (0, 0)
    a = b = n
    k = 0
    for char in word:
        if char == ")":
            if b > 0:  # opens still available: completions from (l+1, r)
                below = binom * b // (a + b)  # C(a+b-1, b-1)
                k += below * (a - b + 2) // (a + 1)
            binom = binom * a // (a + b)
            a -= 1
        else:
            binom = binom * b // (a + b)
            b -= 1
    return k


def is_balanced(word: str, n: int) -> bool:
    if len(word) != 2 * n or word.count("(") != n:
        return False
    depth = 0
    for char in word:
        depth += 1 if char == "(" else -1
        if depth < 0:
            return False
    return True


def sampled_ranks(n: int, seed: int, count: int) -> list[int]:
    """Ranks drawn by the documented sampler: Mersenne Twister, rejection over bit blocks."""
    rng = random.Random(seed)
    total = math.comb(2 * n, n) // (n + 1)
    bits = (total - 1).bit_length()
    ranks = []
    for _ in range(count):
        k = 0
        if total > 1:
            while True:
                k = rng.getrandbits(bits)
                if k < total:
                    break
        ranks.append(k)
    return ranks


def path_of(word: str) -> list[list[int]]:
    """The canonical (i, j, l, r) path of a word, from the origin."""
    nodes = [[0, 0, 0, 0]]
    l = r = 0
    for char in word:
        if char == "(":
            l += 1
        else:
            r += 1
        nodes.append([l + r, l - r, l, r])
    return nodes


def project(path: list[list[int]], axes: str) -> list[list[int]]:
    columns = [AXES.index(axis) for axis in axes]
    return [[node[c] for c in columns] for node in path]


def path_json(path) -> str:
    return json.dumps(path, separators=COMPACT)


def projected_json(path, axes: str) -> str:
    return json.dumps({"axes": list(axes), "points": project(path, axes)}, separators=COMPACT)


def geometry_expected(n: int) -> dict:
    """The geometry report of README: sides 6n²/3n²/3n², flat, right isosceles, 16/32/8/2."""
    origin, end, apex = [0, 0, 0, 0], [2 * n, 0, n, n], [n, n, n, 0]

    def side(start, stop, squared, node):
        return {"start": start, "end": stop, "squared_length": squared,
                "length": math.sqrt(squared), "nodes": [node(k) for k in range(n + 1)]}

    return {
        "n": n,
        "vertices": {"origin": origin, "end": end, "apex": apex},
        "sides": {
            "blue": side(origin, end, 6 * n * n, lambda k: [2 * k, 0, k, k]),
            "red": side(origin, apex, 3 * n * n, lambda k: [k, k, k, 0]),
            "yellow": side(apex, end, 3 * n * n, lambda k: [n + k, n - k, n, k]),
        },
        "flat": True,
        "checks": {"right_angle": True, "isosceles": True, "pythagoras": True,
                   "direction_ab": [1, 1, 1, 0], "direction_bc": [1, -1, 0, 1], "dot": 0},
        "tesseract": {"vertices": 16, "edges": 32, "cells": 8, "cube_cells": 2},
    }


PALETTE = {"#E8C547", "#C0392B", "#2E6DA4", "#27AE60", "#111111", "#888888"}
TOLERANCE = 0.011  # coordinates are printed with two decimals


def svg_elements(text: str) -> dict[tuple[str, str], list]:
    """Parse an SVG document; elements grouped by (tag, class).

    Raises on malformed XML, a colour outside the README palette or a
    coordinate that is not a number.
    """
    root = ET.fromstring(text.encode("utf-8"))
    if root.tag != SVG_NS + "svg":
        raise ValueError(f"root element is {root.tag}")
    groups: dict[tuple[str, str], list] = {}
    for element in root:
        tag = element.tag.removeprefix(SVG_NS)
        for name, value in element.attrib.items():
            if name in ("stroke", "fill") and value != "none" and value not in PALETTE:
                raise ValueError(f"colour {value}")
            if name in ("x1", "y1", "x2", "y2", "cx", "cy", "r", "stroke-width"):
                float(value)
        groups.setdefault((tag, element.get("class", "")), []).append(element)
    return groups


def _canvas(points):
    """Source-to-pixel map of README: 40 px per unit, 20 px margins, y upward."""
    min_x = min(x for x, _ in points)
    max_y = max(y for _, y in points)
    return lambda p: (20 + 40 * (p[0] - min_x), 20 + 40 * (max_y - p[1]))


def _near(a, b) -> bool:
    return abs(a[0] - b[0]) <= TOLERANCE and abs(a[1] - b[1]) <= TOLERANCE


def _polyline(element):
    return [tuple(float(v) for v in pair.split(",")) for pair in element.get("points").split()]


def check_grid_svg(text: str, axes: str, n: int, word: str) -> str | None:
    """Isolines at every integer of both axes, the l-r diagonal, the exact path polyline."""
    groups = svg_elements(text)
    width, height = EXTENT[axes[0]] * n, EXTENT[axes[1]] * n
    to_px = _canvas([(0, 0), (width, height)])
    expected = {(to_px((x, 0)), to_px((x, height))) for x in range(width + 1)}
    expected |= {(to_px((0, y)), to_px((width, y))) for y in range(height + 1)}
    lines = groups.get(("line", "grid"), [])
    found = {((float(e.get("x1")), float(e.get("y1"))), (float(e.get("x2")), float(e.get("y2"))))
             for e in lines}
    if len(lines) != width + height + 2 or found != expected:
        return "grid lines"
    if len(groups.get(("line", "diagonal"), ())) != (1 if axes == "lr" else 0):
        return "diagonal count"
    paths = groups.get(("polyline", "path"), [])
    points = [to_px(p) for p in project(path_of(word), axes)]
    if len(paths) != 1 or paths[0].get("points") != " ".join(f"{x:.2f},{y:.2f}" for x, y in points):
        return "path polyline"
    return None


def _oblique(node):
    i, j, l, r = node
    return (l + 0.45 * j + 0.22 * i, r + 0.35 * j + 0.62 * i)


def _nested(node, n):
    """README nested-cube view: scale j, l, r about the cube centre by 1 - i/(4n)."""
    i, j, l, r = node
    scale = 1.0 - (i / (2 * n)) * 0.5
    qj, ql, qr = (n / 2 + scale * (v - n / 2) for v in (j, l, r))
    return (ql + 0.45 * qj, qr + 0.35 * qj)


def check_wireframe_svg(text: str, n: int, cell: tuple[int, int] | None, nested: bool,
                        triangle: bool) -> str | None:
    """Every corner, edge, anchor and side point where README's view puts it.

    ``cell`` pins one axis (index, value) for a single-cell view; the box
    view has 16 corners and 32 edges, a cell 8 and 12.
    """
    groups = svg_elements(text)
    extents = (2 * n, n, n, n)
    corners = [c for c in itertools.product(*((0, e) for e in extents))
               if cell is None or c[cell[0]] == cell[1]]
    view = (lambda node: _nested(node, n)) if nested else _oblique
    anchors = [(0, 0, 0, 0), (n, n, n, 0), (2 * n, 0, n, n)] if nested else []
    sides = {
        "blue": [(2 * k, 0, k, k) for k in range(n + 1)],
        "red": [(k, k, k, 0) for k in range(n + 1)],
        "yellow": [(n + k, n - k, n, k) for k in range(n + 1)],
    } if triangle else {}
    scene = [view(c) for c in corners + anchors] + [view(p) for s in sides.values() for p in s]
    to_px = _canvas(scene)
    where = [to_px(view(c)) for c in corners]

    def corner_at(point):
        hits = [k for k, p in enumerate(where) if _near(p, point)]
        return hits[0] if len(hits) == 1 else None

    found = [corner_at((float(e.get("cx")), float(e.get("cy"))))
             for e in groups.get(("circle", "vertex"), [])]
    if None in found or sorted(found) != list(range(len(corners))):
        return "vertex circles"
    lines = groups.get(("line", "edge"), [])
    edges = set()
    for e in lines:
        a = corner_at((float(e.get("x1")), float(e.get("y1"))))
        b = corner_at((float(e.get("x2")), float(e.get("y2"))))
        if a is None or b is None or sum(x != y for x, y in zip(corners[a], corners[b])) != 1:
            return "edge endpoints"
        edges.add(frozenset((a, b)))
    if len(edges) != (32 if cell is None else 12) or len(lines) != len(edges):
        return "edge count"
    marks = [(float(e.get("cx")), float(e.get("cy"))) for e in groups.get(("circle", "anchor"), [])]
    if len(marks) != len(anchors) or not all(
            _near(m, to_px(view(a))) for m, a in zip(marks, anchors)):
        return "anchors"
    for name in ("blue", "red", "yellow"):
        lines = groups.get(("polyline", f"side-{name}"), [])
        if len(lines) != (name in sides):
            return f"side-{name} count"
        if lines:
            points = _polyline(lines[0])
            want = [to_px(view(p)) for p in sides[name]]
            if len(points) != len(want) or not all(map(_near, points, want)):
                return f"side-{name} points"
    return None


def check_edge_list(text: str, n: int, cell: tuple[int, int] | None) -> str | None:
    """Box corners (or one cell's), each edge joining corners that differ in one axis."""
    extents = (2 * n, n, n, n)
    vertices, edges = [], []
    for line in text.splitlines():
        kind, *fields = line.split()
        values = tuple(int(v) for v in fields)
        if kind == "v" and len(values) == 4:
            vertices.append(values)
        elif kind == "e" and len(values) == 2:
            edges.append(values)
        else:
            return f"bad line {line!r}"
    want_v, want_e = (16, 32) if cell is None else (8, 12)
    if len(vertices) != want_v or len(set(vertices)) != want_v or len(edges) != want_e:
        return "vertex or edge count"
    for vertex in vertices:
        if any(v not in (0, e) for v, e in zip(vertex, extents)):
            return f"vertex {vertex} is not a box corner"
        if cell is not None and vertex[cell[0]] != cell[1]:
            return f"vertex {vertex} is outside the cell"
    seen = set()
    for a, b in edges:
        if not (0 <= a < b < want_v) or (a, b) in seen:
            return f"edge {a} {b}"
        seen.add((a, b))
        if sum(x != y for x, y in zip(vertices[a], vertices[b])) != 1:
            return f"edge {a} {b} is not axis-parallel"
    return None
