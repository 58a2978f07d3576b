"""The column-wise checks reject exactly what the element-by-element checks
rejected, with the same exception class and the same position or index.

Each reference below walks one character, step, node or point at a time,
as the package did before its checks were rewritten to work on whole
columns; inputs are valid words, paths, projections and triangle nodes with
small perturbations (a swapped symbol, a dropped or duplicated node, a wrong
redundant coordinate, a mixed-parity (i, j), a bad width, a moved, swapped
or dropped coordinate).
"""

import random

from hypothesis import given, settings, strategies as st

import oracles
from dyck4d import (INFINITE, AxisSet, DyckError, DyckWord, FlatnessResult,
                    InconsistentProjection, InvalidCharacter, LatticeNode,
                    LatticeRegion, MalformedPath, NegativePrefix, Path4D,
                    ProjectedPath, Step, Unbalanced, enumerate_nodes, lift,
                    parse_word, path_from_lists, verify_flat)

AXIS_SETS = ("ij", "il", "ir", "jl", "jr", "lr", "ijl", "ijr", "ilr", "jlr", "ijlr")
WHITESPACE = " \t\n\r\f\v"
UP, DOWN = (1, 1, 1, 0), (1, -1, 0, 1)


def outcome(function, *args, field=None):
    """("ok", the result or its ``field``) or (exception class, position/index/excess or None)."""
    try:
        result = function(*args)
    except DyckError as exc:
        return type(exc), exc.detail
    except (TypeError, ValueError) as exc:
        return type(exc), None
    return "ok", getattr(result, field) if field else result


# -- references, one element at a time ---------------------------------------

def ref_balance(steps):
    balance = 0
    for consumed, step in enumerate(steps, start=1):
        balance += 1 if step is Step.OPEN else -1
        if balance < 0:
            raise NegativePrefix(consumed)
    if balance:
        raise Unbalanced(balance)
    return tuple(steps)


def ref_parse(text):
    steps = []
    for position, char in enumerate(text):
        if char in "()":
            steps.append(Step(char))
        elif char not in WHITESPACE:
            raise InvalidCharacter(position, char)
    return ref_balance(steps)


def ref_path(nodes):
    nodes = tuple(LatticeNode(*node) for node in nodes)
    if not nodes or nodes[0] != (0, 0, 0, 0):
        raise MalformedPath(0)
    for index in range(1, len(nodes)):
        delta = tuple(b - a for a, b in zip(nodes[index - 1], nodes[index]))
        if delta not in (UP, DOWN) or nodes[index].j < 0:
            raise MalformedPath(index)
    return nodes


def ref_rows(rows):
    for index, row in enumerate(rows):
        if len(row) != 4 or not all(isinstance(v, int) for v in row):
            raise MalformedPath(index)
    return ref_path(rows)


def ref_complete(names, point):
    """The node of a projected point, or the reason it is inconsistent."""
    v = dict(zip(names, point))
    x, y = names[:2]
    if (x, y) == ("i", "j"):
        if (v["i"] + v["j"]) % 2:
            return None
        l = (v["i"] + v["j"]) // 2
        r = v["i"] - l
    elif x == "l" or y == "l":
        l = v["l"]
        r = v["r"] if "r" == y else (v["i"] - l if x == "i" else l - v["j"])
    else:
        r = v["r"]
        l = v["i"] - r if x == "i" else v["j"] + r
    node = (l + r, l - r, l, r)
    if any(node["ijlr".index(name)] != v[name] for name in names[2:]):
        return None
    return node


def ref_projected(names, points):
    if any(len(point) != len(names) for point in points):
        raise ValueError("bad width")
    return tuple(map(tuple, points))


def ref_lift(names, points):
    ref_projected(names, points)
    nodes = []
    for index, point in enumerate(points):
        node = ref_complete(names, point)
        if node is None:
            raise InconsistentProjection(index)
        nodes.append(node)
    return ref_path(nodes)


def ref_flat(nodes):
    for node in nodes:
        i, j, l, r = node
        if i != l + r or j != l - r:
            return FlatnessResult(False, LatticeNode(i, j, l, r))
    return FlatnessResult(True, None)


def ref_region(n):
    top = 2 * n
    return [LatticeNode(i, j, (i + j) // 2, (i - j) // 2)
            for i in range(top + 1) for j in range(i % 2, min(i, top - i) + 1, 2)]


# -- perturbed inputs ----------------------------------------------------------

@st.composite
def words(draw, min_n=0):
    n = draw(st.integers(min_n, 30))
    return oracles.random_word_text(random.Random(draw(st.integers(0, 2**32))), n)


def perturb(draw, items, extra):
    """Up to three swaps, drops, duplications or insertions of ``extra`` items."""
    items = list(items)
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(("swap", "drop", "dup", "insert")))
        k = draw(st.integers(0, len(items)))
        if op == "insert":
            items.insert(k, draw(extra))
        elif k < len(items):
            if op == "swap" and k + 1 < len(items):
                items[k], items[k + 1] = items[k + 1], items[k]
            elif op == "drop":
                del items[k]
            elif op == "dup":
                items.insert(k, items[k])
    return items


@st.composite
def texts(draw):
    return "".join(perturb(draw, draw(words()), st.sampled_from("()()x[ \t\n ")))


#: Moves of one node that keep some of its ties: (0, -1, 0, 1) keeps j = l - r,
#: (1, 0, 1, 0) and (1, 0, 0, 1) keep one of r = i - l and i = l + r, (0, 2, 1, -1)
#: and the two steps keep all of them; then single coordinates.
NODE_MOVES = [(0, -1, 0, 1), (1, 0, 1, 0), (1, 0, 0, 1), (0, 2, 1, -1), (1, 1, 1, 0),
              (1, -1, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0)]


def move(draw, row, moves):
    """A copy of ``row`` moved by d times one of ``moves``, or with one element
    dropped or added."""
    row = list(row)
    op = draw(st.sampled_from(("move", "move", "move", "shorten", "lengthen")))
    k = draw(st.integers(0, len(row) - 1))
    if op == "move":
        d = draw(st.sampled_from((-2, -1, 1, 2)))
        row = [x + d * dx for x, dx in zip(row, draw(st.sampled_from(moves)))]
    elif op == "shorten":
        del row[k]
    else:
        row.insert(k, draw(st.integers(-2, 2)))
    return row


@st.composite
def node_rows(draw):
    """The path of a perturbed text (its j may go negative) perturbed as a sequence,
    or the path of a word with one node moved."""
    if draw(st.booleans()):
        text = "".join(c for c in draw(texts()) if c in "()")
        nodes = [list(node) for node in oracles.visited_nodes(text)]
        return perturb(draw, nodes, st.lists(st.integers(-3, 3), min_size=4, max_size=4))
    nodes = [list(node) for node in oracles.visited_nodes(draw(words(min_n=1)))]
    k = draw(st.integers(1, len(nodes) - 1))
    nodes[k] = move(draw, nodes[k], NODE_MOVES)
    return nodes


@st.composite
def projections(draw):
    """A path's image in one grid, perturbed as a sequence or with one point moved."""
    names = draw(st.sampled_from(AXIS_SETS))
    points = [[node["ijlr".index(a)] for a in names]
              for node in oracles.visited_nodes(draw(words(min_n=1)))]
    if draw(st.booleans()):
        return names, perturb(draw, points, st.lists(st.integers(-3, 3), min_size=len(names),
                                                     max_size=len(names)))
    k = draw(st.integers(1, len(points) - 1))
    units = [tuple(int(a == b) for b in range(len(names))) for a in range(len(names))]
    points[k] = move(draw, points[k], units)
    return names, points


@st.composite
def flat_subjects(draw):
    """Nodes of a word's path or of a triangle, a few of them with one coordinate
    moved, two coordinates swapped, one dropped or one made a non-integer."""
    if draw(st.booleans()):
        nodes = [list(node) for node in oracles.visited_nodes(draw(words()))]
    else:
        nodes = [list(node) for node in ref_region(draw(st.integers(0, 8)))]
    for k in draw(st.sets(st.integers(0, len(nodes) - 1), max_size=3)):
        row = nodes[k]
        a, b = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        op = draw(st.sampled_from(("move", "move", "swap", "drop", "odd")))
        if op == "move":
            row[a] += draw(st.sampled_from((-2, -1, 1, 2)))
        elif op == "swap":
            row[a], row[b] = row[b], row[a]
        elif op == "drop":
            del row[a]
        else:
            row[a] = draw(st.sampled_from((None, float(row[a]), str(row[a]), row[a] > 0)))
    return nodes


# -- the package agrees with the references -----------------------------------

@settings(max_examples=300, deadline=None)
@given(texts())
def test_parse_word(text):
    assert outcome(parse_word, text, field="steps") == outcome(ref_parse, text)


@settings(max_examples=300, deadline=None)
@given(texts())
def test_dyck_word(text):
    steps = tuple(Step(c) for c in text if c in "()")
    assert outcome(DyckWord, steps, field="steps") == outcome(ref_balance, steps)
    if outcome(ref_balance, steps)[0] == "ok":
        assert str(DyckWord(steps)) == "".join(c for c in text if c in "()")


@st.composite
def odd_node_rows(draw):
    """node_rows, about half of them with one coordinate made None, a float, a bool or a str."""
    rows = draw(node_rows())
    if rows and draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        k = draw(st.integers(0, len(row) - 1))
        row[k] = draw(st.sampled_from((None, float(row[k]), row[k] > 0, str(row[k]))))
    return rows


@settings(max_examples=300, deadline=None)
@given(odd_node_rows(), st.sampled_from((list, tuple, LatticeNode._make)))
def test_path4d(rows, kind):
    nodes = [kind(row) if len(row) == 4 else tuple(row) for row in rows]
    assert outcome(Path4D, nodes, field="nodes") == outcome(ref_path, nodes)


@settings(max_examples=300, deadline=None)
@given(node_rows(), st.sampled_from((None, float, bool, str)))
def test_path_from_lists(rows, odd):
    if odd is not None and rows and rows[-1]:
        rows[-1][-1] = odd(rows[-1][-1])
    assert outcome(path_from_lists, rows, field="nodes") == outcome(ref_rows, rows)


@settings(max_examples=300, deadline=None)
@given(projections())
def test_projected_path_and_lift(case):
    names, points = case
    got = outcome(ProjectedPath, AxisSet.of(names), points, field="points")
    assert got == outcome(ref_projected, names, points)
    if got[0] == "ok":
        proj = ProjectedPath(AxisSet.of(names), points)
        assert outcome(lift, proj, field="nodes") == outcome(ref_lift, names, points)


@settings(max_examples=300, deadline=None)
@given(flat_subjects(), st.sampled_from((list, tuple, iter, "rows")))
def test_verify_flat(nodes, container):
    subject = [tuple(row) for row in nodes] if container == "rows" else container(nodes)
    got = outcome(verify_flat, subject)
    assert got == outcome(ref_flat, nodes)
    if got[0] == "ok" and got[1].witness is not None:
        assert type(got[1].witness) is LatticeNode


def test_enumerate_nodes_and_region_flatness():
    for n in range(61):
        nodes = enumerate_nodes(LatticeRegion(n))
        assert nodes == ref_region(n)
        assert all(type(node) is LatticeNode for node in nodes)
        assert verify_flat(LatticeRegion(n)) == ref_flat(nodes) == FlatnessResult(True, None)
    assert outcome(verify_flat, INFINITE) == outcome(enumerate_nodes, INFINITE)
