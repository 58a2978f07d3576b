"""The column-wise checks reject exactly what the element-by-element checks
rejected, with the same exception class and the same position or index.
The command line's batch lines, which go from input columns to output
columns without building a node, print what the library's node route prints.

Each reference below walks one character, step, node or point at a time,
as the package did before its checks were rewritten to work on whole
columns; inputs are valid words, paths, projections and triangle nodes with
small perturbations (a swapped symbol, a dropped or duplicated node, a wrong
redundant coordinate, a mixed-parity (i, j), a bad width, a moved, swapped
or dropped coordinate).  Shortcuts are checked against the full code path
the same way: ``word_to_path``, which builds without re-checking,
``words._parsed_columns``, which checks a text once on its way to columns,
``words._word_of``, which builds a word from checked columns without
``DyckWord``'s scan, and ``cli._int_rows``, which writes the rows of integer
columns without ``json.dumps``.
"""

import json
import random
from argparse import Namespace
from fractions import Fraction
from operator import gt

from hypothesis import example, given, settings, strategies as st

import oracles
from dyck4d import (DyckError, DyckWord, FlatnessResult,
                    InconsistentProjection, InvalidCharacter, InvalidProjection,
                    LatticeNode, MalformedPath, NegativePrefix, Path4D,
                    ProjectedPath, Unbalanced, enumerate_nodes, lift, parse_word,
                    path_from_lists, path_to_word, project, projected_path_from_json,
                    verify_flat, word_to_path)
from dyck4d import cli
from dyck4d.words import _parsed_columns, _path_columns, _word_columns, _word_of

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

def ref_word(text):
    for position, char in enumerate(text):
        if char not in "()":
            raise InvalidCharacter(position, char)
    balance = 0
    for consumed, char in enumerate(text, start=1):
        balance += 1 if char == "(" else -1
        if balance < 0:
            raise NegativePrefix(consumed)
    if balance:
        raise Unbalanced(balance)
    return text


def ref_parse(text):
    chars = []
    for position, char in enumerate(text):
        if char in "()":
            chars.append(char)
        elif char not in WHITESPACE:
            raise InvalidCharacter(position, char)
    return ref_word("".join(chars))


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
        if len(row) != 4 or not all(type(v) is int for v in row):
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


def ref_projected_json(names, points):
    for point in points:
        if (not isinstance(point, list) or len(point) != len(names)
                or not all(type(v) is int for v in point)):
            raise InvalidProjection()
    return tuple(map(tuple, points))


def ref_json_axes(axes):
    """The letters of a JSON ``axes`` value: one-letter strings in canonical order."""
    if (type(axes) is not list or not all(type(a) is str and len(a) == 1 for a in axes)
            or "".join(axes) not in AXIS_SETS):
        raise InvalidProjection()
    return "".join(axes)


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
def words(draw, min_n=0, max_n=30):
    n = draw(st.integers(min_n, max_n))
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
    assert outcome(parse_word, text) == outcome(ref_parse, text)


@settings(max_examples=300, deadline=None)
@given(texts())
def test_dyck_word(text):
    for candidate in (text, "".join(c for c in text if c in "()")):
        assert outcome(DyckWord, candidate) == outcome(ref_word, candidate)
        if outcome(ref_word, candidate)[0] == "ok":
            assert str(DyckWord(candidate)) == candidate


@settings(max_examples=300, deadline=None)
@given(words())
def test_word_to_path_builds_what_path4d_accepts(text):
    path = word_to_path(DyckWord(text))
    assert Path4D(tuple(path)) == path
    assert all(type(node) is LatticeNode for node in path)
    assert path == ref_path(oracles.visited_nodes(text))


@st.composite
def raw_texts(draw):
    """A word's text with symbols swapped, dropped, doubled or inserted, among
    them whitespace and foreign or non-ASCII characters."""
    return "".join(perturb(draw, draw(words(max_n=60)), st.sampled_from("()()x[（） \t\n\v")))


@settings(max_examples=300, deadline=None)
@given(raw_texts())
@example("")
@example("(" * 300 + ")" * 299)
@example(" ( ) ")
@example("(）")
def test_parsed_columns(text):
    """``_parsed_columns`` checks a text once and gives the columns of its parsed
    word, or the error of parsing it: the same class and position or excess.
    Both share the one balance rule, so the columns or the error are also those
    of the character-by-character reference."""
    got = outcome(_parsed_columns, text)
    assert got == outcome(lambda: _word_columns(parse_word(text)))
    expected = outcome(ref_parse, text)
    if expected[0] == "ok":
        expected = "ok", tuple(zip(*oracles.visited_nodes(expected[1])))
    assert got == expected


@st.composite
def checked_l_columns(draw):
    """The l column of the path of a prefix of a word, which the path check
    accepts; most prefixes end above j = 0."""
    text = draw(words(max_n=60))
    prefix = text[:draw(st.integers(0, len(text)))]
    return _path_columns(tuple(zip(*oracles.visited_nodes(prefix))))[2]


@settings(max_examples=300, deadline=None)
@given(checked_l_columns())
@example((0,))
@example((0, 1))
@example(tuple(range(301)))
def test_word_of(l):
    """``_word_of`` skips ``DyckWord``'s scan and keeps only its end-balance check:
    it gives the word, or the error, of scanning the text that l spells."""
    got = outcome(_word_of, l)
    assert got == outcome(lambda: DyckWord("".join(map(")(".__getitem__, map(gt, l[1:], l)))))
    assert got[0] != "ok" or type(got[1]) is DyckWord


@st.composite
def int_rows(draw):
    """(width, rows): up to 8 rows of ``width`` ints, small, negative or above 2**64;
    ``_int_rows`` gets their columns."""
    width = draw(st.sampled_from((2, 3, 4)))
    values = st.one_of(st.integers(-3, 3), st.integers(-2**80, 2**80),
                       st.sampled_from((2**64, 2**64 + 1, -2**64 - 1)))
    row = st.lists(values, min_size=width, max_size=width).map(tuple)
    return width, tuple(draw(st.lists(row, max_size=8)))


@settings(max_examples=300, deadline=None)
@given(int_rows())
@example((2, ()))
@example((3, ()))
@example((4, ()))
@example((4, ((-1, 2**64 + 1, -2**64 - 1, 0),)))
def test_int_rows(case):
    width, rows = case
    columns = tuple(zip(*rows)) or ((),) * width
    assert cli._int_rows(columns) == json.dumps(rows, separators=(",", ":"))


@st.composite
def odd_node_rows(draw):
    """node_rows, about half of them with one coordinate made None, a float, a bool or a str."""
    rows = draw(node_rows())
    if rows and draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        k = draw(st.integers(0, len(row) - 1))
        row[k] = draw(st.sampled_from((None, float(row[k]), row[k] > 0, str(row[k]))))
    return rows


def assert_int_path(path):
    """Every coordinate of ``path`` is an int, so its JSON text rebuilds it."""
    assert all(type(v) is int for node in path for v in node)
    assert path_from_lists(json.loads(json.dumps(path))) == path


@settings(max_examples=300, deadline=None)
@given(odd_node_rows(), st.sampled_from((list, tuple, LatticeNode._make)))
@example([[0, 0, 0, 0], [1.0, True, 1, 0], [2, 0, 1, 1]], list)
@example([[False, 0, 0, 0], [1, 1, 1.0, 0]], LatticeNode._make)
@example([[0, 0, 0, 0], [Fraction(1), 1, 1, 0], [2, 0, Fraction(2, 2), 1]], tuple)
def test_path4d(rows, kind):
    nodes = [kind(row) if len(row) == 4 else tuple(row) for row in rows]
    got = outcome(Path4D, nodes)
    assert got == outcome(ref_path, nodes)
    if got[0] == "ok":
        assert_int_path(got[1])


@settings(max_examples=300, deadline=None)
@given(node_rows(), st.sampled_from((None, float, bool, str)))
def test_path_from_lists(rows, odd):
    if odd is not None and rows and rows[-1]:
        rows[-1][-1] = odd(rows[-1][-1])
    assert outcome(path_from_lists, rows) == outcome(ref_rows, rows)


@st.composite
def odd_projections(draw):
    """projections, about half of them with one value made None, a float, a bool
    or a str, or one point made a string of its digits."""
    names, points = draw(projections())
    if points and draw(st.booleans()):
        point = draw(st.sampled_from(points))
        if not point or draw(st.integers(0, 4)) == 0:
            points[points.index(point)] = "".join(map(str, point))
        else:
            k = draw(st.integers(0, len(point) - 1))
            point[k] = draw(st.sampled_from((None, float(point[k]), point[k] > 0, str(point[k]))))
    return names, points


@settings(max_examples=300, deadline=None)
@given(odd_projections())
def test_projected_path_from_json(case):
    names, points = case
    got = outcome(projected_path_from_json, {"axes": list(names), "points": points},
                  field="points")
    assert got == outcome(ref_projected_json, names, points)


@st.composite
def json_axes(draw):
    """(axes value, its letters in order): an axis set's letters, maybe reordered,
    with a letter repeated, dropped or foreign, some in upper case, as a list, a
    string, a dict or lists of several letters."""
    letters = list(draw(st.sampled_from(AXIS_SETS)))
    if draw(st.booleans()):
        letters = draw(st.permutations(letters))
    if draw(st.integers(0, 3)) == 0:
        letters = perturb(draw, letters, st.sampled_from("ijlrx"))
    letters = [c.upper() if draw(st.integers(0, 5)) == 0 else c for c in letters]
    order = "".join(letters).lower()
    shape = draw(st.sampled_from(("list", "list", "list", "str", "dict", "strings", "lists")))
    if shape == "str":
        return order if draw(st.booleans()) else "".join(letters), order
    if shape == "dict":
        return dict.fromkeys(letters, 0), order
    if shape in ("strings", "lists") and letters:
        cut = draw(st.integers(0, len(letters)))
        parts = [letters[:cut], letters[cut:]]
        return [p if shape == "lists" else "".join(p) for p in parts], order
    return letters, order


@settings(max_examples=500, deadline=None)
@given(json_axes(), words())
def test_json_axes(case, text):
    axes, order = case
    nodes = oracles.visited_nodes(text)
    points = [[node["ijlr".find(a)] for a in order] for node in nodes]
    data = {"axes": axes, "points": points}
    expected = outcome(ref_json_axes, axes)
    assert outcome(projected_path_from_json, data, field="axes") == expected
    if expected[0] == "ok":
        assert lift(projected_path_from_json(data)) == tuple(nodes)


@settings(max_examples=300, deadline=None)
@given(projections(), st.sampled_from((None, float, bool)))
@example(("ij", [[0, 0], [1.0, 1.0], [2, 0]]), None)
@example(("lr", [[0, 0], [1, 0], [1, 1]]), bool)
def test_projected_path_and_lift(case, odd):
    """Also with one value of the last point made a float or a bool."""
    names, points = case
    if odd is not None and points and points[-1]:
        points[-1][-1] = odd(points[-1][-1])
    got = outcome(lift, ProjectedPath(names, points))
    assert got == outcome(ref_lift, names, points)
    if got[0] == "ok":
        assert_int_path(got[1])


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
        nodes = enumerate_nodes(n)
        assert nodes == ref_region(n)
        assert all(type(node) is LatticeNode for node in nodes)
        assert verify_flat(n) == ref_flat(nodes) == FlatnessResult(True, None)


@settings(max_examples=300, deadline=None)
@given(node_rows(), projections())
@example([], ("lr", []))
@example([[0, 0, 0, 0]], ("ijlr", [[0, 0, 0, 0]]))
def test_lift_and_path_from_lists_return_checked_paths(rows, case):
    """``path_from_lists`` and ``lift`` build their paths from the columns the
    path check accepted, without checking the nodes again: every path they
    return is one that ``Path4D`` accepts as it is and the node-by-node
    reference accepts too, and every input they reject, the reference rejects."""
    names, points = case
    for build, subject, reference in ((path_from_lists, rows, lambda: ref_rows(rows)),
                                      (lift, ProjectedPath(names, points),
                                       lambda: ref_lift(names, points))):
        got = outcome(build, subject)
        assert got[0] == outcome(reference)[0]
        if got[0] == "ok":
            path = got[1]
            assert Path4D(tuple(path)) == path
            assert all(type(node) is LatticeNode for node in path)
            assert path == ref_path(tuple(path))


def line_of(route, text):
    """The output line of ``route`` on ``text``, or the error line of the
    :class:`DyckError` it raises, as the batch commands print them."""
    try:
        return route(text)
    except DyckError as exc:
        return cli._error_line(exc)


def node_json(nodes):
    return json.dumps(nodes, separators=(",", ":"))


def lifted(text):
    return lift(projected_path_from_json(json.loads(text)))


@settings(max_examples=200, deadline=None)
@given(st.one_of(words(max_n=300), texts()), odd_node_rows(), odd_projections(),
       st.sampled_from(AXIS_SETS))
def test_cli_lines_agree_with_the_library(text, rows, case, axes):
    """Each column-wise batch line function gives the line, or the error line,
    of the library's route through nodes: ``word_to_path``, ``project``,
    ``lift``, ``path_from_lists`` and ``path_to_word``."""
    names, points = case
    paths, images = [node_json(rows)], [node_json({"axes": list(names), "points": points})]
    if oracles.scan(text)[0] == "ok":  # the word's own path and its image as well
        nodes = oracles.visited_nodes(text)
        paths.append(node_json(nodes))
        columns = list(map("ijlr".index, axes))
        images.append(node_json({"axes": list(axes),
                                 "points": [[node[c] for c in columns] for node in nodes]}))
    routes = [
        (cli._convert_line, Namespace(to="path"), [text],
         lambda line: node_json(word_to_path(parse_word(line)))),
        (cli._project_line, Namespace(axes=axes), [text],
         lambda line: node_json({"axes": list(axes),
                                 "points": project(word_to_path(parse_word(line)), axes).points})),
        (cli._convert_line, Namespace(to="word"), paths,
         lambda line: str(path_to_word(path_from_lists(json.loads(line))))),
        (cli._lift_line, Namespace(to="path"), images,
         lambda line: node_json(lifted(line))),
        (cli._lift_line, Namespace(to="word"), images,
         lambda line: str(path_to_word(lifted(line)))),
    ]
    for line_function, args, lines, library in routes:
        for line in lines:
            assert line_of(lambda line: line_function(args, line), line) == \
                line_of(library, line)
