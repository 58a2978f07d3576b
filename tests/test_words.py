import copy
import json
import pickle
import random

import pytest
from hypothesis import given, strategies as st

import oracles
from dyck4d import (DyckWord, InvalidCharacter, LatticeNode, MalformedPath,
                    NegativePrefix, ORIGIN, Path4D, Unbalanced,
                    parse_word, path_from_lists, path_to_word, word_to_path)


def as_lists(path):
    """The JSON form of a path, an array of [i, j, l, r] arrays, as a reference."""
    return [list(node) for node in path]


class TestParse:
    def test_smallest_word(self):
        word = parse_word("()")
        assert word.n == 1
        assert word == "()"

    def test_empty_word(self):
        word = parse_word("")
        assert word.n == 0
        assert word == ""

    def test_negative_prefix_position(self):
        with pytest.raises(NegativePrefix) as exc:
            parse_word(")(")
        assert exc.value.position == 1

    def test_negative_prefix_later(self):
        with pytest.raises(NegativePrefix) as exc:
            parse_word("()())(")
        assert exc.value.position == 5

    def test_unbalanced_excess(self):
        with pytest.raises(Unbalanced) as exc:
            parse_word("((")
        assert exc.value.final_excess == 2

    def test_nested_pairs(self):
        # oracle: scan("(()())") == ("ok", 3)
        assert parse_word("(()())").n == 3

    def test_whitespace_skipped(self):
        assert parse_word(" (\t(\n) ) ").n == 2

    def test_invalid_character_raw_position(self):
        with pytest.raises(InvalidCharacter) as exc:
            parse_word("(a)")
        assert exc.value.position == 1
        assert exc.value.char == "a"

    def test_unicode_brackets_rejected(self):
        with pytest.raises(InvalidCharacter) as exc:
            parse_word("（）")  # fullwidth parens are not steps
        assert exc.value.position == 0

    def test_direct_construction_validates(self):
        with pytest.raises(NegativePrefix):
            DyckWord(")(")
        with pytest.raises(Unbalanced):
            DyckWord("(")

    @pytest.mark.parametrize("text, position, char", [("(x)", 1, "x"), (" ()", 0, " ")])
    def test_direct_construction_takes_only_parentheses(self, text, position, char):
        # Whitespace is parse_word's to skip; a DyckWord is its text.
        with pytest.raises(InvalidCharacter) as exc:
            DyckWord(text)
        assert (exc.value.position, exc.value.char) == (position, char)

    @pytest.mark.parametrize("text", [("(", ")"), b"()", None, 5])
    def test_direct_construction_takes_only_str(self, text):
        with pytest.raises(TypeError):
            DyckWord(text)

    @pytest.mark.parametrize("n", range(9))
    def test_accepts_exactly_the_oracle_language(self, n):
        from itertools import product
        for chars in product("()", repeat=2 * n):
            text = "".join(chars)
            verdict = oracles.scan(text)
            if verdict[0] == "ok":
                assert parse_word(text).n == verdict[1]
            elif verdict[0] == "negative":
                with pytest.raises(NegativePrefix) as exc:
                    parse_word(text)
                assert exc.value.position == verdict[1]
            else:
                with pytest.raises(Unbalanced) as exc:
                    parse_word(text)
                assert exc.value.final_excess == verdict[1]


class TestRender:
    def test_examples(self):
        assert str(parse_word("()")) == "()"
        assert str(parse_word("")) == ""

    def test_round_trip_exhaustive(self):
        for n in range(9):
            for text in oracles.all_balanced(n):
                assert str(parse_word(text)) == text

    def test_str_matches_render(self):
        word = parse_word("(())")
        assert str(word) == "(())"


class TestWordToPath:
    def test_smallest(self):
        path = word_to_path(parse_word("()"))
        assert [tuple(node) for node in path] == [(0, 0, 0, 0), (1, 1, 1, 0), (2, 0, 1, 1)]

    def test_endpoint_n6(self):
        for text in oracles.all_balanced(6):
            path = word_to_path(parse_word(text))
            assert path[-1] == (12, 0, 6, 6)

    def test_open_run_prefix(self):
        path = word_to_path(parse_word("((()))"))
        for k in range(4):
            assert path[k] == (k, k, k, 0)

    def test_node_count_and_tie(self):
        for n in range(7):
            for text in oracles.all_balanced(n):
                path = word_to_path(parse_word(text))
                assert len(path) == 2 * n + 1
                for node in path:
                    assert node.i == node.l + node.r
                    assert node.j == node.l - node.r

    def test_nodes_equal_step_combination(self):
        # q = l*(1,1,1,0) + r*(1,-1,0,1), componentwise and exact
        for text in oracles.all_balanced(5):
            for node in word_to_path(parse_word(text)):
                assert tuple(node) == (node.l + node.r, node.l - node.r, node.l, node.r)

    def test_takes_a_dyck_word(self):
        # as rank does: a plain str would give a path that breaks Path4D's own check
        for word in [")(", "ab", "()", b"()", None]:
            with pytest.raises(TypeError, match=f"^word must be a DyckWord, not {type(word).__name__}$"):
                word_to_path(word)


class TestPathToWord:
    def test_smallest(self):
        path = Path4D(((0, 0, 0, 0), (1, 1, 1, 0), (2, 0, 1, 1)))
        assert str(path_to_word(path)) == "()"

    def test_origin_only(self):
        assert path_to_word(Path4D(((0, 0, 0, 0),))).n == 0

    def test_round_trip_n6(self):
        for text in oracles.all_balanced(6):
            word = parse_word(text)
            assert path_to_word(word_to_path(word)) == word

    def test_wrong_origin(self):
        with pytest.raises(MalformedPath) as exc:
            Path4D(((1, 1, 1, 0),))
        assert exc.value.index == 0

    def test_empty_node_list(self):
        with pytest.raises(MalformedPath) as exc:
            Path4D(())
        assert exc.value.index == 0

    def test_bad_delta(self):
        with pytest.raises(MalformedPath) as exc:
            Path4D(((0, 0, 0, 0), (2, 0, 1, 1)))
        assert exc.value.index == 1

    def test_negative_unbalance(self):
        with pytest.raises(MalformedPath) as exc:
            Path4D(((0, 0, 0, 0), (1, -1, 0, 1)))
        assert exc.value.index == 1

    def test_wrong_width_names_its_node(self):
        with pytest.raises(TypeError) as exc:
            Path4D(((0, 0, 0, 0), (1, 1, 1, 0), (2, 0, 1)))
        assert str(exc.value) == "node 2: 3 coordinates, not 4"

    def test_accepts_raw_node_sequences(self):
        assert path_to_word(Path4D([(0, 0, 0, 0), (1, 1, 1, 0), (2, 0, 1, 1)])).n == 1


class TestJsonForm:
    def test_as_lists(self):
        # a path is a tuple of tuples, so json.dumps writes it in its JSON form
        path = word_to_path(parse_word("()"))
        assert as_lists(path) == [[0, 0, 0, 0], [1, 1, 1, 0], [2, 0, 1, 1]]
        assert json.dumps(path) == json.dumps(as_lists(path))

    def test_from_lists_round_trip(self):
        for text in oracles.all_balanced(4):
            path = word_to_path(parse_word(text))
            assert path_from_lists(as_lists(path)) == path

    def test_from_lists_rejects_bad_rows(self):
        with pytest.raises(MalformedPath) as exc:
            path_from_lists([[0, 0, 0, 0], [1, 1, 1]])
        assert exc.value.index == 1
        with pytest.raises(MalformedPath):
            path_from_lists([[0, 0, 0, "x"]])


@given(st.integers(min_value=0, max_value=100), st.integers(min_value=0, max_value=2**32 - 1))
def test_parse_render_identity_on_random_words(n, seed):
    text = oracles.random_word_text(random.Random(seed), n)
    word = parse_word(text)
    assert word.n == n
    assert str(word) == text
    assert path_to_word(word_to_path(word)) == word


@given(st.text(alphabet="()", max_size=40))
def test_parse_agrees_with_oracle(text):
    verdict = oracles.scan(text)
    if verdict[0] == "ok":
        assert parse_word(text).n == verdict[1]
    elif verdict[0] == "negative":
        with pytest.raises(NegativePrefix) as exc:
            parse_word(text)
        assert exc.value.position == verdict[1]
    else:
        with pytest.raises(Unbalanced) as exc:
            parse_word(text)
        assert exc.value.final_excess == verdict[1]


def test_origin_constant():
    assert ORIGIN == LatticeNode(0, 0, 0, 0)


#: One word and its path, each built by two routes: equal values, distinct objects.
_WORD, _SAME_WORD = DyckWord("(()())"), parse_word(" ( ()() ) ")
_PATH, _SAME_PATH = word_to_path(_WORD), path_from_lists(as_lists(word_to_path(_WORD)))


class TestValueSemantics:
    """A word is a validated ``str``, a path a validated ``tuple`` of nodes."""

    def test_classes_add_no_instance_state(self):
        assert issubclass(DyckWord, str) and issubclass(Path4D, tuple)
        assert DyckWord.__slots__ == () and Path4D.__slots__ == ()
        assert not hasattr(_WORD, "__dict__") and not hasattr(_PATH, "__dict__")

    @pytest.mark.parametrize("value, attr", [(_WORD, "text"), (_WORD, "n"), (_WORD, "extra"),
                                             (_PATH, "nodes"), (_PATH, "extra")])
    def test_assignment_raises(self, value, attr):
        with pytest.raises(AttributeError):
            setattr(value, attr, "()")

    def test_no_second_name_for_the_value(self):
        # a word is its text and a path the tuple of its nodes, under no other name
        assert not hasattr(DyckWord("()"), "text")
        assert not hasattr(Path4D([ORIGIN]), "nodes")

    def test_equal_values_hash_equal(self):
        assert _WORD is not _SAME_WORD and _PATH is not _SAME_PATH
        assert _WORD == _SAME_WORD and hash(_WORD) == hash(_SAME_WORD)
        assert _PATH == _SAME_PATH and hash(_PATH) == hash(_SAME_PATH)
        # a word compares and hashes like its text, a path like the tuple of its nodes
        assert _WORD == "(()())" and hash(_WORD) == hash("(()())")
        assert _PATH == tuple(_PATH) and hash(_PATH) == hash(tuple(_PATH))
        assert len({_WORD, _SAME_WORD, "(()())"}) == 1 and len({_PATH, _SAME_PATH}) == 1

    def test_keyword_construction(self):
        assert DyckWord(text="(()())") == _WORD
        assert Path4D(nodes=tuple(_PATH)) == _PATH
        assert Path4D(nodes=as_lists(_PATH)) == _PATH

    @pytest.mark.parametrize("value", [_WORD, _PATH, DyckWord(""), Path4D([ORIGIN])],
                             ids=["word", "path", "empty-word", "origin-path"])
    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, value, protocol):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is type(value) and back == value

    @pytest.mark.parametrize("value", [_WORD, _PATH], ids=["word", "path"])
    def test_deepcopy(self, value):
        back = copy.deepcopy(value)
        assert type(back) is type(value) and back == value
