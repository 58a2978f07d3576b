import functools
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

import golden
import oracles
from dyck4d import (DyckWord, RankOutOfRange, catalan, draw_uniform_rank,
                    enumerate_words, parse_word, rank,
                    sample_uniform, unrank)
from dyck4d import enumeration
from dyck4d.cli import main
from dyck4d.enumeration import _prefix_rows


class TestCatalan:
    def test_small_values(self):
        # 5 and 132 confirmed by brute force over all 2^(2n) strings
        assert catalan(0) == 1
        assert catalan(3) == 5
        assert catalan(6) == 132

    @pytest.mark.parametrize("n", range(9))
    def test_brute_force_agreement(self, n):
        assert catalan(n) == len(oracles.all_balanced(n))

    def test_convolution_recurrence(self):
        for n in range(30):
            assert catalan(n + 1) == sum(catalan(k) * catalan(n - k) for k in range(n + 1))

    def test_exceeds_64_bits(self):
        assert catalan(40) > 2**64
        assert catalan(40) == math.comb(80, 40) - math.comb(80, 41)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            catalan(-1)


class TestEnumerateWords:
    def test_smallest(self):
        assert [str(w) for w in enumerate_words(0)] == [""]
        assert [str(w) for w in enumerate_words(1)] == ["()"]

    def test_first_element_is_all_opens_first(self):
        assert str(next(iter(enumerate_words(3)))) == "((()))"

    def test_n4_count(self):
        assert len(list(enumerate_words(4))) == 14

    @pytest.mark.parametrize("n", range(8))
    def test_equals_sorted_oracle_enumeration(self, n):
        # oracles.all_balanced filters itertools.product output, already lex order
        assert [str(w) for w in enumerate_words(n)] == oracles.all_balanced(n)

    def test_lengths_up_to_ten(self):
        for n in (9, 10):
            assert sum(1 for _ in enumerate_words(n)) == catalan(n)

    def test_strictly_increasing_and_unique(self):
        for n in range(8):
            rendered = [str(w) for w in enumerate_words(n)]
            assert all(a < b for a, b in zip(rendered, rendered[1:]))

    def test_all_valid(self):
        for word in enumerate_words(6):
            assert oracles.is_balanced(str(word))


class TestRankUnrank:
    def test_unrank_zero(self):
        assert str(unrank(0, 3)) == "((()))"

    def test_rank_matches_enumeration_index(self):
        for n in range(7):
            for k, word in enumerate(enumerate_words(n)):
                assert rank(word) == k

    @pytest.mark.parametrize("n", range(9))
    def test_exhaustive_round_trip(self, n):
        for k in range(catalan(n)):
            assert rank(unrank(k, n)) == k

    def test_randomized_large_n(self):
        rng = random.Random(20240809)
        for n in (25, 40, 60):
            total = catalan(n)
            for _ in range(50):
                k = rng.randrange(total)
                word = unrank(k, n)
                assert word.n == n
                assert rank(word) == k

    def test_out_of_range(self):
        with pytest.raises(RankOutOfRange):
            unrank(catalan(3), 3)
        with pytest.raises(RankOutOfRange):
            unrank(-1, 3)

    def test_rank_of_parsed_word(self):
        assert rank(parse_word("(())")) == 0
        assert rank(parse_word("()()")) == 1


def _held(table, function, *args):
    """``function(*args)`` in a process that holds ``table`` and buys no other: a call
    at an n it covers reads it, any other walks."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(enumeration, "_table", table)
        patch.setattr(enumeration, "_bought_table", lambda n: table if n < len(table) else None)
        return function(*args)


@functools.cache
def _brute_force_order(n):
    return oracles.all_balanced(n)


@functools.cache
def _rows_300():
    return _prefix_rows(300)


class TestWalkAgainstTable:
    """The ballot walk and the prefix table give every rank and word alike."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 300), seed=st.integers(0, 2**32))
    def test_random_words(self, n, seed):
        # the rows up to 300 serve every n up to 300, as the shared table does
        text = oracles.random_word_text(random.Random(seed), n)
        word = parse_word(text)
        k = _held((), rank, word)
        assert _held(_rows_300(), rank, word) == k
        assert _held((), unrank, k, n) == word == _held(_rows_300(), unrank, k, n)
        if n < 10:
            assert _brute_force_order(n)[k] == text

    @pytest.mark.parametrize("n", [999, 1000, 1001])
    def test_both_sides_of_the_cap(self, n):
        rng = random.Random(n)
        table = _prefix_rows(n)  # this test's own, about 44 MB, dropped when it ends
        for _ in range(3):
            word = parse_word(oracles.random_word_text(rng, n))
            k = _held((), rank, word)
            assert _held(table, rank, word) == k
            assert _held((), unrank, k, n) == word
            assert _held(table, unrank, k, n) == word


class TestClosedFormRank:
    """oracles.closed_form_rank, computed by math.comb alone, checks the walk above
    _TABLE_CAP, where no table is bought and every call walks."""

    @pytest.mark.parametrize("n", range(9))
    def test_oracle_follows_the_brute_force_order(self, n):
        order = _brute_force_order(n)
        assert list(map(oracles.closed_form_rank, order)) == list(range(len(order)))

    @pytest.mark.parametrize("n", [1001, 1500])
    def test_walk_above_the_cap(self, n):
        assert n > enumeration._TABLE_CAP
        rng = random.Random(n)
        texts = ["(" * n + ")" * n, "()" * n] + [oracles.random_word_text(rng, n) for _ in range(3)]
        for text in texts:
            k = oracles.closed_form_rank(text)
            assert rank(parse_word(text)) == k
            assert unrank(k, n) == text
        assert enumeration._table == ()


def _checked(word):
    """Whether ``word``, built without :class:`DyckWord`'s scan, is a word the scan accepts."""
    return type(word) is DyckWord and DyckWord(str(word)) == word


class TestBuiltWordsPassTheScan:
    """unrank, sample_uniform and enumerate_words build balanced words by
    construction and skip DyckWord's scan; each word they build passes it."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 300), data=st.data())
    def test_unrank(self, n, data):
        k = data.draw(st.integers(0, catalan(n) - 1))
        assert _checked(_held((), unrank, k, n))
        assert _checked(_held(_rows_300(), unrank, k, n))

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(0, 300), seed=st.integers(0, 2**32))
    def test_sample_uniform(self, n, seed):
        assert _checked(_held((), sample_uniform, n, seed))
        assert _checked(_held(_rows_300(), sample_uniform, n, seed))

    @pytest.mark.parametrize("n", range(10))
    def test_enumerate_words(self, n):
        assert all(map(_checked, enumerate_words(n)))


def _agrees_with_the_walk(ns):
    """rank and unrank at each n of ``ns``, reading the shared table, agree with the walk."""
    for n in ns:
        assert n < len(enumeration._table)
        word = parse_word(oracles.random_word_text(random.Random(n), n))
        k = _held((), rank, word)
        assert rank(word) == k
        assert unrank(k, n) == word


def _holds_every_ballot_number(table):
    """Each table[l][r] is B(l, r) = C(l + r, r)(l - r + 1)/(l + 1); C(l + r, r) is carried
    along the row, as math.comb over every entry up to l = 1000 would take 20 s."""
    for l in range(len(table)):
        row = table[l]
        c = 1
        for r in range(l + 1):
            if r:
                c = c * (l + r) // r
            assert row[r] == c * (l - r + 1) // (l + 1), (l, r)
        assert c == math.comb(2 * l, l)


class TestGrownTable:
    """Rows grown from a shorter table equal a fresh build, and every n they cover reads them."""

    def test_steps_up_to_the_cap(self):
        for n in (0, 250, 500, 1000):
            enumeration._table = _prefix_rows(n, enumeration._table)
            _agrees_with_the_walk(range(n + 1))
        _holds_every_ballot_number(enumeration._table)
        assert enumeration._walked == 0  # a call at a covered n is not charged

    @settings(max_examples=10, deadline=None)
    @given(steps=st.lists(st.integers(0, 300), min_size=1, max_size=6))
    def test_random_steps(self, steps):
        enumeration._table = ()
        for n in sorted(steps):
            enumeration._table = _prefix_rows(n, enumeration._table)
            assert enumeration._table == _prefix_rows(n)
            _agrees_with_the_walk(range(n + 1))


@pytest.fixture(scope="class")
def tables():
    """No table and the rows 0..300, 0..777 (an odd, whole last row) and 0..1000."""
    return {"none": (), **{f"rows-0-{n}": _prefix_rows(n) for n in (300, 777, 1000)}}


def _answers(n, words):
    """B(n, r) and B(n - 1, r) for every r, the ranks of ``words``, the words of those
    ranks and the first three draws of one seeded stream, all at n >= 1."""
    ranks = [rank(word) for word in words]
    return ([enumeration._ballot(l, r) for l in (n, n - 1) for r in range(l + 1)], ranks,
            [unrank(k, n) for k in ranks], list(islice(enumeration._draws(random.Random(n), n), 3)))


class TestKeptRows:
    """Rows 0..500, every even row and the last row are whole; an odd row above 500 is
    read from the row after it, and every reader gets the numbers of whole rows."""

    def test_the_rule(self, tables):
        for table in tables.values():
            for l, row in enumerate(table):
                whole = l <= enumeration._TABLE_CAP // 2 or l % 2 == 0 or l == len(table) - 1
                assert type(row) is (tuple if whole else enumeration._OddRow), l
                if not whole:
                    assert row.below is table[l + 1]

    @pytest.mark.parametrize("n", [7, 250, 500, 501, 777, 999, 1000])
    def test_same_answers_from_every_table(self, tables, n):
        rng = random.Random(n)
        words = [parse_word(oracles.random_word_text(rng, n)) for _ in range(3)]
        expected = _held((), _answers, n, words)
        ranks, unranked = expected[1:3]
        assert unranked == words
        if n < 10:
            assert [_brute_force_order(n)[k] for k in ranks] == words
        for name, table in tables.items():
            assert _held(table, _answers, n, words) == expected, name

    def test_iteration_yields_the_row(self, tables):
        # an odd row above 500 yields its l + 1 numbers, as a whole row does
        for table in tables.values():
            for l, row in enumerate(table):
                assert list(row) == [row[r] for r in range(l + 1)], l

    def test_grown_from_an_odd_last_row(self, tables):
        old = tables["rows-0-777"]
        new = _prefix_rows(1000, old)
        assert type(old[777]) is tuple  # a reader that holds the old table reads it whole
        assert all(a is b for a, b in zip(new, old[:777]))
        assert type(new[777]) is enumeration._OddRow and new[777].below is new[778]
        assert [new[777][r] for r in range(778)] == list(old[777])

    def test_traced_size(self):
        # 75.4 MB with every row whole, 43.6 MB kept by the rule (CPython 3.11)
        with golden.traced() as memory:
            table = _prefix_rows(enumeration._TABLE_CAP)
        assert len(table) == 1001 and memory.current <= 45 * 10**6


@pytest.fixture
def builds():
    """The arguments of every table build from now on."""
    with golden.calls(_prefix_rows) as calls:
        yield calls["_prefix_rows"]


def _words_at(n):
    """A word of half-length n and its rank."""
    word = parse_word(oracles.random_word_text(random.Random(n), n))
    return word, _held((), rank, word)


class TestBuyRule:
    """A walk at n <= 1000 costs n²; the call whose walks so far reach n³ / 16 buys rows 0..n."""

    @staticmethod
    def _rotated_calls(ns, calls):
        """``calls`` alternating rank and unrank calls, cycling through ``ns``; the
        table's length after each."""
        words = {n: _words_at(n) for n in ns}
        lengths = []
        for call in range(calls):
            word, k = words[ns[call % len(ns)]]
            assert (unrank(k, word.n) if call % 2 else rank(word)) == (word if call % 2 else k)
            lengths.append(len(enumeration._table))
        return lengths

    def _calls_at(self, n, calls):
        return self._rotated_calls([n], calls)

    @pytest.mark.parametrize("n", [1, 16, 17, 100, 1000])
    def test_bought_on_the_paying_call(self, n):
        paying = math.ceil(n / 16)
        lengths = self._calls_at(n, paying + 5)
        assert lengths == [0] * (paying - 1) + [n + 1] * 6
        # from the paying call on, calls at n read the table and are charged nothing
        assert enumeration._walked == paying * n * n

    def test_never_bought_above_the_cap(self):
        calls = math.ceil(1001 / 16) + 5
        assert self._calls_at(1001, calls) == [0] * calls
        assert enumeration._walked == 0

    def test_covered_and_capped_calls_charge_nothing(self):
        enumeration._table = _prefix_rows(50)
        enumeration._walked = walked = 12345
        assert self._rotated_calls([0, 1, 30, 50, 1001, 1200], 12) == [51] * 12
        assert enumeration._walked == walked

    def test_smaller_n_read_the_table_at_once(self):
        self._calls_at(100, math.ceil(100 / 16))
        walked = enumeration._walked
        assert self._calls_at(60, 3) == [101] * 3
        assert enumeration._walked == walked
        # a larger n grows the same table from its last row; the walks at n = 100
        # pay part of it, so the third call at 120 buys, not the eighth
        first_rows = enumeration._table
        assert self._calls_at(120, 3) == [101, 101, 121]
        assert enumeration._table[:101] == first_rows
        assert all(a is b for a, b in zip(enumeration._table, first_rows))

    def test_alternating_half_lengths_share_the_cost(self, builds):
        # 7 walks at 99 and 100 cost more than a build at 99: the 7th call buys rows
        # 0..99 and the 8th rows 0..100
        assert self._rotated_calls([99, 100], 10) == [0] * 6 + [100] + [101] * 3
        assert [build["n"] for build in builds] == [99, 100]
        assert enumeration._walked == 4 * 99**2 + 4 * 100**2

    @pytest.mark.parametrize("rotated", [4, 5, 12])
    def test_rotating_half_lengths(self, rotated, builds):
        # however many n a process rotates through, each grows the table once, the smallest first
        ns = [200 + 200 * step // (rotated - 1) for step in range(rotated)]
        self._rotated_calls(ns, 200 - rotated)
        assert [build["n"] for build in builds] == ns
        assert len(enumeration._table) == ns[-1] + 1

    def test_cold_commands_build_nothing(self, builds, capsys):
        # a counting-cold request is one command in a fresh process: four draws at n = 200
        # or one rank at n = 1000 cost far less than a build there
        assert main(["sample", "--n", "200", "--seed", "1", "--count", "4"]) == 0
        assert len(capsys.readouterr().out.split()) == 4
        word, k = _words_at(1000)
        assert rank(word) == k
        assert builds == [] and enumeration._table == ()


@pytest.fixture
def comb_calls():
    """The arguments of every ``math.comb`` call from now on."""
    with golden.calls(math.comb) as calls:
        yield calls["comb"]


class TestEachNumberOnce:
    """unrank checks its rank before the buy rule, and a walk reads catalan(n), whose
    closed form is the one ``math.comb`` call, once per call or per stream of draws."""

    def test_rejected_unrank_charges_no_walk(self):
        # 20 walks at n = 100 would pay for rows 0..100 from the 7th on
        for k in (-1, catalan(100)) * 10:
            with pytest.raises(RankOutOfRange):
                unrank(k, 100)
        assert enumeration._walked == 0 and enumeration._table == ()

    def test_a_stream_reads_catalan_once(self, comb_calls):
        walked = list(islice(enumeration._draws(random.Random(5), 300), 4))
        assert comb_calls == [{"n": 600, "k": 300}]  # B(300, 300), once for the four draws
        assert enumeration._table == ()  # four walks at n = 300 buy no table
        enumeration._table = _prefix_rows(300)
        assert list(islice(enumeration._draws(random.Random(5), 300), 4)) == walked
        assert comb_calls == [{"n": 600, "k": 300}]  # a held row costs no binomial

    def test_rank_and_unrank_read_catalan_once(self, comb_calls):
        word = parse_word(oracles.random_word_text(random.Random(300), 300))
        k = rank(word)
        assert comb_calls == [{"n": 600, "k": 300}]
        assert unrank(k, 300) == word
        assert comb_calls == [{"n": 600, "k": 300}] * 2
        assert enumeration._walked == 2 * 300**2 and enumeration._table == ()


class TestThreads:
    @pytest.fixture(autouse=True)
    def short_switch_interval(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        yield
        sys.setswitchinterval(interval)

    def test_no_call_is_lost(self, monkeypatch):
        # no call ever pays, so the charge must end at the cost of every call made
        monkeypatch.setattr(enumeration, "_WALK_RATIO", 0)
        ns = range(2, 6)

        def work(_):
            for _ in range(100):
                for n in ns:
                    rank(unrank(1, n))

        with ThreadPoolExecutor(max_workers=8) as pool:
            assert list(pool.map(work, range(8), timeout=120)) == [None] * 8
        assert enumeration._walked == 8 * 100 * 2 * sum(n * n for n in ns)
        assert enumeration._table == ()

    def test_shared_counts_stay_right(self, builds):
        # each thread makes runs of calls at one of 12 half-lengths, and the walks of
        # all threads pay for the builds
        ns = [3, 10, 17, 24, 40, 64, 80, 100, 120, 140, 160, 1001]

        def work(seed):
            rng = random.Random(seed)
            for n in rng.sample(ns, len(ns)):
                for _ in range(12):
                    k = rng.randrange(catalan(n))
                    if rank(unrank(k, n)) != k:
                        return (n, k)
            return None

        with ThreadPoolExecutor(max_workers=8) as pool:
            assert list(pool.map(work, range(8), timeout=120)) == [None] * 8
        # no more is charged than every call at n <= 1000 walking
        assert enumeration._walked <= 8 * 12 * 2 * sum(n * n for n in ns[:-1])
        # each build starts where the last one ended: no two threads built the same rows
        built = [(len(build["rows"]), build["n"]) for build in builds]
        assert [start for start, _ in built] == [0] + [n + 1 for _, n in built[:-1]]
        assert enumeration._table == _prefix_rows(built[-1][1])


class TestSampling:
    # n = 1001 is above the table cap, so a walking unrank needs catalan(n) for its start
    @pytest.fixture
    def catalan_calls(self):
        """The arguments of every ``catalan`` call from now on."""
        with golden.calls(catalan) as calls:
            yield calls["catalan"]

    def test_one_catalan_number_per_draw(self, catalan_calls):
        word = sample_uniform(1001, 5)
        assert catalan_calls == [{"n": 1001}]
        assert rank(word) < catalan(1001)

    def test_one_catalan_number_per_sample_command(self, catalan_calls, capsys):
        assert main(["sample", "--n", "1001", "--seed", "5", "--count", "3"]) == 0
        assert catalan_calls == [{"n": 1001}]
        assert len(capsys.readouterr().out.split()) == 3

    def test_covered_n_reads_its_total_from_the_table(self, capsys):
        argv = ["sample", "--n", "30", "--seed", "5", "--count", "3"]
        enumeration._table = _prefix_rows(30)
        with golden.calls(math.comb, enumeration._bought_table) as calls:
            words = [sample_uniform(n, 5) for n in (0, 7, 30)]
            assert main(argv) == 0
        assert calls["comb"] == []  # catalan(n) = B(n, n) is a table read
        # one buy-rule call per draw
        assert [call["n"] for call in calls["_bought_table"]] == [0, 7, 30] + [30] * 3
        printed = capsys.readouterr().out
        enumeration._table = ()  # walking draws the same words
        assert [sample_uniform(n, 5) for n in (0, 7, 30)] == words
        assert main(argv) == 0
        assert capsys.readouterr().out == printed

    def test_single_word_universe(self):
        assert sample_uniform(0, 123).n == 0
        assert str(sample_uniform(1, 99)) == "()"

    def test_deterministic_per_seed(self):
        for seed in (0, 1, 7, 2**63 - 1):
            assert sample_uniform(12, seed) == sample_uniform(12, seed)

    def test_different_seeds_vary(self):
        samples = {str(sample_uniform(8, seed)) for seed in range(40)}
        assert len(samples) > 1

    def test_draw_uniform_rank_bounds_and_coverage(self):
        rng = random.Random(5)
        seen = set()
        for _ in range(500):
            k = draw_uniform_rank(rng, 3)
            assert 0 <= k < 3
            seen.add(k)
        assert seen == {0, 1, 2}
        assert draw_uniform_rank(rng, 1) == 0
        with pytest.raises(ValueError):
            draw_uniform_rank(rng, 0)

    def test_chi_square_uniformity_n4(self):
        # 14 words, 14000 samples: expected 1000 each,
        # sigma = sqrt(N p (1-p)); no bin may deviate by more than 5 sigma.
        draws = 14000
        counts = {}
        for seed in range(draws):
            text = str(sample_uniform(4, seed))
            counts[text] = counts.get(text, 0) + 1
        assert len(counts) == 14
        expected = draws / 14
        sigma = math.sqrt(draws * (1 / 14) * (13 / 14))
        for text, observed in counts.items():
            assert abs(observed - expected) <= 5 * sigma, (text, observed)


@pytest.mark.parametrize("call", [lambda: next(enumerate_words(-1)), lambda: unrank(0, -1),
                                  lambda: sample_uniform(-1, 0)],
                         ids=["enumerate_words", "unrank", "sample_uniform"])
def test_negative_half_length_rejected(call):
    enumeration._table = _prefix_rows(3)  # a table covers every n below its length, not n < 0
    with pytest.raises(ValueError, match="^half-length must be non-negative$"):
        call()


@pytest.mark.parametrize("n", [0, 3, 12, 200])
def test_sample_command_starts_with_sample_uniform(n, capsys):
    # the command prints the first --count draws of one stream, and sample_uniform is its first
    for seed in (0, 5):
        assert main(["sample", "--n", str(n), "--seed", str(seed), "--count", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3 and lines[0] == sample_uniform(n, seed)


@pytest.mark.parametrize("total", [2.0, True, "3", Fraction(3)],
                         ids=["float", "bool", "str", "Fraction"])
def test_draw_uniform_rank_takes_an_int_total(total):
    # before the sign check, as unrank checks its rank's type
    with pytest.raises(TypeError, match=f"^total must be an int, not {type(total).__name__}$"):
        draw_uniform_rank(random.Random(1), total)


@pytest.mark.parametrize("word", ["()", b"()", None], ids=["str", "bytes", "None"])
def test_rank_takes_a_dyck_word(word):
    with pytest.raises(TypeError, match=f"^word must be a DyckWord, not {type(word).__name__}$"):
        rank(word)


@pytest.mark.parametrize("k", [True, 1.0, "1", Fraction(1)],
                         ids=["bool", "float", "str", "Fraction"])
def test_unrank_takes_an_int_rank(k, comb_calls):
    # rejected before catalan(n) and the buy rule, so the call computes no binomial,
    # charges no walk and buys no table
    with pytest.raises(TypeError, match=f"^rank must be an int, not {type(k).__name__}$"):
        unrank(k, 2)
    assert comb_calls == []
    assert enumeration._walked == 0 and enumeration._table == ()
    # the half-length rule comes first
    with pytest.raises(ValueError, match="^half-length must be non-negative$"):
        unrank(k, -1)


class TestEveryTestStartsFresh:
    """The autouse reset of conftest.py: what one test buys and charges, the next never sees."""

    def test_a_test_buys_a_table(self):
        unrank(0, 16)  # the first walk at n = 16 charges 16², and 16 × 16² reaches 16³: it buys
        assert (len(enumeration._table), enumeration._walked) == (17, 256)

    def test_the_next_starts_with_none(self):
        assert (enumeration._table, enumeration._walked) == ((), 0)
