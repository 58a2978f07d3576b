import functools
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from dyck4d import (RankOutOfRange, catalan, draw_uniform_rank,
                    enumerate_words, parse_word, rank,
                    sample_uniform, unrank)
from dyck4d import enumeration
from dyck4d.cli import main
from dyck4d.lattice import prefix_count_table


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


def _counted_by(source, function, *args):
    """``function(*args)`` with rank and unrank counting by ``source``: "walk" or "table"."""
    bought = {"walk": lambda n: None, "table": prefix_count_table}[source]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(enumeration, "_bought_table", bought)
        return function(*args)


@functools.cache
def _brute_force_order(n):
    return oracles.all_balanced(n)


class TestWalkAgainstTable:
    """The ballot walk and the prefix table give every rank and word alike."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 300), seed=st.integers(0, 2**32))
    def test_random_words(self, n, seed):
        text = oracles.random_word_text(random.Random(seed), n)
        word = parse_word(text)
        k = _counted_by("walk", rank, word)
        assert _counted_by("table", rank, word) == k
        assert _counted_by("walk", unrank, k, n) == word == _counted_by("table", unrank, k, n)
        if n < 10:
            assert _brute_force_order(n)[k] == text

    @pytest.mark.parametrize("n", [999, 1000, 1001])
    def test_both_sides_of_the_cap(self, n):
        rng = random.Random(n)
        try:
            for _ in range(3):
                word = parse_word(oracles.random_word_text(rng, n))
                k = _counted_by("walk", rank, word)
                assert _counted_by("table", rank, word) == k
                assert _counted_by("walk", unrank, k, n) == word
                assert _counted_by("table", unrank, k, n) == word
        finally:
            prefix_count_table.cache_clear()  # about 93 MB per table


class TestBuyRule:
    """Call c at n reads the table once 16 c >= n, and never above n = 1000."""

    @pytest.fixture(autouse=True)
    def fresh_counts(self):
        enumeration._calls.clear()
        prefix_count_table.cache_clear()
        yield
        enumeration._calls.clear()
        prefix_count_table.cache_clear()

    @staticmethod
    def _calls_at(n, calls):
        """``calls`` alternating rank and unrank calls at n; the table misses after each."""
        word = parse_word(oracles.random_word_text(random.Random(n), n))
        k = rank(word)
        misses = [prefix_count_table.cache_info().misses]
        for call in range(2, calls + 1):
            assert (unrank(k, n) if call % 2 else rank(word)) == (word if call % 2 else k)
            misses.append(prefix_count_table.cache_info().misses)
        return misses

    @pytest.mark.parametrize("n", [1, 16, 17, 100, 1000])
    def test_bought_on_the_paying_call(self, n):
        paying = math.ceil(n / 16)
        misses = self._calls_at(n, paying + 5)
        assert misses == [0] * (paying - 1) + [1] * 6

    def test_never_bought_above_the_cap(self):
        calls = math.ceil(1001 / 16) + 5
        assert self._calls_at(1001, calls) == [0] * calls

    def test_counts_bounded_and_correct_after_eviction(self):
        counted = enumeration._COUNTED
        ns = range(20, 40)
        for n in ns:
            assert rank(unrank(n, n)) == n
        assert list(enumeration._calls) == list(ns[-counted:])
        assert set(enumeration._calls.values()) == {2}
        # a call at the oldest counted n makes it the most recent, so n = 40 evicts the next
        oldest, evicted = ns[-counted], ns[-counted + 1]
        assert unrank(0, oldest) == parse_word("(" * oldest + ")" * oldest)
        assert rank(unrank(0, 40)) == 0
        assert list(enumeration._calls) == [*ns[-counted + 2:], oldest, 40]
        assert evicted not in enumeration._calls and enumeration._calls[oldest] == 3
        # n = 20 was evicted: its count starts again
        assert rank(unrank(1, 20)) == 1
        assert len(enumeration._calls) == counted and enumeration._calls[20] == 2

    @pytest.mark.parametrize("rotated, builds", [(enumeration._COUNTED + 1, 0),
                                                 (enumeration._COUNTED, enumeration._COUNTED)])
    def test_rotating_half_lengths(self, rotated, builds):
        # one n more than the tables kept: each n's count restarts before it can buy;
        # as many n as the tables kept: each buys its table once and keeps it
        ns = [200 + 200 * step // (rotated - 1) for step in range(rotated)]
        words = {n: parse_word(oracles.random_word_text(random.Random(n), n)) for n in ns}
        ks = {n: rank(word) for n, word in words.items()}
        for call in range(200 - rotated):
            n = ns[call % rotated]
            assert (unrank(ks[n], n) if call % 2 else rank(words[n])) == (
                words[n] if call % 2 else ks[n])
        assert prefix_count_table.cache_info().misses == builds


class TestThreads:
    @pytest.fixture(autouse=True)
    def short_switch_interval(self):
        enumeration._calls.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        yield
        sys.setswitchinterval(interval)
        enumeration._calls.clear()

    def test_no_call_is_lost(self):
        # as many half-lengths as the bound holds, so every count must end at the calls made
        ns = range(2, 2 + enumeration._COUNTED)

        def work(_):
            for _ in range(100):
                for n in ns:
                    rank(unrank(1, n))

        with ThreadPoolExecutor(max_workers=8) as pool:
            assert list(pool.map(work, range(8), timeout=120)) == [None] * 8
        assert enumeration._calls == dict.fromkeys(ns, 8 * 100 * 2)

    def test_shared_counts_stay_right(self):
        # 12 half-lengths cross the bound on the counts; each thread makes runs of calls at
        # one n, so the counts at n <= 160 reach their paying call while others evict them.
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
        assert len(enumeration._calls) <= enumeration._COUNTED


class TestSampling:
    # n = 1001 is above the table cap, so a walking unrank needs catalan(n) for its start
    @pytest.fixture
    def catalan_calls(self, monkeypatch):
        """The n of every ``enumeration.catalan`` call from now on."""
        calls = []
        real = enumeration.catalan
        monkeypatch.setattr(enumeration, "catalan", lambda n: calls.append(n) or real(n))
        return calls

    def test_one_catalan_number_per_draw(self, catalan_calls):
        word = sample_uniform(1001, 5)
        assert catalan_calls == [1001]
        assert rank(word) < catalan(1001)

    def test_one_catalan_number_per_sample_command(self, catalan_calls, capsys):
        assert main(["sample", "--n", "1001", "--seed", "5", "--count", "3"]) == 0
        assert catalan_calls == [1001]
        assert len(capsys.readouterr().out.split()) == 3

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


@pytest.mark.parametrize("call", [lambda: next(enumerate_words(-1)), lambda: unrank(0, -1)],
                         ids=["enumerate_words", "unrank"])
def test_negative_half_length_rejected(call):
    with pytest.raises(ValueError, match="^half-length must be non-negative$"):
        call()
