from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cantorlab.core import (
    BudgetError,
    Clopen,
    DepthExceededError,
    Dyadic,
    SearchExhaustedError,
    first_extension_into,
    first_free_string,
    pair,
    unpair,
    unpair3,
)
from conftest import (
    FULL_MASK,
    brute_free_string,
    extensions,
    leaf_mask,
    leftmost_uncovered,
    sigma_plus,
)

bits_st = st.text(alphabet="01", min_size=0, max_size=8)
clopen_st = st.lists(bits_st, max_size=6).map(Clopen)


class TestDyadic:
    def test_normalization(self):
        assert Dyadic(4, 3) == Dyadic(1, 1)
        assert Dyadic(0, 7) == Dyadic(0)
        d = Dyadic(6, 0)
        assert (d.numerator, d.exponent) == (6, 0)

    def test_arithmetic(self):
        assert Dyadic(1, 1) + Dyadic(1, 2) == Dyadic(3, 2)
        assert Dyadic(3, 2) - Dyadic(1, 2) == Dyadic(1, 1)
        assert Dyadic(1, 3).half() == Dyadic(1, 4)
        with pytest.raises(ValueError):
            Dyadic(1, 2) - Dyadic(1, 1)

    def test_ordering(self):
        assert Dyadic(1, 2) < Dyadic(1, 1) <= Dyadic(1)
        assert Dyadic.exp2(-3) == Dyadic(1, 3)
        assert Dyadic.exp2(2) == Dyadic(4, 0)

    @given(st.integers(0, 1 << 40), st.integers(0, 60), st.integers(0, 70))
    @example(1, 3, 3)
    @example(3, 3, 2)
    @example(0, 0, 70)
    def test_within_matches_fractions(self, n, e, i):
        """``within(i)`` is ``<= 2**-i`` of the exact fractions, on integers."""
        assert Dyadic(n, e).within(i) == (Fraction(n, 2 ** e) <= Fraction(1, 2 ** i))

    @given(st.integers(0, 1 << 90), st.integers(0, 80),
           st.integers(0, 1 << 90), st.integers(0, 80))
    @example(0, 0, 0, 80)
    @example(1, 80, 1, 79)
    @example(2, 1, 1, 0)
    def test_order_matches_fractions(self, n, e, m, f):
        """``<``, ``<=``, ``>``, ``>=`` and ``==`` agree with the exact
        fractions; ``>`` and ``>=`` are ``__lt__`` and ``__le__`` reflected."""
        a, b = Dyadic(n, e), Dyadic(m, f)
        x, y = Fraction(n, 2 ** e), Fraction(m, 2 ** f)
        assert ((a < b), (a <= b), (a > b), (a >= b), (a == b), (a != b)) == (
            (x < y), (x <= y), (x > y), (x >= y), (x == y), (x != y))

    def test_exponent_cap(self):
        with pytest.raises(BudgetError):
            Dyadic(3, 5000)

    @given(st.integers(0, 1 << 40), st.integers(0, 60))
    def test_normal_form(self, n, e):
        d = Dyadic(n, e)
        assert d.numerator * 2 ** e == n * 2 ** d.exponent
        assert d.exponent == 0 or d.numerator % 2 == 1

    @given(st.integers(0, 1000), st.integers(0, 30), st.integers(0, 1000),
           st.integers(0, 30))
    def test_add_matches_fractions(self, a, j, b, k):
        got = Dyadic(a, j) + Dyadic(b, k)
        assert got.numerator / 2 ** got.exponent == a / 2 ** j + b / 2 ** k


class TestCanonicalize:
    def test_absorption(self):
        assert Clopen(["0", "00"]).cylinders == ("0",)

    def test_sibling_merge_to_root(self):
        assert Clopen(["0", "1"]).cylinders == ("",)

    def test_mixed_merge(self):
        assert Clopen(["01", "10", "11"]).cylinders == ("1", "01")

    @given(st.lists(bits_st, max_size=8))
    def test_idempotent_and_denotation_preserving(self, strings):
        c = Clopen(strings)
        assert Clopen(c.cylinders) == c
        assert leaf_mask(c.cylinders) == leaf_mask(strings)

    @given(st.lists(bits_st, max_size=8))
    def test_canonical_form(self, strings):
        c = Clopen(strings)
        cyls = c.cylinders
        for a in cyls:
            for b in cyls:
                assert a == b or not b.startswith(a)
        present = set(cyls)
        for s in cyls:
            if s:
                sibling = s[:-1] + ("1" if s[-1] == "0" else "0")
                assert sibling not in present or s[:-1] in present


class TestMeasure:
    def test_examples(self):
        assert Clopen([]).measure() == Dyadic(0)
        assert Clopen(["01"]).measure() == Dyadic(1, 2)
        assert Clopen(["0", "10"]).measure() == Dyadic(3, 2)

    @given(clopen_st)
    def test_equals_leaf_count(self, c):
        assert c.measure() == Dyadic(bin(leaf_mask(c.cylinders)).count("1"), 8)


class TestAlgebra:
    def test_examples(self):
        assert Clopen(["0"]).intersect(Clopen(["01", "1"])) == Clopen(["01"])
        assert Clopen(["00"]).is_subset_of(Clopen(["0"]))
        assert Clopen(["0"]).complement(2) == Clopen(["1"])

    def test_complement_depth_guard(self):
        with pytest.raises(DepthExceededError):
            Clopen(["0101"]).complement(3)

    @given(clopen_st, clopen_st)
    def test_union_intersect_subset_against_oracle(self, a, b):
        ma, mb = leaf_mask(a.cylinders), leaf_mask(b.cylinders)
        assert leaf_mask(a.union(b).cylinders) == ma | mb
        assert leaf_mask(a.intersect(b).cylinders) == ma & mb
        assert a.is_subset_of(b) == (ma & ~mb == 0)

    @given(clopen_st)
    def test_complement_against_oracle(self, a):
        assert leaf_mask(a.complement(8).cylinders) == (~leaf_mask(a.cylinders)) & FULL_MASK

    @given(clopen_st, clopen_st)
    def test_measure_inclusion_exclusion(self, a, b):
        lhs = a.union(b).measure() + a.intersect(b).measure()
        assert lhs == a.measure() + b.measure()

    @given(clopen_st, clopen_st)
    def test_subset_iff_measure_equality(self, a, b):
        assert a.is_subset_of(b) == (a.intersect(b).measure() == a.measure())

    @given(clopen_st)
    def test_double_complement(self, a):
        assert a.complement(8).complement(8) == a


class TestPairing:
    def test_examples(self):
        assert pair(0, 0) == 0
        assert pair(1, 2) == 7

    def test_round_trip(self):
        for i in range(100):
            for s in range(100):
                assert unpair(pair(i, s)) == (i, s)

    def test_unpair_total(self):
        seen = {unpair(n) for n in range(500)}
        assert len(seen) == 500

    def test_triple(self):
        i, m, t = unpair3(pair(pair(2, 3), 5))
        assert (i, m, t) == (2, 3, 5)


class TestSearches:
    def test_first_extension(self):
        t = Clopen(["01", "1"])
        assert first_extension_into("0", t, 8) == "1"
        assert first_extension_into("01", t, 8) == ""
        assert first_extension_into("00", t, 8) is None

    def test_first_extension_is_least(self):
        t = Clopen(["0011", "010"])
        assert first_extension_into("0", t, 8) == "10"

    def test_first_free_string(self):
        assert first_free_string(2, 8, Clopen(["0"])) == "10"
        assert first_free_string(1, 8, Clopen([])) == "0"
        with pytest.raises(SearchExhaustedError):
            first_free_string(1, 8, Clopen([""]))

    def test_first_free_string_brute_force(self):
        covered = Clopen(["00", "0110", "10"])
        for min_len in range(1, 6):
            got = first_free_string(min_len, 6, covered)
            brute = None
            for d in range(min_len, 7):
                for cand in extensions("", d):
                    if not covered.meets(cand):
                        brute = cand
                        break
                if brute:
                    break
            assert got == brute

    def test_first_free_string_predicate(self):
        got = first_free_string(1, 6, Clopen(["0"]), pred=lambda s: len(s) >= 3)
        assert got == "100"

    def test_first_free_string_cap(self):
        """A predicate that rejects every string of a free set larger than
        the cap is asked 200,001 times, then the search gives up."""
        asked = []

        def reject(sigma):
            asked.append(sigma)
            return False

        with pytest.raises(SearchExhaustedError, match="exceeded 200000 candidates"):
            first_free_string(0, 18, Clopen(["0000"]), pred=reject)
        assert len(asked) == 200_001
        assert asked[:3] == ["1", "01", "10"]
        assert len(set(asked)) == len(asked)

    def test_leftmost_uncovered(self):
        assert leftmost_uncovered(3, Clopen(["00", "010"])) == "011"
        assert leftmost_uncovered(2, Clopen([])) == "00"
        assert leftmost_uncovered(1, Clopen([""])) is None

    def test_sigma_plus(self):
        assert sigma_plus("0011") == "0100"
        assert sigma_plus("0") == "1"
        assert sigma_plus("111") is None
        assert sigma_plus("") is None


# Sets of depth at most 4 against query strings up to 3x that long, with the
# leaf-bitset oracle of the strings a set is built from, at the queries' depth.
QDEPTH = 12
short_bits_st = st.text(alphabet="01", max_size=4)
strings_st = st.lists(short_bits_st, max_size=6)
query_st = st.one_of(short_bits_st, st.text(alphabet="01", max_size=QDEPTH))
length_st = st.one_of(st.integers(0, 5), st.integers(0, QDEPTH))


def _mask(strings) -> int:
    return leaf_mask(strings, QDEPTH)


def _oracle_covers(strings, bits: str) -> bool:
    return _mask([bits]) & ~_mask(strings) == 0


def _oracle_meets(strings, bits: str) -> bool:
    return _mask([bits]) & _mask(strings) != 0


class TestQueriesAgainstOracle:
    @settings(max_examples=300)
    @given(strings_st, query_st)
    def test_covers_and_meets(self, strings, q):
        c = Clopen(strings)
        assert c.covers(q) == _oracle_covers(strings, q)
        assert c.meets(q) == _oracle_meets(strings, q)

    @pytest.mark.parametrize("strings", [[""], ["", "0101"], ["0", "1"], ["1"], ["01"],
                                         ["1", "0010", "011"]])
    def test_whole_space_and_mixed_lengths(self, strings):
        c = Clopen(strings)
        for q in ("", "0", "1", "00", "0011", "0" * 12, "0010" * 3, "1" * 9):
            assert c.covers(q) == _oracle_covers(strings, q)
            assert c.meets(q) == _oracle_meets(strings, q)

    @settings(max_examples=300)
    @given(strings_st, query_st, length_st)
    def test_first_extension_into(self, strings, prefix, max_len):
        if _oracle_covers(strings, prefix):
            expected = ""
        else:
            expected = next((sigma[len(prefix):]
                             for n in range(len(prefix) + 1, max_len + 1)
                             for sigma in extensions(prefix, n)
                             if _oracle_covers(strings, sigma)), None)
        assert first_extension_into(prefix, Clopen(strings), max_len) == expected

    @settings(max_examples=300)
    @given(strings_st, length_st)
    def test_leftmost_uncovered(self, strings, length):
        expected = next((sigma for sigma in extensions("", length)
                         if not _oracle_covers(strings, sigma)), None)
        assert leftmost_uncovered(length, Clopen(strings)) == expected

    @settings(max_examples=500)
    @given(covered=st.one_of(st.lists(st.text(alphabet="01", max_size=7), max_size=6),
                             st.just([""])).map(Clopen),
           max_len=st.integers(0, 7), below=st.integers(0, 7),
           accept=st.none() | st.sets(st.text(alphabet="01", max_size=7)))
    @example(covered=Clopen(), max_len=0, below=0, accept=None)  # the empty string
    @example(covered=Clopen([""]), max_len=3, below=3, accept=None)  # all covered
    def test_first_free_string(self, covered, max_len, below, accept):
        """The span walk finds what the string-by-string search finds, or
        raises the same error, with and without a predicate, for each
        ``min_len`` from 0 to ``max_len``."""
        min_len = max(max_len - below, 0)
        pred = None if accept is None else accept.__contains__

        def outcome(search):
            try:
                return search(min_len, max_len, covered, pred)
            except (DepthExceededError, SearchExhaustedError) as exc:
                return type(exc), str(exc)

        assert outcome(first_free_string) == outcome(brute_free_string)

    @given(strings_st, strings_st)
    def test_equal_iff_cylinders_equal(self, sa, sb):
        a, b = Clopen(sa), Clopen(sb)
        assert (a == b) == (a.cylinders == b.cylinders) == (_mask(sa) == _mask(sb))
        halves = Clopen([c + t for c in a.cylinders for t in "01"])
        assert halves == a and halves.cylinders == a.cylinders


class TestLongCylinders:
    def test_depth_1200(self):
        a = Clopen(["0" * 1200])
        assert a.cylinders == ("0" * 1200,)
        assert a.measure() == Dyadic(1, 1200)
        assert a.union(Clopen(["1"])).cylinders == ("1", "0" * 1200)
        assert a.intersect(Clopen(["0"])) == a
        assert not a.intersect(Clopen(["1"]))
        rest = a.complement(4096)
        assert rest.cylinders == tuple("0" * k + "1" for k in range(1200))
        assert rest.measure() == Dyadic((1 << 1200) - 1, 1200)
        assert rest.union(a) == Clopen([""]) and not rest.intersect(a)

    def test_depth_4096(self):
        a = Clopen(["1" * 4096, "0"])
        assert a.cylinders == ("0", "1" * 4096)
        assert a.measure() == Dyadic((1 << 4095) + 1, 4096)
        rest = a.complement(4096)
        assert rest.cylinders == tuple("1" * k + "0" for k in range(1, 4096))
        assert rest.measure() == Dyadic((1 << 4095) - 1, 4096)
        assert a.union(rest) == Clopen([""])
        assert a.intersect(rest) == Clopen()
        assert a.intersect(Clopen(["1"])) == Clopen(["1" * 4096])
        with pytest.raises(DepthExceededError, match="1{4096}"):
            a.complement(4095)

    def test_measure_past_the_dyadic_cap(self):
        with pytest.raises(BudgetError):
            Clopen(["0" * 4097]).measure()


# Sets built from strings of length 0..10, against the leaf-bitset oracle at
# depth 10.  A list repeated twice never holds exactly one string, so
# ``Clopen(xs + xs)`` always takes the general construction.
WDEPTH = 10
wide_strings_st = st.lists(st.text(alphabet="01", max_size=WDEPTH), max_size=6)


def _leaf_sets(n: int):
    """Sets of ``n``-bit leaves: ``n`` deep unless every leaf meets its sibling."""
    return st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=6).map(
        lambda vs: [format(v, f"0{n}b") for v in vs])


equal_depth_st = st.integers(1, WDEPTH).flatmap(
    lambda n: st.tuples(_leaf_sets(n), _leaf_sets(n)))


def _check_algebra(sa, sb) -> None:
    a, b = Clopen(sa), Clopen(sb)
    ma, mb = leaf_mask(sa, WDEPTH), leaf_mask(sb, WDEPTH)
    for x, y, mx, my in ((a, b, ma, mb), (b, a, mb, ma)):
        assert leaf_mask(x.union(y).cylinders, WDEPTH) == mx | my
        assert leaf_mask(x.intersect(y).cylinders, WDEPTH) == mx & my
        assert x.is_subset_of(y) == (mx & ~my == 0)
        assert x.union(y) == Clopen(sa + sb + sa + sb)


class TestFastPathsAgainstOracle:
    @given(st.text(alphabet="01", max_size=WDEPTH))
    def test_one_cylinder(self, c):
        one = Clopen([c])
        assert one == Clopen([c, c])
        assert one.cylinders == (c,) == Clopen([c, c]).cylinders
        assert leaf_mask(one.cylinders, WDEPTH) == leaf_mask([c], WDEPTH)
        assert one.measure() == Dyadic(1, len(c))

    @pytest.mark.parametrize("c", ["", "0" * 4096, "1" * 4096, "01" * 2048, "1" + "0" * 4095],
                             ids=["empty", "zeros4096", "ones4096", "alternating4096",
                                  "one_zeros4096"])
    def test_one_cylinder_at_the_ends(self, c):
        one = Clopen([c])
        assert one == Clopen([c, c])
        assert one.cylinders == (c,) and one.max_length() == len(c)
        assert one.measure() == Dyadic(1, len(c))
        assert one.covers(c) and not (c and one.covers(c[:-1]))
        # the oracle at depth 10 sees the cylinder's first 10 bits, or all
        # of the space when it is empty
        head = Clopen([c[:WDEPTH]])
        assert one.is_subset_of(head) and one.intersect(head) == one
        assert leaf_mask(head.cylinders, WDEPTH) == leaf_mask([c[:WDEPTH]], WDEPTH)
        if not c:
            assert leaf_mask(one.cylinders, WDEPTH) == (1 << (1 << WDEPTH)) - 1

    @settings(max_examples=200)
    @given(equal_depth_st)
    def test_algebra_at_equal_depths(self, pair):
        sa, sb = pair
        assume(Clopen(sa).max_length() == Clopen(sb).max_length())
        _check_algebra(sa, sb)

    @settings(max_examples=200)
    @given(wide_strings_st, wide_strings_st)
    def test_algebra_at_unequal_depths(self, sa, sb):
        assume(Clopen(sa).max_length() != Clopen(sb).max_length())
        _check_algebra(sa, sb)
