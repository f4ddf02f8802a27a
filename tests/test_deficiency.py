import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorlab.deficiency import (
    CoTree,
    Stream,
    eval_table,
    member_at_stage,
    prepend,
    rd_at_stage,
)
from cantorlab.enumeration import Enumeration, MLTest
from conftest import leaf_mask


def stream_of(bits8: str) -> Stream:
    return Stream(f"s{bits8}", bits8, "01")


class TestStream:
    def test_prefix_and_bit(self):
        x = Stream("x", "001", "10")
        assert x.prefix(7) == "0011010"
        assert [x.bit(k) for k in range(5)] == list("00110")

    def test_prepend(self):
        x = Stream("x", "01", "1")
        y = prepend("110", x)
        assert y.prefix(6) == "110011"

    def test_period_required(self):
        with pytest.raises(ValueError):
            Stream("bad", "01", "")


class TestMembership:
    def test_empty_component(self):
        t = MLTest([Enumeration([])])
        assert not member_at_stage(Stream("x", "", "0"), t, 0, 3)

    def test_prefix_hit(self):
        t = MLTest([Enumeration([(0, "01")])])
        assert member_at_stage(Stream("x", "010", "0"), t, 0, 0)

    def test_exhaustive_depth8_oracle(self):
        cyls = ["0110", "10", "00010101"]
        t = MLTest([Enumeration([(0, c) for c in cyls])], check=False)
        mask = leaf_mask(cyls)
        for k in range(256):
            leaf = format(k, "08b")
            x = Stream(f"leaf{k}", leaf, leaf)  # depth-8 behaviour fixed by pad
            assert member_at_stage(x, t, 0, 0) == bool(mask >> k & 1)


class TestRd:
    def test_all_components_empty(self):
        t = MLTest([Enumeration([]), Enumeration([])])
        assert rd_at_stage(Stream("x", "", "0"), t, 0) == 0

    def test_simple_escape(self):
        t = MLTest([Enumeration([(0, "0")])])
        assert rd_at_stage(Stream("x", "1", "1"), t, 5) == 0

    def test_monotone_in_stage(self, surrogate, main_scenario):
        for name in main_scenario.random_streams:
            x = main_scenario.stream(name)
            prev = -1
            for s in range(0, 40):
                v = rd_at_stage(x, surrogate, s)
                assert v >= prev
                prev = v

    def test_capture_overflow_flagged(self):
        # captured by every component: one past the top index
        t = MLTest([Enumeration([(0, "")])], check=False)
        assert rd_at_stage(Stream("x", "", "0"), t, 0) == t.max_index + 1 == 1
        t = MLTest([Enumeration([(0, "")]), Enumeration([(3, "0")])], check=False)
        assert rd_at_stage(Stream("x", "", "0"), t, 2) == 1
        assert rd_at_stage(Stream("x", "", "0"), t, 3) == 2

    def test_nested_membership_monotone(self, chain, main_scenario):
        big_s = main_scenario.budgets.max_stage
        for name in main_scenario.random_streams:
            x = main_scenario.stream(name)
            member = [member_at_stage(x, chain, i, big_s)
                      for i in range(chain.max_index + 1)]
            for i in range(len(member) - 1):
                if member[i + 1]:
                    assert member[i]


class TestLayerwiseEval:
    """``eval_table``: the oracle the thm41 tests check table votes against."""

    def test_eval_table_shortest_prefix(self):
        x = Stream("x", "0011", "0")
        table = {("00", 5): 9, ("0011", 5): 8}
        assert eval_table(table, x, 5, 8) == 9


class TestCoTree:
    def test_staged_death(self):
        dead = Enumeration([(0, "11"), (5, "000")])
        tree = CoTree(dead, 8)
        assert tree.alive("000", 4)
        assert not tree.alive("000", 5)
        assert not tree.alive("110", 0)
        assert tree.change_stages() == (0, 5)

    def test_path_measure(self):
        dead = Enumeration([(0, "11")])
        tree = CoTree(dead, 8)
        from cantorlab.core import Dyadic
        assert tree.path_measure(0) == Dyadic(3, 2)

    def test_carries(self, main_scenario):
        tree = main_scenario.tree("inA0")
        assert tree.carries(main_scenario.stream("x1"), 0)
        assert not tree.carries(main_scenario.stream("alt"), 0)


# ---------------------------------------------------------------------------
# the invariant the realizers' descents rely on
# ---------------------------------------------------------------------------

short_bits = st.text(alphabet="01", max_size=4)
schedules = st.lists(st.tuples(st.integers(0, 6), short_bits), max_size=4)


def _naive_rd(x: Stream, t: MLTest, s: int) -> int:
    """Least index none of whose cylinders scheduled by stage ``s`` prefixes
    ``x``, scanned straight off the schedules."""
    for i, comp in enumerate(t.components):
        if not any(x.starts_with(c) for stage, c in comp.schedule if stage <= s):
            return i
    return t.max_index + 1


@settings(max_examples=300, deadline=None)
@given(comps=st.lists(schedules, min_size=1, max_size=5), pad=short_bits,
       period=short_bits.filter(bool), s=st.integers(0, 7), ds=st.integers(0, 7))
def test_rd_at_stage_is_a_monotone_descent(comps, pad, period, s, ds):
    """Over any (non-nested, unbudgeted) test: every index below the stage-s
    deficiency is still a member at every later stage s2, the deficiency
    never falls as the stage grows, and it equals a naive scan."""
    t = MLTest([Enumeration(c) for c in comps], check=False)
    x = Stream("x", pad, period)
    s2 = s + ds
    d = rd_at_stage(x, t, s)
    assert all(member_at_stage(x, t, i, s2) for i in range(d))
    assert d <= rd_at_stage(x, t, s2)
    assert d == _naive_rd(x, t, s)
    assert rd_at_stage(x, t, s2) == _naive_rd(x, t, s2)
