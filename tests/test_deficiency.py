import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorlab.core import Clopen
from cantorlab.deficiency import (
    CoTree,
    Stream,
    _inside,
    member_at_stage,
    prepend,
    rd_at_stage,
)
from cantorlab.enumeration import Budgets, Enumeration, MLTest
from cantorlab.realizers import Emitter
from conftest import (
    eval_table,
    leaf_mask,
    starts_with,
    stream_bit,
    string_alive,
    string_inside,
)


def stream_of(bits8: str) -> Stream:
    return Stream(f"s{bits8}", bits8, "01")


class TestStream:
    def test_prefix_and_bit(self):
        x = Stream("x", "001", "10")
        assert x.prefix(7) == "0011010"
        assert [stream_bit(x, k) for k in range(5)] == list("00110")

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
        if not any(starts_with(x, c) for stage, c in comp.schedule if stage <= s):
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


# ---------------------------------------------------------------------------
# integer leaves against the string path
# ---------------------------------------------------------------------------

streams = st.builds(Stream, st.just("x"), st.text("01", max_size=80),
                    st.text("01", min_size=1, max_size=9))


@st.composite
def near(draw, x: Stream, most: int = 70) -> str:
    """A string of 0..``most`` bits: a prefix of ``x``, one with its last bit
    flipped, one padded with zeros, or random bits, so that views both hold
    and miss ``x`` and a shorter node can start inside a deeper cylinder."""
    k = draw(st.integers(0, most))
    kind = draw(st.sampled_from(("prefix", "flip", "zeros", "random")))
    if kind == "random":
        return draw(st.text("01", min_size=k, max_size=k))
    if kind == "zeros":
        return x.prefix(j := draw(st.integers(0, k))) + "0" * (k - j)
    p = x.prefix(k)
    return p[:-1] + "10"[int(p[-1])] if kind == "flip" and p else p


@settings(max_examples=300, deadline=None)
@given(x=streams, data=st.data())
def test_integer_leaves_match_the_string_path(x, data):
    """``_inside``, ``member_at_stage``, ``rd_at_stage``, ``CoTree.alive`` (on
    a node string and on its integer), ``carries`` and the committed-output
    check answer as the string path does: pads of up to 80 bits, periods of
    1 to 9, views of depth 0 to 70 (deeper than the 64-bit head) among them
    the empty set and the whole space."""
    comps = data.draw(st.lists(st.lists(st.tuples(st.integers(0, 3), near(x)), max_size=3),
                               min_size=1, max_size=4))
    comps = data.draw(st.permutations(comps + [[], [(0, "")]]))
    t = MLTest([Enumeration(c) for c in comps], check=False)
    depth = data.draw(st.integers(0, 72))
    dead = data.draw(st.sampled_from(comps))
    tree = CoTree(Enumeration(dead), depth)
    # nodes on x's path, near it, and prefixes of the dead cylinders
    nodes = [x.prefix(min(depth, 70)), data.draw(near(x, depth))] + [
        c[:data.draw(st.integers(0, min(len(c), depth)))] for _, c in dead]
    em = Emitter("e", x, Budgets(2, 8, 8, 4), 0)
    em.base, em.cursor = data.draw(near(x, 80)), data.draw(st.integers(0, 80))
    for s in range(5):
        views = [t.stage_view(i, s) for i in range(t.max_index + 1)]
        members = [string_inside(x, v) for v in views]
        assert [_inside(x, v) for v in views] == members
        assert [member_at_stage(x, t, i, s) for i in range(len(views))] == members
        assert rd_at_stage(x, t, s) == (members + [False]).index(False)
        assert [em._committed_in(v) for v in views] == [v.covers(em.committed) for v in views]
        for node in nodes:
            want = string_alive(tree, node, s)
            assert tree.alive(node, s) == tree.alive(int("1" + node, 2), s) == want
        assert tree.carries(x, s) == string_alive(tree, x.prefix(depth), s)
    deeper = x.prefix(depth + 1)
    for node in (deeper, int("1" + deeper, 2)):
        with pytest.raises(ValueError, match=f"^node {deeper!r} deeper than tree depth {depth}$"):
            tree.alive(node, 0)


def test_views_past_the_head():
    """Views deeper than 64 bits read the prefix itself: a stream that
    leaves a 70-bit cylinder only at bit 69 is outside it, and a 65-bit
    committed output is checked on all 65 bits."""
    x = Stream("x", "0" * 69 + "1", "0")
    assert not _inside(x, Clopen(["0" * 70])) and _inside(x, Clopen(["0" * 69 + "1"]))
    em = Emitter("e", Stream("z", "", "0"), Budgets(2, 8, 8, 4), 0)
    em.base, em.cursor = "0" * 64, 1
    assert em._committed_in(Clopen(["0" * 65])) and not em._committed_in(Clopen(["0" * 64 + "1"]))
