import copy
import hashlib
import json
import random

import pytest
from hypothesis import example, given, strategies as st

from cantorlab import bundled_scenario
from cantorlab.cli import _budget_sweep, main, produce
from cantorlab.constructions import ConstructionTrace
from cantorlab.core import BudgetError, Clopen, Dyadic, ScenarioError, SearchExhaustedError
from cantorlab.enumeration import (
    Budgets,
    Enumeration,
    MLTest,
    descending_chain,
    effective_top,
    even_shift,
    index_shift,
    load_scenario,
    replace_component,
    shift_union,
    stratify,
    universal_sum,
    validate_scenario,
)
from cantorlab.deficiency import prepend, rd_at_stage
from conftest import leaf_mask, starts_with


schedule_st = st.lists(
    st.tuples(st.integers(0, 20), st.text(alphabet="01", max_size=6)),
    max_size=10)

ODEPTH = 10


@st.composite
def nested_schedule_st(draw):
    """Schedules over stages 0..7 of cylinders 0..10 long, with prefixes of
    drawn entries (a whole-string prefix repeats the cylinder) added at
    random stages."""
    sched = draw(st.lists(st.tuples(st.integers(0, 7),
                                    st.text(alphabet="01", max_size=ODEPTH)), max_size=12))
    for _ in range(draw(st.integers(0, 4)) if sched else 0):
        _, c = draw(st.sampled_from(sched))
        sched.append((draw(st.integers(0, 7)), c[:draw(st.integers(0, len(c)))]))
    return sched


class TestEnumeration:
    def test_empty_schedule(self):
        assert Enumeration().stage_view(5) == Clopen()

    @given(schedule_st)
    def test_views_monotone_for_random_schedules(self, schedule):
        e = Enumeration(schedule)
        prev = Clopen()
        prev_m = Dyadic.zero()
        for s in range(22):
            view = e.stage_view(s)
            assert prev.is_subset_of(view)
            assert prev_m <= e.measure_at(s)
            prev, prev_m = view, e.measure_at(s)

    @given(nested_schedule_st())
    def test_views_against_leaf_oracle(self, schedule):
        e = Enumeration(schedule)
        assert list(e.schedule) == sorted(set(schedule), key=lambda p: (p[0], len(p[1]), p[1]))
        last = max((t for t, _ in schedule), default=0)
        for s in range(last + 2):
            so_far = [c for t, c in schedule if t <= s]
            view = e.stage_view(s)
            assert view == Clopen(so_far + so_far)  # never one string: the general path
            assert leaf_mask(view.cylinders, ODEPTH) == leaf_mask(so_far, ODEPTH)
            assert e.measure_at(s) == view.measure() == Dyadic(
                bin(leaf_mask(so_far, ODEPTH)).count("1"), ODEPTH)
            assert [t for t in e.change_stages() if t <= s] == sorted(
                {t for t, _ in schedule if t <= s})

    @given(nested_schedule_st(), st.booleans())
    def test_final_measure_against_leaf_oracle(self, schedule, views_first):
        e = Enumeration(schedule)
        if views_first:
            e.change_stages()
        final = e.final_measure()
        assert (e._stages is None) is not views_first  # the span pass builds no view
        last = max((t for t, _ in schedule), default=0)
        assert final == e.stage_view(last).measure() == Dyadic(
            bin(leaf_mask([c for _, c in schedule], ODEPTH)).count("1"), ODEPTH)

    @given(nested_schedule_st(), st.booleans())
    def test_measure_at_in_both_read_orders(self, schedule, views_first):
        e = Enumeration(schedule)
        last = max((t for t, _ in schedule), default=0)
        stages = range(last + 2)
        if views_first:
            e.stage_view(0)
        else:  # the last stages first, so they are read before any view is built
            stages = stages[::-1]
            assert e.measure_at(last + 1) == e.measure_at(last) == e.final_measure()
            assert e._stages is None
        for s in stages:
            so_far = [c for t, c in schedule if t <= s]
            assert e.measure_at(s) == e.stage_view(s).measure() == Dyadic(
                bin(leaf_mask(so_far, ODEPTH)).count("1"), ODEPTH)

    @pytest.mark.parametrize("stage", [1.7, 1.0, "2", True, False, None, -1])
    def test_stage_must_be_a_non_negative_int(self, stage):
        with pytest.raises(ValueError, match="schedule stage must be a non-negative integer"):
            Enumeration([(0, "1"), (stage, "0")])

    def test_not_yet_enumerated(self):
        e = Enumeration([(3, "010")])
        assert e.stage_view(2) == Clopen()
        assert e.stage_view(3) == Clopen(["010"])

    def test_sibling_merge_in_view(self):
        e = Enumeration([(3, "010"), (5, "011")])
        assert e.stage_view(5) == Clopen(["01"])

    def test_monotone_views(self):
        e = Enumeration([(0, "111"), (4, "0011"), (2, "010"), (9, "0010")])
        prev = Clopen()
        for s in range(12):
            view = e.stage_view(s)
            assert prev.is_subset_of(view)
            prev = view

    def test_measure_at_matches_view(self):
        e = Enumeration([(1, "00"), (7, "01")])
        for s in (0, 1, 6, 7, 9):
            assert e.measure_at(s) == e.stage_view(s).measure()
        for e in (e, Enumeration()):
            assert e.measure_at(-1) == e.measure_at(-8) == Dyadic.zero()

    def test_building_views_measures_none(self, monkeypatch):
        """Views are built for their clopens only: a measure is read when
        asked for, so building a test's views measures none.  Building its
        chain measures, for the chain's budget check, the last view of each
        non-empty component and nothing else, and reads no view's cylinders."""
        calls, read = [], []
        measure, cylinders = Clopen.measure, Clopen.cylinders.fget
        monkeypatch.setattr(Clopen, "measure", lambda v: calls.append(v) or measure(v))
        u = universal_sum(load_scenario(bundled_scenario("main")))
        assert all(c.change_stages() for c in u.components[:3]) and calls == []
        monkeypatch.setattr(Clopen, "cylinders",
                            property(lambda v: read.append(v) or cylinders(v)))
        chain = descending_chain(u)
        assert chain.component(2).change_stages() and read == []
        lasts = [c._views[-1] for c in chain.components if c._views]
        assert len(lasts) >= 3 and [*map(id, calls)] == [*map(id, lasts)]


class TestMLTest:
    def test_budget_enforced(self):
        with pytest.raises(BudgetError):
            MLTest([Enumeration([(0, "")]), Enumeration([(0, "")])])

    def test_replace_component_identity(self, surrogate):
        same = replace_component(surrogate, 0, surrogate.component(0))
        assert same.component(0) == surrogate.component(0)

    def test_replace_component_budget_violation(self, surrogate):
        fat = Enumeration([(0, "0"), (0, "1")])
        with pytest.raises(BudgetError):
            replace_component(surrogate, 2, fat)


class TestUniversalSum:
    def test_single_test_shift(self, main_scenario, surrogate):
        v = main_scenario.tests[0]
        for n in range(surrogate.max_index):
            assert surrogate.component(n) == v.component(n + 1)
            # a one-term component is the registered one, views and all
            assert main_scenario.universal.component(n) is v.component(n + 1)
        assert surrogate.component(surrogate.max_index).schedule == ()

    def test_two_tests_union_oracle(self, main_scenario):
        raw = dict(main_scenario.raw)
        raw["tests"] = [raw["tests"][0], raw["tests"][0]]
        sc2 = load_scenario(raw)
        u2 = universal_sum(sc2)
        v = sc2.tests[0]
        big_s = sc2.budgets.max_stage
        for s in (0, 3, big_s):
            want = v.stage_view(1, s).union(v.stage_view(2, s))
            assert u2.stage_view(0, s) == want

    def test_budget_bound(self, surrogate, main_scenario):
        for n in range(surrogate.max_index + 1):
            assert surrogate.component(n).final_measure() <= Dyadic.exp2(-n)

    def test_capture_invariant(self, main_scenario, surrogate):
        # every registered component i+e+1 stays inside component i at all stages
        for e, v in enumerate(main_scenario.tests):
            for i in range(surrogate.max_index + 1):
                j = i + e + 1
                if j > surrogate.max_index:
                    continue
                for s in v.component(j).change_stages():
                    assert v.stage_view(j, s).is_subset_of(surrogate.stage_view(i, s))


class TestDescendingChain:
    def test_component_zero_identity(self, surrogate, chain):
        stages = set(surrogate.component(0).change_stages()) | {0, 7}
        for s in stages:
            assert chain.stage_view(0, s) == surrogate.stage_view(0, s)

    def test_nested_stagewise(self, chain):
        assert chain.nested
        assert chain.check_nested_stagewise()

    def test_views_are_intersections(self, surrogate, chain):
        from cantorlab.core import intersect_all
        for n in (1, 3, 5):
            for s in (0, 2, 6, 40):
                want = intersect_all(surrogate.stage_view(i, s) for i in range(n + 1))
                assert chain.stage_view(n, s) == want


def _assert_chain_as_rebuilt(u, chain, big_s):
    """Each chain component against ``Enumeration`` rebuilt from its
    strings, and its schedule against the meets' cylinders at every change
    stage of components 0..n where the meet grew."""
    from cantorlab.core import intersect_all
    changes: set[int] = set()
    for n, comp in enumerate(chain.components):
        changes.update(u.component(n).change_stages())
        want, prev = [], Clopen()
        for s in sorted(changes):
            meet = intersect_all(u.stage_view(i, s) for i in range(n + 1))
            if meet != prev:
                want.extend((s, c) for c in meet.cylinders)
                prev = meet
        rebuilt = Enumeration(comp.schedule)
        assert comp.schedule == rebuilt.schedule == Enumeration(want).schedule
        assert comp.change_stages() == rebuilt.change_stages()
        for s in (*rebuilt.change_stages(), big_s):
            assert comp.stage_view(s) == rebuilt.stage_view(s)
            assert comp.measure_at(s) == rebuilt.measure_at(s)
    assert chain.check_nested_stagewise()


class TestChainFromViews:
    @pytest.mark.parametrize("name", ["main", "deep"])
    def test_scenario_chain(self, request, name):
        sc = request.getfixturevalue(f"{name}_scenario")
        _assert_chain_as_rebuilt(sc.universal, sc.chain, sc.budgets.max_stage)

    def test_conftest_chain(self, surrogate, chain, main_scenario):
        _assert_chain_as_rebuilt(surrogate, chain, main_scenario.budgets.max_stage)

    @pytest.mark.parametrize("seed", range(6))
    def test_shifted_worlds(self, main_scenario, seed):
        r = random.Random(seed)
        raw = copy.deepcopy(main_scenario.raw)
        for entries in raw["tests"]:
            for entry in entries:
                entry["stage"] = max(0, entry["stage"] + r.randint(-2, 6))
        sc = load_scenario(raw)
        _assert_chain_as_rebuilt(sc.universal, sc.chain, sc.budgets.max_stage)

    def test_meet_empty_before_it_grows(self):
        # V_1 is empty at stages 0 and 2 and first holds "01" at stage 5
        u = MLTest([Enumeration([(0, "0")]),
                    Enumeration([(2, "1"), (5, "01")])], check=False)
        chain = descending_chain(u)
        assert chain.component(1).schedule == ((5, "01"),)
        _assert_chain_as_rebuilt(u, chain, 8)


def _chain_by_meets(u: MLTest) -> MLTest:
    """The reference construction of ``descending_chain``: V_n keeps the
    meet views of components 0..n at every change stage of those
    components where the meet grew."""
    comps: list[Enumeration] = []
    changes: set[int] = set()
    for n in range(u.max_index + 1):
        changes.update(u.component(n).change_stages())
        stages: list[int] = []
        views: list[Clopen] = []
        for s in sorted(changes):
            view = u.meet_view(n, s)
            if view and (not views or view != views[-1]):
                stages.append(s)
                views.append(view)
        comps.append(Enumeration._of_views(stages, views))
    return MLTest(comps, nested=True, check=False)


short_schedule_st = st.lists(
    st.tuples(st.integers(0, 7), st.text(alphabet="01", max_size=2)), max_size=6)


class TestChainAgainstMeets:
    @given(st.lists(short_schedule_st, min_size=1, max_size=6))
    def test_same_components_as_the_meets(self, schedules):
        # component i lies below 0^i, so it keeps its budget 2^-i
        comps = [[(t, "0" * i + c) for t, c in sched] for i, sched in enumerate(schedules)]
        want = _chain_by_meets(MLTest([Enumeration(c) for c in comps]))
        got = descending_chain(MLTest([Enumeration(c) for c in comps]))
        for w, g in zip(want.components, got.components, strict=True):
            assert g.schedule == w.schedule
            assert g.change_stages() == w.change_stages()
            for s in range(10):
                assert g.stage_view(s) == w.stage_view(s)
                assert g.measure_at(s) == w.measure_at(s)
            assert g.final_measure() == w.final_measure()

    @given(st.lists(short_schedule_st, min_size=1, max_size=6),
           st.lists(st.tuples(st.integers(0, 5), st.integers(0, 9)), max_size=8),
           st.lists(st.tuples(st.integers(0, 5), st.integers(0, 9)), max_size=8))
    def test_meet_memo_shared_with_the_chain(self, schedules, before, after):
        """The chain reads and fills ``u``'s meet memo: meets drawn before
        and after it, every memo entry and every chain component match the
        oracle's."""
        from cantorlab.core import intersect_all
        comps = [[(t, "0" * i + c) for t, c in sched] for i, sched in enumerate(schedules)]
        u = MLTest([Enumeration(c) for c in comps])
        want = _chain_by_meets(MLTest([Enumeration(c) for c in comps]))

        def meet(n, s):
            return intersect_all(u.stage_view(i, s) for i in range(n + 1))
        for n, s in before:
            assert u.meet_view(min(n, u.max_index), s) == meet(min(n, u.max_index), s)
        got = descending_chain(u)
        for n, s in after:
            assert u.meet_view(min(n, u.max_index), s) == meet(min(n, u.max_index), s)
        changes = u.change_stages()
        for (n, at), view in u._meets.items():  # a stage of the key's interval
            assert view == meet(n, changes[at - 1] if at else 0)
        for n, (w, g) in enumerate(zip(want.components, got.components, strict=True)):
            assert g.schedule == w.schedule
            for s in range(10):
                assert g.stage_view(s) == w.stage_view(s) == meet(n, s)
            assert g.final_measure() == w.final_measure()

    def test_sweep_builds_no_views_of_copied_tests(self):
        sc = load_scenario(bundled_scenario("main"))
        validate_scenario(sc)
        _budget_sweep(ConstructionTrace(), sc.derived, sc.budgets, 1)
        for name in ("shift_union", "stratify"):
            assert all(c._stages is None for c in sc.derived[name].components)

    def test_replay_and_sweep_derive_no_chain_schedule(self):
        """lemma31 does not read the chain, and the sweep reads its budgets
        from its views: no chain component's string schedule is derived."""
        sc = load_scenario(bundled_scenario("main"))
        produce(sc, "lemma31", None, None, 1)
        _budget_sweep(ConstructionTrace(), sc.derived, sc.budgets, 1)
        assert all(c._schedule is None for c in sc.chain.components)
        assert sc.chain.component(1).schedule  # derived when read


class TestMeetView:
    @pytest.mark.parametrize("which", ["universal", "chain"])
    def test_matches_intersect_all_at_every_stage(self, surrogate, chain,
                                                  main_scenario, which):
        from cantorlab.core import intersect_all
        t = surrogate if which == "universal" else chain
        top = effective_top(t)
        for s in range(main_scenario.budgets.max_stage + 1):
            views = [t.stage_view(i, s) for i in range(top + 1)]
            for n in range(top + 1):
                assert t.meet_view(n, s) == intersect_all(views[:n + 1])

    def test_shared_within_a_change_interval(self, surrogate):
        changes = surrogate.change_stages()
        lo, hi = changes[-1], changes[-1] + 100
        assert surrogate.meet_view(3, lo) is surrogate.meet_view(3, hi)

    def test_rejects_negative_stage(self, surrogate):
        with pytest.raises(ValueError):
            surrogate.meet_view(0, -1)


class TestEvenShift:
    def test_reindexing(self, chain):
        w = even_shift(chain)
        for n in range(w.max_index + 1):
            assert w.component(n) == chain.component(2 * n + 1)

    def test_error_when_too_short(self):
        single = MLTest([Enumeration([(0, "0")])])
        with pytest.raises(BudgetError):
            even_shift(single)

    def test_gap_argument_sweep(self, surrogate, chain, main_scenario):
        # wherever the chain strictly shrinks across an odd index, no earlier
        # component fits inside the shifted test
        big_s = main_scenario.budgets.max_stage
        w = even_shift(chain)
        strict = [n for n in range(w.max_index)
                  if chain.component(2 * n + 1).final_measure()
                  < chain.component(2 * n).final_measure()]
        assert strict, "scenario should exhibit a strict drop"
        for c in range(3):
            for n in strict:
                if n >= c and n + c <= surrogate.max_index:
                    assert not surrogate.stage_view(n + c, big_s).is_subset_of(
                        w.stage_view(n, big_s))


class TestShiftUnion:
    def test_top_component_empty(self, surrogate):
        vp = shift_union(surrogate)
        assert vp.component(vp.max_index).schedule == ()

    def test_handcomputed_unions(self):
        t = MLTest([
            Enumeration([(0, "0")]),
            Enumeration([(1, "10")]),
            Enumeration([(2, "110")]),
        ])
        vp = shift_union(t)
        assert vp.stage_view(0, 2) == Clopen(["10", "110"])
        assert vp.stage_view(1, 2) == Clopen(["110"])
        assert vp.stage_view(2, 2) == Clopen()

    def test_escape_property(self, surrogate, main_scenario):
        vp = shift_union(surrogate)
        big_s = main_scenario.budgets.max_stage
        for name in main_scenario.random_streams:
            x = main_scenario.stream(name)
            for i in range(vp.max_index + 1):
                view = vp.stage_view(i, big_s)
                if not any(starts_with(x, c) for c in view.cylinders):
                    for j in range(i + 1, surrogate.max_index + 1):
                        inner = surrogate.stage_view(j, big_s)
                        assert not any(starts_with(x, c) for c in inner.cylinders)
                    break

    def test_oracle_equality(self, surrogate):
        vp = shift_union(surrogate)
        stages = sorted(set(surrogate.change_stages()) | {0, 80})
        for i in range(vp.max_index + 1):
            for s in stages:
                want = Clopen()
                for j in range(i + 1, surrogate.max_index + 1):
                    want = want.union(surrogate.stage_view(j, s))
                assert vp.stage_view(i, s) == want


class TestStratify:
    def test_empty_source_component(self, main_scenario):
        b = main_scenario.budgets
        t = MLTest([Enumeration([(0, "000000")]), Enumeration([])])
        st = stratify(t, b)
        assert st.stage_view(0, b.max_stage) == Clopen(["111"])

    def test_measure_law(self, surrogate, main_scenario):
        b = main_scenario.budgets
        st = stratify(surrogate, b)
        for i in range(st.max_index + 1):
            m = st.component(i).final_measure()
            bound = Dyadic.exp2(-(i + 3)) + surrogate.component(i + 1).final_measure()
            assert m <= bound
            assert m <= Dyadic.exp2(-i)

    def test_deficiency_shift_sampled(self, surrogate, main_scenario):
        b = main_scenario.budgets
        st = stratify(surrogate, b)
        big_s = b.max_stage
        pairs = 0
        for name in main_scenario.random_streams:
            x = main_scenario.stream(name)
            d = rd_at_stage(x, surrogate, big_s)
            if d < 1:
                continue
            for layer in range(0, min(d + 2, b.max_layers + 1)):
                shifted = prepend("1" * layer + "0", x)
                got = rd_at_stage(shifted, st, big_s)
                assert got == d - 1, (name, layer)
                pairs += 1
        assert pairs >= 15


def _shift_union_by_loops(v: MLTest) -> MLTest:
    """The reference construction of ``shift_union``: component i collects
    the schedules of every component above i."""
    comps = []
    for i in range(v.max_index + 1):
        sched: list[tuple[int, str]] = []
        for j in range(i + 1, v.max_index + 1):
            sched.extend(v.component(j).schedule)
        comps.append(Enumeration(sched))
    return MLTest(comps, notes={"union_truncated_at": v.max_index}, check=False)


def _stratify_by_loops(u: MLTest, budgets: Budgets) -> MLTest:
    """The reference construction of ``stratify``: each re-rooted cylinder
    is kept, or skipped and counted, one layer at a time."""
    depth, layers = budgets.max_depth, budgets.max_layers
    comps: list[Enumeration] = []
    skipped = 0
    for i in range(u.max_index):
        sched: list[tuple[int, str]] = [(0, "1" * (i + 3))]
        for s, c in u.component(i + 1).schedule:
            for layer in range(layers + 1):
                moved = "1" * layer + "0" + c
                if len(moved) <= depth:
                    sched.append((s, moved))
                else:
                    skipped += 1
        comps.append(Enumeration(sched))
    return MLTest(comps, notes={"depth_skipped": skipped}, check=False)


def _assert_same_test(got: MLTest, want: MLTest) -> None:
    """The same notes and component schedules, and each final measure
    equal to the measure of the reference's last view."""
    assert got.notes == want.notes
    for g, w in zip(got.components, want.components, strict=True):
        assert g.schedule == w.schedule
        assert g.final_measure() == w.stage_view(w.last_stage()).measure()


@st.composite
def builder_world_st(draw):
    """A test of 2..5 components, component i below 0^i (so within 2^-i),
    over budgets with K in I+2..9 and L in 0..K: small enough that
    stratify skips re-rooted cylinders."""
    n = draw(st.integers(2, 5))
    comps = [[(t, "0" * i + c) for t, c in draw(st.lists(
        st.tuples(st.integers(0, 7), st.text(alphabet="01", max_size=3)), max_size=5))]
        for i in range(n)]
    depth = draw(st.integers(n + 1, 9))
    return comps, Budgets(n - 1, 20, depth, draw(st.integers(0, depth)))


# The combinators trace on ``main`` at K=16, recorded with the loop-built
# shift_union and stratify; stratify skips 28 re-rooted cylinders there.
COMBINATORS_K16 = (14156, "87dabaefc35184694b2bf51631b0b262d0509061a73d03c70b34e593fec9d18c")


class TestBuildersAgainstLoops:
    @given(builder_world_st())
    @example(([[(0, "1")], [(1, "01"), (2, "00")], [(3, "00")]], Budgets(2, 20, 4, 4)))
    def test_same_tests_as_the_loops(self, world):
        comps, budgets = world
        u = MLTest([Enumeration(c) for c in comps])
        _assert_same_test(shift_union(u), _shift_union_by_loops(u))
        _assert_same_test(stratify(u, budgets), _stratify_by_loops(u, budgets))

    def test_example_skips(self):
        # K=4: each of the three 2-bit cylinders of components 1 and 2 fits
        # below 1^l 0 for l <= 1 only, so 3 of its 5 layers are skipped
        u = MLTest([Enumeration([(0, "1")]), Enumeration([(1, "01"), (2, "00")]),
                    Enumeration([(3, "00")])])
        strat = stratify(u, Budgets(2, 20, 4, 4))
        assert strat.notes == {"depth_skipped": 9}
        assert strat.component(0).schedule == (
            (0, "111"), (1, "001"), (1, "1001"), (2, "000"), (2, "1000"))

    @pytest.mark.parametrize("depth, skipped", [(16, 28), (17, 21), (20, 6), (64, 0)])
    def test_main_under_depth_overrides(self, depth, skipped):
        sc = load_scenario(bundled_scenario("main"), {"K": depth})
        u = sc.universal
        _assert_same_test(shift_union(u), _shift_union_by_loops(u))
        _assert_same_test(sc.derived["stratify"], _stratify_by_loops(u, sc.budgets))
        assert sc.derived["stratify"].notes == {"depth_skipped": skipped}

    def test_combinators_trace_at_depth_16(self, tmp_path, capsys):
        path = tmp_path / "combinators.jsonl"
        assert main(["run", "--scenario", str(bundled_scenario("main")), "--select",
                     "combinators", "--depth", "16", "--trace", str(path)]) == 0
        data = path.read_bytes()
        assert b'"depth_skipped":28' in data
        assert (len(data), hashlib.sha256(data).hexdigest()) == COMBINATORS_K16


class TestBudgetsOnIntegers:
    def test_no_dyadic_comparison(self, monkeypatch):
        """Building the tests of ``main`` and their derived family, and
        sweeping the family's budgets, compare no two ``Dyadic`` values:
        each budget is checked by ``Dyadic.within``."""
        calls = []
        for op in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__"):
            compare = getattr(Dyadic, op)
            monkeypatch.setattr(Dyadic, op, lambda a, b, op=op, compare=compare: (
                calls.append(op) or compare(a, b)))
        sc = load_scenario(bundled_scenario("main"))
        rebuilt = [MLTest(t.components, notes=t.notes) for t in sc.derived.values()]
        assert len(rebuilt) == 5
        _budget_sweep(ConstructionTrace(), sc.derived, sc.budgets, 1)
        with pytest.raises(BudgetError, match=r"^component 1 has measure 3/2\^2 exceeding 2\^-1$"):
            MLTest([Enumeration(), Enumeration([(0, "0"), (0, "10")])])
        assert calls == []
        assert Dyadic(1, 1) <= Dyadic.one() and calls == ["__le__"]  # the counter counts


class TestIndexShift:
    def test_shift(self, surrogate):
        t = index_shift(surrogate, 2)
        assert t.component(0) == surrogate.component(2)
        assert t.max_index == surrogate.max_index - 2


def _nested_at_every_change(t: MLTest) -> bool:
    """The reference ``check_nested_stagewise``: every pair (i, i+1) at
    every change stage of the whole test."""
    stages = t.change_stages() or (0,)
    for i in range(t.max_index):
        for s in stages:
            if not t.stage_view(i + 1, s).is_subset_of(t.stage_view(i, s)):
                return False
    return True


class TestNestedAgainstEveryChange:
    @given(st.lists(short_schedule_st, min_size=1, max_size=6), st.booleans())
    @example([[(3, "1")], [(3, "1"), (5, "")]], False)  # "01" outside "1" at 3
    @example([[(3, "1")], [(3, "1"), (5, "")]], True)
    @example([[(0, "0")], [(1, "0")]], False)
    def test_same_answer(self, schedules, chained):
        """Drawn tests, below 0^i as in ``TestChainAgainstMeets``, or their
        chains, which are nested."""
        t = MLTest([Enumeration([(s, "0" * i + c) for s, c in sched])
                    for i, sched in enumerate(schedules)])
        if chained:
            t = descending_chain(t)
        assert t.check_nested_stagewise() is _nested_at_every_change(t)
        assert t.check_nested_stagewise() or not chained


class TestScenario:
    def test_effective_top(self, surrogate):
        assert effective_top(surrogate) == surrogate.max_index - 1

    def test_validation_reads_each_deficiency_once(self, monkeypatch):
        """``main`` declares 5 random streams; ``alt``, ``x1`` and ``x2``
        are also parallel family members, read once all the same."""
        import cantorlab.enumeration as enumeration
        calls = []
        monkeypatch.setattr(enumeration, "rd_at_stage",
                            lambda x, t, s: calls.append(x.name) or rd_at_stage(x, t, s))
        sc = load_scenario(bundled_scenario("main"))
        validate_scenario(sc)
        assert sorted(calls) == sorted(sc.random_streams) and len(calls) == 5
        assert {"alt", "x1", "x2"} <= set(sc.parallel_family) <= set(calls)

    def test_validation_passes(self, main_scenario):
        validate_scenario(main_scenario)

    def test_caps(self, main_scenario):
        raw = dict(main_scenario.raw)
        raw["budgets"] = dict(raw["budgets"], K=65)
        with pytest.raises(ScenarioError):
            validate_scenario(load_scenario(raw))

    def test_missing_reservoir(self, main_scenario):
        raw = dict(main_scenario.raw)
        raw["tests"] = [[e for e in raw["tests"][0] if set(e["cylinder"]) != {"1"}]]
        raw["streams"] = [s for s in raw["streams"] if not s.get("random")]
        raw["parallel_family"] = []
        with pytest.raises(SearchExhaustedError):
            validate_scenario(load_scenario(raw))

    def test_bad_random_declaration(self, main_scenario):
        raw = dict(main_scenario.raw)
        raw["streams"] = raw["streams"] + [
            {"name": "bad", "pad": "", "period": "1", "random": True}]
        with pytest.raises(ScenarioError):
            validate_scenario(load_scenario(raw))

    @pytest.mark.parametrize("where", ["tests", "trees", "opens"])
    @pytest.mark.parametrize("cylinder, stage", [("012", 0), (5, 0), ("01", True),
                                                 ("01", 1.5)])
    def test_bad_schedule_entry(self, main_scenario, where, cylinder, stage):
        raw = copy.deepcopy(main_scenario.raw)
        entry = {"component": 1, "stage": stage, "cylinder": cylinder}
        if where == "tests":
            raw["tests"][0].append(entry)
            path, stages = f"tests[0][{len(raw['tests'][0]) - 1}]", "in 0..512"
        elif where == "trees":
            name, entries = next(iter(raw["trees"].items()))
            entries.append(entry)
            path, stages = f"trees.{name}[{len(entries) - 1}]", ">= 0"
        else:
            name, family = next(iter(raw["opens"].items()))
            family[0].append(entry)
            path, stages = f"opens.{name}[0][{len(family[0]) - 1}]", ">= 0"
        message = (f"{path}.cylinder must be a binary string of at most 64 bits, got {cylinder!r}"
                   if stage == 0 else f"{path}.stage must be an integer {stages}, got {stage!r}")
        with pytest.raises(ScenarioError) as exc:
            load_scenario(raw)
        assert str(exc.value) == message

    @pytest.mark.parametrize("past_top", [False, True])
    @pytest.mark.parametrize("cylinder", ["01", "012", 5])
    def test_test_component_outside_budget(self, main_scenario, past_top, cylinder):
        raw = copy.deepcopy(main_scenario.raw)
        big_i = main_scenario.budgets.max_index
        component = big_i + 1 if past_top else -1
        raw["tests"][0].append({"component": component, "stage": 0, "cylinder": cylinder})
        with pytest.raises(ScenarioError) as exc:
            load_scenario(raw)
        assert str(exc.value) == (f"tests[0][{len(raw['tests'][0]) - 1}].component must be "
                                  f"an integer in 0..{big_i}, got {component}")

    @pytest.mark.parametrize("edit, message", [
        (lambda r: r["partial_functions"].update({"00": [{"arg": 0, "stage": 1, "value": 99}]}),
         "partial_functions keys must be indices in plain decimal, got '00'"),
        (lambda r: r["partial_functions"].update({" 1 ": []}),
         "partial_functions keys must be indices in plain decimal, got ' 1 '"),
        (lambda r: r["functionals"].update({"+1": []}),
         "functionals keys must be indices in plain decimal, got '+1'"),
        (lambda r: r["functionals"].update({"-3": []}),
         "functionals keys must be indices in plain decimal, got '-3'"),
        (lambda r: r["partial_functions"]["0"].append(dict(r["partial_functions"]["0"][0])),
         "partial_functions.0[4].arg 0 appears twice"),
        (lambda r: r["functionals"]["1"].append(dict(r["functionals"]["1"][0], value=7)),
         "functionals.1[6] (prefix, advice) ('000', 1) appears twice"),
        (lambda r: r["halting"].append(dict(r["halting"][0], stage=0)),
         "halting[2].e 1 appears twice"),
        (lambda r: r["streams"].append(next(s for s in r["streams"] if s.get("random"))),
         "streams[6].name 'alt' appears twice"),
    ], ids=["zero_padded", "spaced", "plus_sign", "negative", "partial_arg",
            "functional_entry", "halting_e", "stream_name"])
    def test_repeated_or_non_canonical_key(self, main_scenario, edit, message):
        raw = copy.deepcopy(main_scenario.raw)
        edit(raw)
        with pytest.raises(ScenarioError) as exc:
            load_scenario(raw)
        assert str(exc.value) == message

    @pytest.mark.parametrize("edit, message", [
        (lambda r: r["streams"][5].update(random="no"),
         "streams[5].random must be a boolean, got 'no'"),
        (lambda r: r["streams"][0].update(random=1),
         "streams[0].random must be a boolean, got 1"),
        (lambda r: r.update(parallel_family="alt"),
         "parallel_family must be a list, got 'alt'"),
        (lambda r: r.update(parallel_family=["alt", 1]),
         "parallel_family[1] must be a string, got 1"),
    ], ids=["random_string", "random_int", "family_string", "family_member"])
    def test_typed_declarations(self, main_scenario, edit, message, tmp_path, capsys):
        """``random`` is a boolean and ``parallel_family`` a list of
        strings: any other value exits 2 with the field's path, not a
        verdict on its truthiness or on its characters."""
        raw = copy.deepcopy(main_scenario.raw)
        edit(raw)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--scenario", str(path), "--select", "lemma31"]) == 2
        assert capsys.readouterr().err == f"error: validation: {message}\n"

    def test_deep_scenario_validates(self, deep_scenario):
        assert deep_scenario.budgets.max_stage == 10_000
