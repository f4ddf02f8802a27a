import hashlib
import json

import pytest
from hypothesis import given, strategies as st

from cantorlab.core import BudgetError, Clopen, Dyadic, ScenarioError
from cantorlab.constructions import (
    _ENCODER,
    ConstructionTrace,
    build_lemma31,
    build_lemma63,
    build_thm33,
    build_thm41,
    build_thm410,
    least_divergence_point,
    to_jsonable,
)
from cantorlab.deficiency import CoTree, prepend, rd_at_stage
from cantorlab.enumeration import (
    Enumeration,
    MLTest,
    index_shift,
    replace_component,
)
from conftest import decoded_events


@pytest.fixture(scope="module")
def lemma31_result(surrogate, main_scenario):
    return build_lemma31(surrogate, main_scenario.budgets, sigma_stages=10)


@pytest.fixture(scope="module")
def thm33_result(surrogate, main_scenario):
    return build_thm33(surrogate, main_scenario.partial_functions,
                       main_scenario.budgets)


@pytest.fixture(scope="module")
def thm41_result(chain, main_scenario):
    return build_thm41(chain, main_scenario.functionals, main_scenario.budgets,
                       main_scenario.inert_functionals)


@pytest.fixture(scope="module")
def thm410_result(surrogate, main_scenario):
    v = index_shift(surrogate, 2)
    streams = [main_scenario.stream(n) for n in main_scenario.random_streams]
    return build_thm410(v, main_scenario.halting, main_scenario.budgets, streams)


@pytest.fixture(scope="module")
def lemma63_result(main_scenario):
    return build_lemma63(main_scenario.tree("positive"), main_scenario.budgets)


class TestLemma31:
    def test_marker_lengths(self, lemma31_result):
        for s, sig in enumerate(lemma31_result.sigmas):
            assert len(sig) >= s + 2

    def test_marker_measures(self, lemma31_result):
        for i in range(lemma31_result.v.max_index + 1):
            m = lemma31_result.v.component(i).final_measure()
            assert m <= Dyadic.exp2(-(i + 2))

    def test_non_containment_all_stages(self, lemma31_result, main_scenario):
        big_s = main_scenario.budgets.max_stage
        for i, sig in enumerate(lemma31_result.sigmas):
            marker = Clopen([sig])
            for s in lemma31_result.w0.change_stages() + (big_s,):
                assert not marker.is_subset_of(lemma31_result.w0.stage_view(s))

    def test_strict_intersection_bound(self, lemma31_result, surrogate, main_scenario):
        big_s = main_scenario.budgets.max_stage
        w_final = lemma31_result.w0.stage_view(big_s)
        for sig in lemma31_result.sigmas:
            inside = Clopen([sig]).intersect(w_final).measure()
            bound = surrogate.stage_view(len(sig) + 1, big_s).measure()
            assert inside <= bound < Dyadic.exp2(-len(sig))

    def test_witnesses_pass(self, lemma31_result):
        assert lemma31_result.trace.all_passed()

    def test_deterministic_replay(self, surrogate, main_scenario):
        a = build_lemma31(surrogate, main_scenario.budgets, sigma_stages=10)
        b = build_lemma31(surrogate, main_scenario.budgets, sigma_stages=10)
        assert a.trace.lines() == b.trace.lines()

    def test_surgery_keeps_budget(self, lemma31_result, surrogate):
        surgered = replace_component(surrogate, 0, lemma31_result.w0)
        assert surgered.component(0) == lemma31_result.w0


class TestThm33:
    def test_least_divergence(self, main_scenario):
        tables = main_scenario.partial_functions
        assert least_divergence_point(tables[0]) == 4
        assert least_divergence_point(tables[1]) == 2
        assert least_divergence_point(tables[2]) == 0

    def test_budgets(self, thm33_result):
        for e in range(thm33_result.w.max_index + 1):
            assert thm33_result.w.component(e).final_measure() <= Dyadic.exp2(-e)

    def test_witness_bound_all_stages(self, thm33_result, main_scenario):
        big_s = main_scenario.budgets.max_stage
        for e, n in thm33_result.least_divergence.items():
            v_final = [thm33_result.v.stage_view(j, big_s) for j in range(max(n, 0))]
            for s in range(0, big_s + 1, 16):
                w_view = thm33_result.w.stage_view(e, s)
                for j in range(n):
                    assert not v_final[j].is_subset_of(w_view)

    def test_e_state_monotone(self, thm33_result):
        seen: dict[int, int] = {}
        for ev in decoded_events(thm33_result.trace):
            if ev["action"] == "converge":
                e = ev["payload"]["e"]
                idx = ev["payload"]["e_index"]
                assert idx >= seen.get(e, 0)
                seen[e] = idx

    def test_witnesses_pass(self, thm33_result):
        assert thm33_result.trace.all_passed()

    def test_total_table_lag(self, thm33_result, surrogate, main_scenario):
        # table 0 converges on every probed argument before stalling at 4;
        # during those episodes component 0 swallows the stage view above it
        for ev in decoded_events(thm33_result.trace):
            if ev["action"] == "converge" and ev["payload"]["e"] == 0:
                s = ev["stage"]
                assert surrogate.stage_view(1, s).is_subset_of(
                    thm33_result.w.stage_view(0, s + 1))


class TestThm41:
    def test_triggers(self, thm41_result):
        assert set(thm41_result.triggers) == {0, 1}
        assert thm41_result.triggers[0]["vote"] == 0
        assert thm41_result.triggers[1]["vote"] == 1

    def test_vote_contradiction(self, thm41_result):
        for i, info in thm41_result.triggers.items():
            marker = Clopen([info["sigma"]])
            if info["vote"] == 0:
                assert marker.is_subset_of(thm41_result.in_set)
            else:
                assert marker.intersect(thm41_result.in_set) == Clopen()

    def test_in_out_disjoint_every_stage(self, thm41_result, main_scenario):
        big_s = main_scenario.budgets.max_stage
        events = sorted(
            (info["stage"], info["vote"], info["sigma"])
            for info in thm41_result.triggers.values())
        bound = Dyadic(1, 4)
        for s in range(big_s + 1):
            ins = Clopen([sig for st, v, sig in events if st <= s and v == 0])
            outs = Clopen([sig for st, v, sig in events if st <= s and v == 1])
            assert ins.intersect(outs) == Clopen()
            assert ins.measure() <= bound and outs.measure() <= bound

    def test_witness_escapes_reference(self, thm41_result, main_scenario):
        big_s = main_scenario.budgets.max_stage
        for i, info in thm41_result.triggers.items():
            marker = Clopen([info["sigma"]])
            w_view = thm41_result.w.stage_view(i, big_s)
            assert not marker.is_subset_of(w_view)
            assert marker.intersect(w_view).measure() < marker.measure()

    def test_sigma_measure_bound(self, thm41_result):
        for info in thm41_result.triggers.values():
            assert Dyadic.exp2(-len(info["sigma"])) <= Dyadic.exp2(-(info["stage"] + 5))

    def test_at_most_one_placement_per_stage(self, thm41_result):
        stages = [info["stage"] for info in thm41_result.triggers.values()]
        assert len(stages) == len(set(stages))

    def test_initial_watch_and_stagewise_containment(self, thm41_result, chain,
                                                     main_scenario):
        for ev in decoded_events(thm41_result.trace):
            if ev["action"] == "trigger":
                # the first bump starts from i+4
                assert ev["payload"]["e_index"] >= ev["payload"]["e"] + 5
        big_s = main_scenario.budgets.max_stage
        stages = sorted(set(thm41_result.w.change_stages()) | {0, big_s})
        for i in range(thm41_result.w.max_index + 1):
            for s in stages:
                assert thm41_result.w.stage_view(i, s).is_subset_of(
                    chain.stage_view(i + 4, s))

    def test_requires_nested(self, surrogate, main_scenario):
        with pytest.raises(ScenarioError):
            build_thm41(surrogate, main_scenario.functionals,
                        main_scenario.budgets, main_scenario.inert_functionals)

    def test_undeclared_stall_rejected(self, chain, main_scenario):
        with pytest.raises(ScenarioError):
            build_thm41(chain, main_scenario.functionals,
                        main_scenario.budgets, frozenset())

    def test_witnesses_pass(self, thm41_result):
        assert thm41_result.trace.all_passed()

    def test_tables_disagree_with_built_set(self, thm41_result, main_scenario,
                                            chain):
        # replaying the trace: at each witness cylinder, the table's bit and
        # the built set's membership bit differ
        from cantorlab.deficiency import Stream, eval_table
        for i, info in thm41_result.triggers.items():
            sigma = info["sigma"]
            x = Stream(f"w{i}", sigma, "01")
            table = main_scenario.functionals[i]
            voted = eval_table(table, x, i, len(sigma))
            assert voted == info["vote"]
            member = thm41_result.in_set.covers(sigma)
            assert member == (voted == 0)


class TestThm410:
    def test_requires_tight_budget(self, main_scenario):
        fat = MLTest([Enumeration([(0, "0")]), Enumeration([(0, "10")])])
        with pytest.raises(BudgetError):
            build_thm410(fat, main_scenario.halting, main_scenario.budgets)

    def test_budget_sum(self, thm410_result):
        u, vstr = thm410_result.u, thm410_result.vstr
        for i in range(vstr.max_index):
            lhs = u.component(i + 1).final_measure()
            rhs = (vstr.component(i + 1).final_measure()
                   + vstr.component(i).final_measure())
            assert lhs <= rhs <= Dyadic.exp2(-(i + 1)) + Dyadic.exp2(-(i + 1))

    def test_nonhalting_cone_unchanged(self, thm410_result, main_scenario):
        u, vstr = thm410_result.u, thm410_result.vstr
        big_s = main_scenario.budgets.max_stage
        for e in (0, 2):  # not in the halting table
            cone = Clopen(["1" * e + "0"])
            for i in range(vstr.max_index + 1):
                for s in (0, 7, big_s):
                    assert u.stage_view(i, s).intersect(cone) == \
                        vstr.stage_view(i, s).intersect(cone)

    def test_halting_shift(self, thm410_result, main_scenario, surrogate):
        big_s = main_scenario.budgets.max_stage
        v = index_shift(surrogate, 2)
        checked = 0
        for e in main_scenario.halting:
            for name in main_scenario.random_streams:
                x = main_scenario.stream(name)
                d = rd_at_stage(x, v, big_s).value
                if d < 2:
                    continue
                shifted = prepend("1" * e + "0", x)
                assert rd_at_stage(shifted, thm410_result.u, big_s).value > d - 1
                checked += 1
        assert checked >= 2

    def test_nonhalting_shift_is_exact(self, thm410_result, main_scenario,
                                       surrogate):
        big_s = main_scenario.budgets.max_stage
        v = index_shift(surrogate, 2)
        checked = 0
        for e in (0, 2):  # not in the halting table
            for name in main_scenario.random_streams:
                x = main_scenario.stream(name)
                d = rd_at_stage(x, v, big_s).value
                if not (2 <= d and e <= d + 1):
                    continue
                shifted = prepend("1" * e + "0", x)
                assert rd_at_stage(shifted, thm410_result.u, big_s).value == d - 1
                checked += 1
        assert checked >= 2

    def test_witnesses_pass(self, thm410_result):
        assert thm410_result.trace.all_passed()


class TestLemma63:
    def test_n0(self, lemma63_result):
        assert lemma63_result.n0 == 3

    @pytest.mark.parametrize("scenario_name, count, digest", [
        ("main", 337,
         "d38ddf5fbb7b6472039a897441807631dd3df3397af16f67636b9160439438db"),
        ("deep", 5468,
         "e0c35d1120161b1982a1284fdc3cd30ca3b7b39f917537fc71b6175138c3e0d8"),
    ], ids=["main", "deep"])
    def test_cones_pinned(self, request, scenario_name, count, digest):
        sc = request.getfixturevalue(f"{scenario_name}_scenario")
        cones = build_lemma63(sc.tree("positive"), sc.budgets).cones
        data = json.dumps([list(c) for c in cones], separators=(",", ":"))
        assert len(cones) == count
        assert hashlib.sha256(data.encode()).hexdigest() == digest

    def test_half_measure_every_stage(self, lemma63_result, main_scenario):
        tree = main_scenario.tree("positive")
        big_s = main_scenario.budgets.max_stage
        for s in range(0, big_s + 1, 8):
            live = tree.live_clopen(s)
            inter = lemma63_result.a_enum.stage_view(s).intersect(live)
            assert inter.measure() <= tree.path_measure(s).half()

    def test_replacements_follow_rules(self, lemma63_result, main_scenario):
        tree = main_scenario.tree("positive")
        by_action = [e for e in decoded_events(lemma63_result.trace)
                     if e["action"] == "replace"]
        assert by_action, "the staged deaths should force replacements"
        for ev in by_action:
            old = ev["payload"]["old"]
            s = ev["stage"]
            if ev["payload"]["reason"] == "dead":
                assert not tree.alive(old, s)

    def test_full_tree_never_replaces(self, main_scenario):
        from cantorlab.enumeration import Budgets
        full = CoTree(Enumeration([]), 64)
        b = Budgets(max_index=12, max_stage=64, max_depth=64, max_layers=8)
        res = build_lemma63(full, b, n0=2)
        assert not [e for e in decoded_events(res.trace) if e["action"] == "replace"]
        inits = [e["payload"]["sigma"] for e in decoded_events(res.trace)
                 if e["action"] == "init"]
        assert inits[0] == "00"
        assert inits[1] == "010"
        assert inits[2] == "0110"

    def test_noncover_for_every_prefix(self, lemma63_result, main_scenario):
        tree = main_scenario.tree("positive")
        big_s = main_scenario.budgets.max_stage
        live = tree.live_clopen(big_s)
        ordered = [c for _, c in lemma63_result.cones]
        assert len(ordered) > 21
        for m in range(21):
            first = Clopen(ordered[:m])
            assert any(
                Clopen([later]).intersect(live)
                and not Clopen([later]).intersect(live).is_subset_of(first)
                for later in ordered[m:])

    def test_witnesses_pass(self, lemma63_result):
        assert lemma63_result.trace.all_passed()


class TestTraceShape:
    def test_events_sorted_by_stage(self, lemma31_result, thm33_result,
                                    thm41_result, thm410_result, lemma63_result):
        for res in (lemma31_result, thm33_result, thm41_result, thm410_result,
                    lemma63_result):
            stages = [e["stage"] for e in decoded_events(res.trace)]
            assert stages == sorted(stages)

    def test_witness_record_shape(self, thm41_result):
        for w in thm41_result.trace.witnesses:
            assert set(w) == {"claim", "status", "data"}
            assert w["status"] in ("pass", "fail")


dyadics = st.builds(Dyadic, st.integers(0, 64), st.integers(0, 8))
payload_values = st.one_of(
    st.text(alphabet=st.sampled_from('ab"\\/\n\u00e9\u03c3\U0001d11e'), max_size=6),
    st.text(max_size=4),
    st.booleans(),
    st.none(),
    st.integers(),
    st.lists(st.integers(), max_size=4),
    dyadics,
    st.lists(dyadics, max_size=3),
    st.lists(st.text(alphabet="01", max_size=5), max_size=4).map(Clopen),
    st.dictionaries(st.integers(-3, 12), st.integers(), max_size=3),
)


class TestEventLines:
    """An event line is the encoding of its full record, whichever path
    (plain payload or projected) and whichever method wrote it."""

    @given(stage=st.integers(-1, 10**7),
           action=st.text(alphabet=st.sampled_from('ax_"\\\u00e9'), min_size=1,
                          max_size=8),
           payload=st.dictionaries(st.text(min_size=1, max_size=6), payload_values,
                                   max_size=4))
    def test_line_is_the_record_encoding(self, stage, action, payload):
        want = _ENCODER.encode(to_jsonable(
            {"action": action, "payload": payload, "stage": stage}))
        trace = ConstructionTrace(name="lines")
        trace.add(stage, action, **payload)
        trace.add_run(stage, stage + 1, action, **payload)
        assert trace.events == [(stage, want), (stage, want)]

    def test_run_lines_match_single_adds(self):
        one, run = ConstructionTrace(name="one"), ConstructionTrace(name="run")
        for s in range(3, 9):
            one.add(s, "stable", value=4)
        run.add_run(3, 9, "stable", value=4)
        run.add_run(9, 9, "stable", value=4)  # an empty run adds nothing
        assert run.events == one.events
        assert run.lines() == one.lines()


class TestDeterminism:
    def test_traces_reproduce(self, surrogate, chain, main_scenario):
        b = main_scenario.budgets
        pairs = [
            build_thm33(surrogate, main_scenario.partial_functions, b).trace,
            build_thm33(surrogate, main_scenario.partial_functions, b).trace,
        ]
        assert pairs[0].lines() == pairs[1].lines()
        t1 = build_thm41(chain, main_scenario.functionals, b,
                         main_scenario.inert_functionals).trace
        t2 = build_thm41(chain, main_scenario.functionals, b,
                         main_scenario.inert_functionals).trace
        assert t1.lines() == t2.lines()
