from __future__ import annotations

import copy
import hashlib
import json
import random
import sys
from bisect import bisect_right
from fractions import Fraction
from typing import Mapping

import pytest
from hypothesis import example, given, settings, strategies as st

from cantorlab import bundled_scenario, cli, constructions, realizers
from cantorlab.core import (
    BudgetError,
    CantorError,
    Clopen,
    Dyadic,
    ScenarioError,
    SearchExhaustedError,
    first_free_string,
    pair,
    str_order_key,
    unpair,
)
from cantorlab.cli import EXIT_SEARCH, EXIT_VALIDATION, SELECTORS, execute, main
from cantorlab.constructions import (
    _ENCODER,
    ConstructionTrace,
    _encode,
    _finish_lemma63,
    _half_coverage_stage,
    _init_line,
    build_lemma31,
    build_lemma63,
    build_thm33,
    build_thm41,
    build_thm410,
    jline,
    least_divergence_point,
)
from cantorlab.deficiency import CoTree, Stream, prepend, rd_at_stage
from cantorlab.enumeration import (
    HARD_MAX_STAGE,
    Budgets,
    Enumeration,
    MLTest,
    Scenario,
    descending_chain,
    index_shift,
    load_scenario,
    replace_component,
    stratify,
    universal_sum,
)
from conftest import (
    decoded_events,
    eval_table,
    leftmost_uncovered,
    sigma_plus,
    written_lines,
)


@pytest.fixture(scope="module")
def lemma31_trace(surrogate, main_scenario):
    return build_lemma31(surrogate, main_scenario.budgets, sigma_stages=10)


@pytest.fixture(scope="module")
def thm33_trace(surrogate, main_scenario):
    return build_thm33(surrogate, main_scenario.partial_functions,
                       main_scenario.budgets)


@pytest.fixture(scope="module")
def thm41_trace(chain, main_scenario):
    return build_thm41(chain, main_scenario.functionals, main_scenario.budgets,
                       main_scenario.inert_functionals)


@pytest.fixture(scope="module")
def thm410_trace(surrogate, main_scenario):
    v = index_shift(surrogate, 2)
    streams = [main_scenario.stream(n) for n in main_scenario.random_streams]
    return build_thm410(v, main_scenario.halting, main_scenario.budgets, streams)


@pytest.fixture(scope="module")
def thm410_vstr(surrogate, main_scenario):
    """The stratified input ``build_thm410`` rebuilds."""
    return stratify(index_shift(surrogate, 2), main_scenario.budgets)


@pytest.fixture(scope="module")
def lemma63_trace(main_scenario):
    return build_lemma63(main_scenario.tree("positive"), main_scenario.budgets)


def _triggers(thm41_trace):
    """The thm41 trigger records by table index."""
    return {int(e): info for e, info in thm41_trace.outputs["triggers"].items()}


class TestLemma31:
    def test_marker_lengths(self, lemma31_trace):
        for s, sig in enumerate(lemma31_trace.outputs["sigmas"]):
            assert len(sig) >= s + 2

    def test_marker_measures(self, lemma31_trace):
        v = lemma31_trace.outputs["v"]
        for i in range(v.max_index + 1):
            m = v.component(i).final_measure()
            assert m <= Dyadic.exp2(-(i + 2))

    def test_non_containment_all_stages(self, lemma31_trace, main_scenario):
        big_s = main_scenario.budgets.max_stage
        w0 = lemma31_trace.outputs["w0"]
        for i, sig in enumerate(lemma31_trace.outputs["sigmas"]):
            marker = Clopen([sig])
            for s in w0.change_stages() + (big_s,):
                assert not marker.is_subset_of(w0.stage_view(s))

    def test_strict_intersection_bound(self, lemma31_trace, surrogate, main_scenario):
        big_s = main_scenario.budgets.max_stage
        w_final = lemma31_trace.outputs["w0"].stage_view(big_s)
        for sig in lemma31_trace.outputs["sigmas"]:
            inside = Clopen([sig]).intersect(w_final).measure()
            bound = surrogate.stage_view(len(sig) + 1, big_s).measure()
            assert inside <= bound < Dyadic.exp2(-len(sig))

    def test_witnesses_pass(self, lemma31_trace):
        assert lemma31_trace.failed_claims() == []

    def test_deterministic_replay(self, surrogate, main_scenario):
        a = build_lemma31(surrogate, main_scenario.budgets, sigma_stages=10)
        b = build_lemma31(surrogate, main_scenario.budgets, sigma_stages=10)
        assert a.lines() == b.lines()

    def test_surgery_keeps_budget(self, lemma31_trace, surrogate):
        w0 = lemma31_trace.outputs["w0"]
        surgered = replace_component(surrogate, 0, w0)
        assert surgered.component(0) == w0


class TestThm33:
    def test_least_divergence(self, main_scenario):
        tables = main_scenario.partial_functions
        assert least_divergence_point(tables[0]) == 4
        assert least_divergence_point(tables[1]) == 2
        assert least_divergence_point(tables[2]) == 0

    def test_budgets(self, thm33_trace):
        w = thm33_trace.outputs["w"]
        for e in range(w.max_index + 1):
            assert w.component(e).final_measure() <= Dyadic.exp2(-e)

    def test_witness_bound_all_stages(self, thm33_trace, main_scenario):
        big_s = main_scenario.budgets.max_stage
        w, v = thm33_trace.outputs["w"], thm33_trace.outputs["v"]
        for e, n in thm33_trace.outputs["least_divergence"].items():
            v_final = [v.stage_view(j, big_s) for j in range(max(n, 0))]
            for s in range(0, big_s + 1, 16):
                w_view = w.stage_view(int(e), s)
                for j in range(n):
                    assert not v_final[j].is_subset_of(w_view)

    def test_e_state_monotone(self, thm33_trace):
        seen: dict[int, int] = {}
        for ev in decoded_events(thm33_trace):
            if ev["action"] == "converge":
                e = ev["payload"]["e"]
                idx = ev["payload"]["e_index"]
                assert idx >= seen.get(e, 0)
                seen[e] = idx

    def test_witnesses_pass(self, thm33_trace):
        assert thm33_trace.failed_claims() == []

    def test_total_table_lag(self, thm33_trace, surrogate, main_scenario):
        # table 0 converges on every probed argument before stalling at 4;
        # during those episodes component 0 swallows the stage view above it
        for ev in decoded_events(thm33_trace):
            if ev["action"] == "converge" and ev["payload"]["e"] == 0:
                s = ev["stage"]
                assert surrogate.stage_view(1, s).is_subset_of(
                    thm33_trace.outputs["w"].stage_view(0, s + 1))


class TestThm41:
    def test_triggers(self, thm41_trace):
        triggers = _triggers(thm41_trace)
        assert set(triggers) == {0, 1}
        assert triggers[0]["vote"] == 0
        assert triggers[1]["vote"] == 1

    def test_vote_contradiction(self, thm41_trace):
        in_set = thm41_trace.outputs["in"]
        for i, info in _triggers(thm41_trace).items():
            marker = Clopen([info["sigma"]])
            if info["vote"] == 0:
                assert marker.is_subset_of(in_set)
            else:
                assert marker.intersect(in_set) == Clopen()

    def test_in_out_disjoint_every_stage(self, thm41_trace, main_scenario):
        big_s = main_scenario.budgets.max_stage
        events = sorted(
            (info["stage"], info["vote"], info["sigma"])
            for info in _triggers(thm41_trace).values())
        bound = Dyadic(1, 4)
        for s in range(big_s + 1):
            ins = Clopen([sig for st, v, sig in events if st <= s and v == 0])
            outs = Clopen([sig for st, v, sig in events if st <= s and v == 1])
            assert ins.intersect(outs) == Clopen()
            assert ins.measure() <= bound and outs.measure() <= bound

    def test_witness_escapes_reference(self, thm41_trace, main_scenario):
        big_s = main_scenario.budgets.max_stage
        for i, info in _triggers(thm41_trace).items():
            marker = Clopen([info["sigma"]])
            w_view = thm41_trace.outputs["w"].stage_view(i, big_s)
            assert not marker.is_subset_of(w_view)
            assert marker.intersect(w_view).measure() < marker.measure()

    def test_sigma_measure_bound(self, thm41_trace):
        for info in _triggers(thm41_trace).values():
            assert Dyadic.exp2(-len(info["sigma"])) <= Dyadic.exp2(-(info["stage"] + 5))

    def test_at_most_one_placement_per_stage(self, thm41_trace):
        stages = [info["stage"] for info in _triggers(thm41_trace).values()]
        assert len(stages) == len(set(stages))

    def test_initial_watch_and_stagewise_containment(self, thm41_trace, chain,
                                                     main_scenario):
        for ev in decoded_events(thm41_trace):
            if ev["action"] == "trigger":
                # the first bump starts from i+4
                assert ev["payload"]["e_index"] >= ev["payload"]["e"] + 5
        big_s = main_scenario.budgets.max_stage
        w = thm41_trace.outputs["w"]
        stages = sorted(set(w.change_stages()) | {0, big_s})
        for i in range(w.max_index + 1):
            for s in stages:
                assert w.stage_view(i, s).is_subset_of(
                    chain.stage_view(i + 4, s))

    def test_requires_nested(self, surrogate, main_scenario):
        with pytest.raises(ScenarioError):
            build_thm41(surrogate, main_scenario.functionals,
                        main_scenario.budgets, main_scenario.inert_functionals)

    def test_undeclared_stall_rejected(self, chain, main_scenario):
        with pytest.raises(ScenarioError):
            build_thm41(chain, main_scenario.functionals,
                        main_scenario.budgets, frozenset())

    def test_witnesses_pass(self, thm41_trace):
        assert thm41_trace.failed_claims() == []

    def test_tables_disagree_with_built_set(self, thm41_trace, main_scenario,
                                            chain):
        # replaying the trace: at each witness cylinder, the table's bit and
        # the built set's membership bit differ
        for i, info in _triggers(thm41_trace).items():
            sigma = info["sigma"]
            x = Stream(f"w{i}", sigma, "01")
            table = main_scenario.functionals[i]
            voted = eval_table(table, x, i, len(sigma))
            assert voted == info["vote"]
            member = thm41_trace.outputs["in"].covers(sigma)
            assert member == (voted == 0)


class TestThm410:
    def test_requires_tight_budget(self, main_scenario):
        fat = MLTest([Enumeration([(0, "0")]), Enumeration([(0, "10")])])
        with pytest.raises(BudgetError):
            build_thm410(fat, main_scenario.halting, main_scenario.budgets)

    def test_budget_sum(self, thm410_trace, thm410_vstr):
        u, vstr = thm410_trace.outputs["u"], thm410_vstr
        for i in range(vstr.max_index):
            lhs = u.component(i + 1).final_measure()
            rhs = (vstr.component(i + 1).final_measure()
                   + vstr.component(i).final_measure())
            assert lhs <= rhs <= Dyadic.exp2(-(i + 1)) + Dyadic.exp2(-(i + 1))

    def test_nonhalting_cone_unchanged(self, thm410_trace, thm410_vstr, main_scenario):
        u, vstr = thm410_trace.outputs["u"], thm410_vstr
        big_s = main_scenario.budgets.max_stage
        for e in (0, 2):  # not in the halting table
            cone = Clopen(["1" * e + "0"])
            for i in range(vstr.max_index + 1):
                for s in (0, 7, big_s):
                    assert u.stage_view(i, s).intersect(cone) == \
                        vstr.stage_view(i, s).intersect(cone)

    def test_halting_shift(self, thm410_trace, main_scenario, surrogate):
        big_s = main_scenario.budgets.max_stage
        v = index_shift(surrogate, 2)
        checked = 0
        for e in main_scenario.halting:
            for name in main_scenario.random_streams:
                x = main_scenario.stream(name)
                d = rd_at_stage(x, v, big_s)
                if d < 2:
                    continue
                shifted = prepend("1" * e + "0", x)
                assert rd_at_stage(shifted, thm410_trace.outputs["u"], big_s) > d - 1
                checked += 1
        assert checked >= 2

    def test_nonhalting_shift_is_exact(self, thm410_trace, main_scenario,
                                       surrogate):
        big_s = main_scenario.budgets.max_stage
        v = index_shift(surrogate, 2)
        checked = 0
        for e in (0, 2):  # not in the halting table
            for name in main_scenario.random_streams:
                x = main_scenario.stream(name)
                d = rd_at_stage(x, v, big_s)
                if not (2 <= d and e <= d + 1):
                    continue
                shifted = prepend("1" * e + "0", x)
                assert rd_at_stage(shifted, thm410_trace.outputs["u"], big_s) == d - 1
                checked += 1
        assert checked >= 2

    def test_witnesses_pass(self, thm410_trace):
        assert thm410_trace.failed_claims() == []


class TestLemma63:
    def test_n0(self, lemma63_trace):
        assert lemma63_trace.outputs["n0"] == 3

    @pytest.mark.parametrize("scenario_name, count, digest", [
        ("main", 337,
         "d38ddf5fbb7b6472039a897441807631dd3df3397af16f67636b9160439438db"),
        ("deep", 5468,
         "e0c35d1120161b1982a1284fdc3cd30ca3b7b39f917537fc71b6175138c3e0d8"),
    ], ids=["main", "deep"])
    def test_cones_pinned(self, request, scenario_name, count, digest):
        sc = request.getfixturevalue(f"{scenario_name}_scenario")
        cones = build_lemma63(sc.tree("positive"), sc.budgets).outputs["cones"]
        data = json.dumps(cones, separators=(",", ":"))
        assert len(cones) == count
        assert hashlib.sha256(data.encode()).hexdigest() == digest

    def test_half_measure_every_stage(self, lemma63_trace, main_scenario):
        tree = main_scenario.tree("positive")
        big_s = main_scenario.budgets.max_stage
        a_enum = Enumeration(lemma63_trace.outputs["cones"])
        for s in range(0, big_s + 1, 8):
            live = tree.live_clopen(s)
            inter = a_enum.stage_view(s).intersect(live)
            assert inter.measure() <= tree.path_measure(s).half()

    def test_replacements_follow_rules(self, lemma63_trace, main_scenario):
        tree = main_scenario.tree("positive")
        by_action = [e for e in decoded_events(lemma63_trace)
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
        trace = build_lemma63(full, b)
        assert not [e for e in decoded_events(trace) if e["action"] == "replace"]
        inits = [e["payload"]["sigma"] for e in decoded_events(trace)
                 if e["action"] == "init"]
        assert inits[0] == "00"
        assert inits[1] == "010"
        assert inits[2] == "0110"

    def test_noncover_for_every_prefix(self, lemma63_trace, main_scenario):
        tree = main_scenario.tree("positive")
        big_s = main_scenario.budgets.max_stage
        live = tree.live_clopen(big_s)
        ordered = [c for _, c in lemma63_trace.outputs["cones"]]
        assert len(ordered) > 21
        for m in range(21):
            first = Clopen(ordered[:m])
            assert any(
                Clopen([later]).intersect(live)
                and not Clopen([later]).intersect(live).is_subset_of(first)
                for later in ordered[m:])

    def test_witnesses_pass(self, lemma63_trace):
        assert lemma63_trace.failed_claims() == []

    def test_noncover_fails_when_later_cones_lie_inside(self):
        """``noncover.m`` fails when the live part of every cone from m on
        lies inside the first m cones: "00" and "01" inside "0"."""
        from cantorlab.enumeration import Budgets
        b = Budgets(max_index=12, max_stage=4, max_depth=8, max_layers=8)
        trace = _finish_lemma63(CoTree(Enumeration([]), 8), b, ConstructionTrace(),
                                [[0, "0"], [1, "00"], [2, "01"]], 1, [False] * 3)
        status = {w["claim"]: w["status"] for w in trace.obligations()}
        assert [status[f"lemma63.noncover.{m}"] for m in range(3)] == [
            "pass", "fail", "fail"]


class TestTraceShape:
    def test_events_sorted_by_stage(self, lemma31_trace, thm33_trace,
                                    thm41_trace, thm410_trace, lemma63_trace):
        for trace in (lemma31_trace, thm33_trace, thm41_trace, thm410_trace,
                      lemma63_trace):
            stages = [e["stage"] for e in decoded_events(trace)]
            assert stages == sorted(stages)

    def test_witness_record_shape(self, thm41_trace):
        for w in thm41_trace.witnesses:
            assert set(w) == {"claim", "status", "data"}
            assert w["status"] in ("pass", "fail")


dyadics = st.builds(Dyadic, st.integers(0, 64), st.integers(0, 8))
enumerations = st.lists(st.tuples(st.integers(0, 9), st.text(alphabet="01", max_size=5)),
                        max_size=4).map(Enumeration)
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
    enumerations,
    st.builds(lambda comps, nested, notes: MLTest(comps, nested=nested, notes=notes,
                                                  check=False),
              st.lists(enumerations, min_size=1, max_size=3), st.booleans(),
              st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)),
)


class TestEventLines:
    """An event line is the encoding of its full record, whichever method
    wrote it."""

    @given(stage=st.integers(-1, 10**7),
           action=st.text(alphabet=st.sampled_from('ax_"\\\u00e9'), min_size=1,
                          max_size=8),
           payload=st.dictionaries(st.text(min_size=1, max_size=6), payload_values,
                                   max_size=4))
    def test_line_is_the_record_encoding(self, stage, action, payload):
        """``add`` writes any stage; a run starts at a stage, at least 0."""
        want = _ENCODER.encode({"action": action, "payload": payload, "stage": stage})
        trace = ConstructionTrace()
        trace.add(stage, action, **payload)
        if stage < 0:
            with pytest.raises(ValueError, match="negative stage"):
                trace.add_run(stage, stage + 1, action, **payload)
            assert written_lines(trace.events) == [want]
            return
        trace.add_run(stage, stage + 1, action, **payload)
        assert written_lines(trace.events) == [want, want]

    @given(value=st.one_of(payload_values, st.dictionaries(
        st.text(max_size=6), payload_values, max_size=4)))
    def test_shared_encoder_is_the_json_encoder(self, value):
        assert _encode(value) == _ENCODER.encode(value)
        assert jline(value) == _ENCODER.encode(value)

    def test_json_forms(self):
        """A clopen is its canonical cylinders in length-lex order, a dyadic
        is "n/2^e", an enumeration is its [stage, cylinder] schedule and a
        test is its components, ``nested`` and ``notes``."""
        enum = Enumeration([(3, "01"), (0, "1")])
        assert jline(Clopen(["010", "1", "00"])) == '["1","00","010"]'
        assert jline(Clopen(["00", "01"])) == '["0"]'
        assert jline(Dyadic(3, 4)) == '"3/2^4"'
        assert jline(enum) == '[[0,"1"],[3,"01"]]'
        assert jline(MLTest([enum], nested=True, notes={"k": Dyadic(1, 1)})) == (
            '{"components":[[[0,"1"],[3,"01"]]],"nested":true,"notes":{"k":"1/2^1"}}')

    def test_value_without_json_form_raises(self):
        x = Stream("x", "01", "1")
        trace = ConstructionTrace()
        trace.outputs["x"] = x
        with pytest.raises(TypeError, match="Stream"):
            trace.add(0, "probe", stream=x)
        with pytest.raises(TypeError, match="Stream"):
            trace.lines()
        with pytest.raises(TypeError, match="Stream"):
            jline([{"x": x}])
        # a record that became a tuple would be written as a list instead
        value = Budgets(1, 8, 8, 4)
        with pytest.raises(TypeError, match="Budgets"):
            ConstructionTrace().add(0, "probe", value=value)
        trace.outputs = {"v": value}
        with pytest.raises(TypeError, match="Budgets"):
            trace.lines()
        with pytest.raises(TypeError, match="Budgets"):
            jline([{"v": value}])

    @given(outputs=st.dictionaries(st.text(max_size=6), payload_values, max_size=4),
           data=st.dictionaries(st.text(alphabet="xyz_\u00e9", min_size=1, max_size=6),
                                payload_values, max_size=3))
    def test_outputs_and_witness_lines(self, outputs, data):
        trace = ConstructionTrace()
        trace.outputs = outputs
        trace.witness("claim", False, **data)
        assert trace.lines() == [
            _ENCODER.encode({"stage": -1, "action": "outputs", "payload": outputs}),
            _ENCODER.encode({"claim": "claim", "status": "fail", "data": data})]

    _SHARED = [[0, "00"], [4, "010"]]
    _CLOPEN = Clopen(["010", "1"])

    @pytest.mark.parametrize("outputs", [
        {"a": _SHARED, "cones": _SHARED, "n0": 3},
        {"u": _CLOPEN, "v": [_CLOPEN, _CLOPEN], "w": _CLOPEN},
        {"runs": {"x1": {"verdict": "pass", "n": [1, {"k": None}]}, "alt": {}},
         "e": {"2": {"10": []}}},
        {"\u00e9": "\u03c3\U0001d11e", "a\u2028": ['\n"\\'], "B": 1, "b": "\x7f"},
        {"c": _CLOPEN, "d": Dyadic(3, 4), "e": Enumeration([(3, "01"), (0, "1")]),
         "t": MLTest([Enumeration([(0, "1")])], nested=True, notes={"k": Dyadic(1, 1)})},
        {},
        {10: "x", 2: "y"},
        {True: 1, 0: 2},
        {1: "x", "b": 2},
        {(1, 2): 3},
        {None: 1},
    ], ids=["shared", "shared_clopen", "nested_dicts", "non_ascii", "library_values",
            "empty", "int_keys", "bool_int_keys", "mixed_keys", "tuple_key", "none_key"])
    def test_outputs_line_is_the_record_encoding(self, outputs):
        """The outputs line, written from per-key encodings, is the
        encoding of the whole record; outputs with a key that is not a
        string raise TypeError, where the encoder would write some such
        keys as strings."""
        trace = ConstructionTrace()
        trace.outputs = outputs
        if all(type(k) is str for k in outputs):
            record = {"stage": -1, "action": "outputs", "payload": outputs}
            assert trace.lines()[0] == _encode(record)
        else:
            with pytest.raises(TypeError):
                trace.lines()

    def test_shared_output_value_is_encoded_once(self, monkeypatch):
        seen = []
        encode = constructions._encode

        def counted(obj):
            seen.append(obj)
            return encode(obj)

        monkeypatch.setattr(constructions, "_encode", counted)
        trace = ConstructionTrace()
        trace.outputs = {"a": self._SHARED, "cones": self._SHARED, "n0": 3}
        trace.lines()
        assert sum(v is self._SHARED for v in seen) == 1

    @given(stage=st.integers(0, 10**6), sigma=st.text(alphabet="01", min_size=1, max_size=64))
    def test_lemma63_event_templates(self, stage, sigma):
        n = len(sigma)
        assert _init_line(stage, n, sigma) == _ENCODER.encode(
            {"action": "init", "payload": {"length": n, "sigma": sigma}, "stage": stage})

    @pytest.mark.parametrize("name", ["main", "deep"])
    def test_lemma63_replace_lines(self, request, name):
        """``build_lemma63`` writes each ``replace`` line in place, from a
        head per length and one template per reason: every line is the
        encoding of its record."""
        sc = request.getfixturevalue(f"{name}_scenario")
        events = build_lemma63(sc.tree("positive"), sc.budgets).events
        replaced = [line for line in events if '"action":"replace"' in line]
        assert {json.loads(line)["payload"]["reason"] for line in replaced} == {
            "covered", "dead"}
        assert [_ENCODER.encode(json.loads(line)) for line in replaced] == replaced

    @given(claims=st.lists(st.text(alphabet=st.sampled_from('ab."\\éσ\U0001d11e\n'),
                                   max_size=8), min_size=1, max_size=6),
           datas=st.lists(st.dictionaries(st.text(alphabet='xy"\\é', max_size=4),
                                          payload_values, max_size=3),
                          min_size=1, max_size=3),
           picks=st.lists(st.tuples(st.integers(0, 2), st.booleans()), min_size=6,
                          max_size=6))
    def test_spliced_witness_lines(self, claims, datas, picks):
        """Witness lines are the encodings of their records, whether
        consecutive witnesses share one data object or hold equal copies."""
        trace = ConstructionTrace()
        for claim, (k, ok) in zip(claims, picks):
            data = datas[k % len(datas)]
            trace.witnesses.append({"claim": claim, "status": "pass" if ok else "fail",
                                    "data": data if ok else dict(data)})
        assert trace.lines()[1:] == [_ENCODER.encode(w) for w in trace.witnesses]

    @settings(max_examples=40)
    @given(prefixes=st.lists(st.text(alphabet=st.sampled_from('ab."\\éσ\U0001d11e\n'),
                                     max_size=8), min_size=1, max_size=3),
           stages=st.lists(st.lists(st.integers(0, 10**5), max_size=5), min_size=3,
                           max_size=3),
           oks=st.lists(st.booleans(), min_size=3, max_size=3))
    def test_witness_runs(self, prefixes, stages, oks):
        """A witness run ``(prefix, stages, status, data)`` reads, counts,
        tags and writes as its witnesses, one dict per stage, next to
        single witnesses; a long run spans several text blocks."""
        runs, flat = ConstructionTrace(), ConstructionTrace()
        data = {"intersection": "1/2^3"}
        groups = [*zip(prefixes, stages, oks), ("long.", range(0, 2100, 2), False)]
        for prefix, qs, ok in groups:
            for trace in (runs, flat):
                trace.witness("single", ok, n=len(qs))
            status = "pass" if ok else "fail"
            runs.witnesses.append((prefix, list(qs), status, data))
            flat.witnesses += [{"claim": f"{prefix}{q}", "status": status, "data": data}
                               for q in qs]
        assert list(runs.obligations()) == flat.witnesses
        assert list(runs.obligations(failed=True)) == [
            w for w in flat.witnesses if w["status"] != "pass"]
        assert runs.witness_count() == len(flat.witnesses)
        assert runs.failed_claims() == flat.failed_claims()
        assert written_lines(runs.lines()) == flat.lines()
        for tag in (None, "", "t"):
            tagged, want = ConstructionTrace(), ConstructionTrace()
            tagged.extend(runs, tag)
            want.extend(flat, tag)
            assert list(tagged.obligations()) == want.witnesses

    def test_run_lines_match_single_adds(self):
        one, run = ConstructionTrace(), ConstructionTrace()
        for s in range(3, 9):
            one.add(s, "stable", value=4)
        run.add_run(3, 9, "stable", value=4)
        run.add_run(9, 9, "stable", value=4)  # an empty run adds nothing
        assert len(run.events) == 1
        assert written_lines(run.events) == one.events
        assert written_lines(run.lines()) == one.lines()


_actions = st.text(alphabet=st.sampled_from('ax_"\\\u00e9'), min_size=1, max_size=8)
_payloads = st.dictionaries(st.text(alphabet='v"\\\u00e9\U0001d11e', min_size=1, max_size=3),
                            payload_values, max_size=2)
_OUTPUTS_LINE = '{"action":"outputs","payload":{},"stage":-1}\n'


class TestRunEntries:
    """A run of one event is one entry until ``cli._text_blocks`` writes it,
    and its text is one encoded record per stage, whatever lines precede it,
    across the expander's blocks: at most 1024 lines, or at most the 1000
    stages of a run that share ``s // 1000``, each block ending its lines."""

    @staticmethod
    def check(lead, ops, cut, tag):
        """``lead`` plain events, then ``ops`` of ``(is_run, first, length,
        action, payload)``: the first ``cut`` added to one trace, the rest to
        another that is then appended with ``extend(other, tag)``."""
        outer, inner = ConstructionTrace(), ConstructionTrace()
        records = []
        for s in range(lead):
            outer.add(s, "lead", n=s)
            records.append({"action": "lead", "payload": {"n": s}, "stage": s})
        for k, (is_run, first, length, action, payload) in enumerate(ops):
            trace = outer if k < cut else inner
            if is_run:
                trace.add_run(first, first + length, action, **payload)
                stages = range(first, first + length)
            else:
                trace.add(first, action, **payload)
                stages = [first]
            records += [{"action": action, "payload": payload, "stage": s} for s in stages]
        inner.witness("claim", True)
        outer.extend(inner, tag)
        want = "".join(_ENCODER.encode(r) + "\n" for r in records)
        assert TestRunEntries.text(outer.events) == want
        assert outer.event_count() == len(records) == want.count("\n")
        assert len(outer.events) <= lead + len(ops)  # a run is one entry
        witness = {"claim": "claim" if tag is None else f"claim.{tag}",
                   "data": {}, "status": "pass"}
        assert TestRunEntries.text(outer.lines()) == (
            want + _OUTPUTS_LINE + _ENCODER.encode(witness) + "\n")

    @staticmethod
    def text(entries):
        """The text of ``entries``, each block checked to end a line and to
        hold at most 1024 lines."""
        blocks = list(cli._text_blocks(entries))
        assert all(b.endswith("\n") and b.count("\n") <= 1024 for b in blocks)
        return "".join(blocks)

    @settings(max_examples=60, deadline=None)
    @given(lead=st.sampled_from([0, 1, 1023, 1024, 1025]),
           ops=st.lists(st.tuples(st.booleans(), st.integers(0, 10**7),
                                  st.one_of(st.integers(-2, 3), st.integers(1020, 2100)),
                                  _actions, _payloads), max_size=6),
           cut=st.integers(0, 6), tag=st.one_of(st.none(), st.text(max_size=3)))
    def test_text_is_one_record_per_stage(self, lead, ops, cut, tag):
        self.check(lead, ops, cut, tag)

    @pytest.mark.parametrize("lead", [0, 1023, 1024, 1025])
    @pytest.mark.parametrize("length", [0, 1, 1023, 1024, 1025, 2049])
    def test_block_edges(self, lead, length):
        """Runs right after exactly 1024 lines, empty, of one stage and
        across the cap of 1024 stages, alone and beside other entries."""
        run = (True, 10**6 - 3, length, 'q"\u00e9', {"\u03c3": ['"\\']})
        one = (False, 7, 1, "one", {})
        self.check(lead, [run], 1, None)
        self.check(lead, [run, run, one, run], 2, "t")

    @pytest.mark.parametrize("first", [-1001, -1, 0, 999, 1000, 999_999, 10**6])
    @pytest.mark.parametrize("length", [1, 999, 1000, 1001, 2001])
    def test_digit_table_edges(self, first, length):
        """Runs that start at 0 and on each side of 1000 and 10^6, the
        stages at which the digit table's lead changes or grows a digit, and
        cover one stage, a block, and the thousands after it; a run that
        starts below 0 is refused."""
        run = (True, first, length, "d", {"k": 1})
        if first < 0:
            with pytest.raises(ValueError, match=f"negative stage {first}"):
                self.check(0, [run], 1, None)
            return
        self.check(0, [run], 1, None)
        self.check(1023, [run, (False, 7, 1, "one", {}), run], 1, "t")


class TestDeterminism:
    def test_traces_reproduce(self, surrogate, chain, main_scenario):
        b = main_scenario.budgets
        pairs = [
            build_thm33(surrogate, main_scenario.partial_functions, b),
            build_thm33(surrogate, main_scenario.partial_functions, b),
        ]
        assert pairs[0].lines() == pairs[1].lines()
        t1 = build_thm41(chain, main_scenario.functionals, b,
                         main_scenario.inert_functionals)
        t2 = build_thm41(chain, main_scenario.functionals, b,
                         main_scenario.inert_functionals)
        assert t1.lines() == t2.lines()


# ---------------------------------------------------------------------------
# clocked constructions against their every-stage loops
# ---------------------------------------------------------------------------

def _thm33_every_stage(u: MLTest, tables: Mapping[int, Mapping[int, tuple[int, int]]],
                       budgets: Budgets) -> ConstructionTrace:
    """The per-stage loop ``build_thm33`` ran before it was clocked:
    every stage 0..S-1 reads the watched views of every table."""
    big_s, depth = budgets.max_stage, budgets.max_depth
    indices = sorted(tables.keys())
    if not indices:
        raise ScenarioError("no partial-function tables registered")
    top = max(indices)
    trace = ConstructionTrace()

    n_state = {e: 0 for e in indices}
    e_state = {e: e + 1 for e in indices}
    w_sched: dict[int, list[tuple[int, str]]] = {e: [] for e in indices}
    w_current: dict[int, Clopen] = {e: Clopen() for e in indices}
    w_prev_view: dict[int, Clopen] = {e: Clopen() for e in indices}
    v_sched: list[tuple[int, int, str]] = []
    v_current: dict[int, Clopen] = {}
    conv_stages: dict[int, list[int]] = {e: [] for e in indices}
    decisive: dict[int, str] = {}

    def w_add(e: int, stage: int, view: Clopen) -> None:
        if view != w_prev_view[e]:
            w_sched[e].extend((stage, c) for c in view.cylinders)
            w_current[e] = w_current[e].union(view)
            w_prev_view[e] = view

    for s in range(big_s):
        for e in indices:
            entry = tables[e].get(n_state[e])
            converged = entry is not None and entry[0] <= s
            if not converged:
                if e_state[e] <= u.max_index:
                    w_add(e, s + 1, u.stage_view(e_state[e], s))
                continue
            w_add(e, s + 1, u.stage_view(e + 1, s))
            n = n_state[e]

            def fits(sig: str, n=n) -> bool:
                cost = Dyadic.exp2(-len(sig))
                for j in range(n + 1):
                    vj = v_current.get(j, Clopen())
                    if not (vj.union(Clopen([sig])).measure() < Dyadic.exp2(-j)):
                        return False
                return True

            sigma = first_free_string(0, depth, w_current[e], pred=fits)
            for j in range(n + 1):
                v_sched.append((s + 1, j, sigma))
                v_current[j] = v_current.get(j, Clopen()).union(Clopen([sigma]))
            decisive[e] = sigma
            n_state[e] = n + 1
            new_e = max(e_state[e], len(sigma)) + 1
            if new_e > u.max_index:
                raise BudgetError(
                    f"watched component index {new_e} for table {e} exceeds "
                    f"budget I={u.max_index}")
            trace.add(s, "converge", e=e, arg=n, sigma=sigma,
                      e_index=new_e, v_targets=list(range(n + 1)))
            conv_stages[e].append(s)
            e_state[e] = new_e

    w = MLTest([Enumeration(w_sched.get(e, [])) for e in range(top + 1)])
    v_comps = [Enumeration([(s, c) for s, j, c in v_sched if j == i])
               for i in range(u.max_index + 1)]
    v = MLTest(v_comps)
    least_div = {e: least_divergence_point(tables[e]) for e in indices}
    trace.outputs = {"w": w, "v": v, "n_final": {str(e): n_state[e] for e in indices},
                     "e_final": {str(e): e_state[e] for e in indices},
                     "least_divergence": {str(e): least_div[e] for e in indices}}

    final = big_s
    for e in indices:
        trace.witness(f"thm33.w_budget.{e}",
                      w.component(e).final_measure() <= Dyadic.exp2(-e))
        for s in conv_stages[e]:
            ok = u.stage_view(e + 1, s).is_subset_of(w.stage_view(e, s + 1))
            trace.witness(f"thm33.conv_lag.{e}.{s}", ok)
        n = least_div[e]
        if n_state[e] == n and n > 0:
            sig = decisive[e]
            w_final = w.stage_view(e, final)
            inside = Clopen([sig]).intersect(w_final)
            trace.witness(f"thm33.decisive_escape.{e}",
                          inside.measure() < Dyadic.exp2(-len(sig)),
                          sigma=sig, inside=inside.measure())
            for j in range(n):
                # Monotone target: the final stage certifies all stages.
                trace.witness(
                    f"thm33.witness_bound.{e}.{j}",
                    not v.stage_view(j, final).is_subset_of(w_final))
    return trace


# ---------------------------------------------------------------------------
# diagonal set against advice tables


def _thm41_every_stage(y: MLTest, functionals: Mapping[int, Mapping[tuple[str, int], int]],
                       budgets: Budgets, inert: frozenset[int] = frozenset()
                       ) -> ConstructionTrace:
    """The per-stage loop ``build_thm41`` ran before it was clocked:
    every stage 0..S visits its row ``i`` at column ``t``."""
    if not y.nested:
        raise ScenarioError("diagonal construction needs a nested test")
    big_s, depth = budgets.max_stage, budgets.max_depth
    max_i = y.max_index - 4
    if max_i < 0:
        raise BudgetError("test too short: need component 4")
    for e in functionals:
        if e > max_i:
            raise ScenarioError(f"advice table {e} beyond component budget {max_i}")
    trace = ConstructionTrace()

    t_half = {e: _half_coverage_stage(tbl, e) for e, tbl in sorted(functionals.items())}
    for e, t in sorted(t_half.items()):
        if t is None and e not in inert:
            raise ScenarioError(
                f"advice table {e} never reaches half coverage and is not declared inert")
        if t is not None and e in inert:
            raise ScenarioError(f"advice table {e} declared inert but reaches half coverage")
        trace.add(-1, "half_coverage", e=e, t=t)

    e_state = {i: i + 4 for i in range(max_i + 1)}
    in_list: list[tuple[int, str]] = []
    out_list: list[tuple[int, str]] = []
    w_sched: dict[int, list[tuple[int, str]]] = {i: [] for i in range(max_i + 1)}
    w_current: dict[int, Clopen] = {i: Clopen() for i in range(max_i + 1)}
    triggered: dict[int, dict] = {}

    def y_view(e: int, t: int) -> Clopen:
        return y.stage_view(e, t) if e <= y.max_index else Clopen()

    for s in range(big_s + 1):
        i, t = unpair(s)
        if i > max_i:
            continue
        tbl = functionals.get(i)
        if tbl is not None and t_half.get(i) == t and i not in triggered:
            blocked = w_current[i].union(Clopen([c for _, c in in_list]))
            blocked = blocked.union(Clopen([c for _, c in out_list]))
            candidates = sorted((p for (p, a), v in tbl.items()
                                 if a == i and v < 2 and len(p) >= s + 5),
                                key=str_order_key)
            sigma = None
            for cand in candidates:
                if not blocked.meets(cand):
                    sigma = cand
                    break
            if sigma is None:
                raise SearchExhaustedError(
                    f"no undecided cylinder of measure <= 2^-{s + 5} for table {i} "
                    f"at stage {s} (budget misconfiguration)")
            vote = tbl[(sigma, i)]
            if vote == 0:
                in_list.append((s, sigma))
            else:
                out_list.append((s, sigma))
            e_state[i] = max(e_state[i], len(sigma)) + 1
            triggered[i] = {"stage": s, "t": t, "sigma": sigma, "vote": vote,
                            "e_index": e_state[i]}
            trace.add(s, "trigger", e=i, t=t, sigma=sigma, vote=vote,
                      e_index=e_state[i])
            trace.witness(f"thm41.sigma_measure.{i}",
                          Dyadic.exp2(-len(sigma)) <= Dyadic.exp2(-(s + 5)),
                          sigma=sigma, stage=s)
            in_c, out_c = Clopen([c for _, c in in_list]), Clopen([c for _, c in out_list])
            trace.witness(f"thm41.in_out_stage.{s}",
                          in_c.intersect(out_c) == Clopen()
                          and in_c.measure() <= Dyadic(1, 4)
                          and out_c.measure() <= Dyadic(1, 4))
        view = y_view(e_state[i], t)
        if view and not view.is_subset_of(w_current[i]):
            w_sched[i].extend((s, c) for c in view.cylinders)
            w_current[i] = w_current[i].union(view)

    w = MLTest([Enumeration(w_sched[i]) for i in range(max_i + 1)], check=False)
    for i in range(max_i + 1):
        if w.component(i).final_measure() > Dyadic.exp2(-(i + 4)):
            raise BudgetError(f"component {i} exceeded its 2^-{i + 4} bound")
    in_set = Clopen([c for _, c in in_list])
    out_set = Clopen([c for _, c in out_list])
    trace.outputs = {"w": w, "in": in_set, "out": out_set,
                     "triggers": {str(k): v for k, v in sorted(triggered.items())}}

    final = big_s
    stages = sorted({s for s, _ in in_list + out_list})
    for s in stages:
        in_c = Clopen([c for st, c in in_list if st <= s])
        out_c = Clopen([c for st, c in out_list if st <= s])
        trace.witness(f"thm41.in_out_cumulative.{s}",
                      in_c.intersect(out_c) == Clopen()
                      and in_c.measure() <= Dyadic(1, 4)
                      and out_c.measure() <= Dyadic(1, 4))
    for i in range(max_i + 1):
        y_ref = y.stage_view(i + 4, final)
        trace.witness(f"thm41.w_inside_reference.{i}",
                      w.stage_view(i, final).is_subset_of(y_ref))
    for i, info in sorted(triggered.items()):
        sig = Clopen([info["sigma"]])
        w_final = w.stage_view(i, final)
        placed_in = sig.is_subset_of(in_set)
        disjoint_in = sig.intersect(in_set) == Clopen()
        contradicts = (info["vote"] == 0 and placed_in) or \
                      (info["vote"] == 1 and disjoint_in)
        trace.witness(f"thm41.vote_contradiction.{i}", contradicts, **info)
        trace.witness(f"thm41.witness_escape.{i}",
                      not sig.is_subset_of(w_final)
                      and sig.intersect(w_final).measure() < sig.measure())
    return trace



def _half_measure_every_stage(cones, tree, budgets):
    """The half-measure loop ``_finish_lemma63`` ran before it walked the
    cones once: every stage intersects the whole view of the cones."""
    trace = ConstructionTrace()
    big_s = budgets.max_stage
    dead_changes = tree.change_stages()
    stages = sorted({s for s, _ in cones} | set(dead_changes) | {0, big_s})
    a_enum = Enumeration(cones)
    per_interval: dict[int, tuple[Clopen, Dyadic]] = {}
    for s in stages:
        t = min(s, big_s)
        key = bisect_right(dead_changes, t)
        if key not in per_interval:
            per_interval[key] = (tree.live_clopen(t), tree.path_measure(t))
        live, measure = per_interval[key]
        inter = a_enum.stage_view(s).intersect(live)
        ok = inter.measure() <= measure.half()
        trace.witness(f"lemma63.half_measure.{s}", ok,
                      intersection=inter.measure(), tree=measure)
    return trace.witnesses


def _lemma63_every_stage(tree: CoTree, budgets: Budgets) -> ConstructionTrace:
    """The dovetail ``build_lemma63`` ran before it walked the diagonals:
    every stage 0..S is unpaired, the tree is read at each visit, and the
    covered test slices every prefix.  It marks no cone as lying inside an
    earlier one, so its half-measure pass asks about every cone."""
    big_s, depth = budgets.max_stage, budgets.max_depth
    final_measure = tree.path_measure(big_s)
    quarter = final_measure.half().half()
    n0 = 0
    while n0 < depth and not (Dyadic.exp2(-n0) <= quarter):
        n0 += 1
    if n0 >= depth or not (Dyadic.exp2(-n0) <= quarter):
        raise BudgetError(
            f"tree too thin: need 4 * 2^-n0 <= {final_measure} with n0 < K")
    trace = ConstructionTrace()
    trace.add(-1, "n0", value=n0, tree_measure=final_measure)

    cones: list[tuple[int, str]] = []
    cone_set: set[str] = set()
    rightmost: dict[int, str] = {}
    cover, counted = Clopen(), 0  # the union of cones[:counted]

    for s in range(big_s + 1):
        i, _t = unpair(s)
        n = n0 + i
        if n > depth:
            continue
        if n not in rightmost:
            cover = cover.union(Clopen([c for _, c in cones[counted:]]))
            counted = len(cones)
            sigma = leftmost_uncovered(n, cover)
            if sigma is None:
                raise SearchExhaustedError(f"no uncovered string of length {n}")
            cones.append((s, sigma))
            cone_set.add(sigma)
            rightmost[n] = sigma
            trace.add(s, "init", length=n, sigma=sigma)
            continue
        sigma = rightmost[n]
        covered = any(sigma[:k] in cone_set for k in range(len(sigma)))
        alive = tree.alive(sigma, min(s, big_s))
        if covered or not alive:
            nxt = sigma_plus(sigma)
            if nxt is None:
                raise SearchExhaustedError(
                    f"right neighbour exhausted at length {n} "
                    "(tree measure precondition violated)")
            cones.append((s, nxt))
            cone_set.add(nxt)
            rightmost[n] = nxt
            trace.add(s, "replace", length=n, old=sigma, new=nxt,
                      reason="covered" if covered else "dead")

    a_enum = Enumeration(cones)
    trace.outputs = {"a": a_enum, "cones": [[s, c] for s, c in cones], "n0": n0}
    return _finish_lemma63(tree, budgets, trace, cones, n0, [False] * len(cones))


def _outcome(build, *args):
    """What a build leaves: its trace lines, which hold its outputs, or the
    text of the error it raised."""
    try:
        return build(*args).lines()
    except CantorError as exc:
        return type(exc).__name__, str(exc)


def _with_stages(sc, stages):
    """``sc`` with stage budget ``stages``, as a fresh Scenario: no test it
    derived for the old budgets (``universal``, ``chain``, ``derived``)
    carries over."""
    b = sc.budgets
    return Scenario(
        Budgets(b.max_index, stages, b.max_depth, b.max_layers), sc.tests,
        sc.partial_functions, sc.functionals, sc.halting, sc.streams,
        sc.random_streams, sc.inert_functionals, sc.opens, sc.trees,
        sc.parallel_family, sc.parallel_bound, sc.raw)


def _shifted_tests(sc, r):
    """``sc`` with every test entry moved by a few stages (budgets keep:
    the final views do not change)."""
    raw = copy.deepcopy(sc.raw)
    for entries in raw["tests"]:
        for entry in entries:
            entry["stage"] = max(0, entry["stage"] + r.randint(-2, 6))
    return load_scenario(raw)


BASE_WORLDS = [("main", None), ("deep", None), ("main", 1), ("main", 2),
               ("main", 7), ("main", 64)]


def _base_world(request, name, stages):
    sc = request.getfixturevalue(f"{name}_scenario")
    return sc if stages is None else _with_stages(sc, stages)


def _thm33_world(sc, seed):
    """A seeded world for thm33: table entry stages shifted, made adjacent,
    or one moved to S or past it, sometimes over shifted test stages."""
    r = random.Random(seed)
    sc = _with_stages(sc, r.choice((1, 2, 7, 64, 512)))
    if r.random() < 0.5:
        sc = _shifted_tests(sc, r)
    big_s = sc.budgets.max_stage
    tables = {}
    for e, table in sc.partial_functions.items():
        args = sorted(table)
        if seed % 3 == 0:  # adjacent
            first = r.randint(0, 8)
            stages = [first + k for k in range(len(args))]
        else:
            stages = [max(0, table[a][0] + r.randint(-3, 8)) for a in args]
        tables[e] = {a: (st, table[a][1]) for a, st in zip(args, stages)}
    if seed % 3 == 2 and tables[0]:  # one entry at the last stage, at S or past it
        arg = r.choice(sorted(tables[0]))
        tables[0][arg] = (r.choice((big_s - 1, big_s, big_s + 5)), tables[0][arg][1])
    return sc, tables


def _thm41_world(sc, seed):
    """A seeded world for thm41: advice tables whose half-coverage depth
    t_half moves, with long candidates past pair(i, t_half) + 5, sometimes
    over shifted test stages."""
    r = random.Random(seed)
    sc = _with_stages(sc, r.choice((1, 2, 7, 64, 512)))
    if r.random() < 0.5:
        sc = _shifted_tests(sc, r)
    functionals = {e: dict(t) for e, t in sc.functionals.items() if e >= 2}
    for i in r.sample(range(5), r.randint(1, 3)):
        t = r.randint(1, 5)
        head = r.choice("01")
        table = {(head + format(k, f"0{t - 1}b") if t > 1 else head, i): r.randint(0, 1)
                 for k in range(2 ** (t - 1))}
        n = pair(i, t) + 5 + r.randint(0, 3)
        for _ in range(3):
            table["".join(r.choice("01") for _ in range(n)), i] = r.randint(0, 1)
        functionals[i] = table
    inert = frozenset(e for e, tbl in functionals.items()
                      if _half_coverage_stage(tbl, e) is None)
    return sc, functionals, inert


def _dead_tree_world(sc, seed):
    """A seeded lemma63 world: a tree whose dead cylinders land on init
    stages or anywhere, and its budgets."""
    r = random.Random(seed)
    budgets = _with_stages(sc, r.choice((7, 64, 512))).budgets
    inits = [pair(i, 0) for i in range(12) if pair(i, 0) <= budgets.max_stage]
    dead = [(0, "11")]
    for _ in range(r.randint(1, 4)):
        stage = r.choice(inits) if r.random() < 0.5 else r.randint(1, budgets.max_stage)
        dead.append((stage, "".join(r.choice("01") for _ in range(r.randint(3, 6)))))
    return CoTree(Enumeration(dead), budgets.max_depth), budgets


def _marches(trace) -> list[tuple[int, int, str]]:
    """``(s1, s2, sigma)`` for each length replaced as covered at two
    consecutive visits ``s1 < s2`` with a stage between them; ``sigma`` is
    the cone it moved to at ``s1``."""
    covered = {}
    for e in decoded_events(trace):
        if e["action"] == "replace" and e["payload"]["reason"] == "covered":
            covered[e["stage"]] = e["payload"]["new"]
    marches = []
    for s1, sigma in covered.items():
        i, t = unpair(s1)
        s2 = pair(i, t + 1)
        if s2 in covered and s2 - s1 > 1:
            marches.append((s1, s2, sigma))
    return marches


def _deep_dead_tree_world(sc, seed):
    """A seeded lemma63 world at deep's budgets (S = 10,000, K = 64): one to
    three short tracked cones die at random stages, so longer lengths march
    through the cones that replace them, and one more dead cone, a marching
    cone of length 8 or more, lands strictly between two of its length's
    visits."""
    r = random.Random(seed)
    budgets = sc.budgets
    dead = [(0, "11")]
    tracked = build_lemma63(CoTree(Enumeration(dead), budgets.max_depth),
                            budgets).outputs["cones"]
    for _ in range(r.randint(1, 3)):
        dead.append((r.randint(1, budgets.max_stage), r.choice(tracked[:6])[1]))
    base = build_lemma63(CoTree(Enumeration(dead), budgets.max_depth), budgets)
    s1, s2, sigma = r.choice([m for m in _marches(base) if len(m[2]) >= 8])
    dead.append((r.randint(s1 + 1, s2 - 1), sigma))
    return CoTree(Enumeration(dead), budgets.max_depth), budgets


def _loud_world(sc, seed):
    """A seeded lemma63 world, the bundled positive tree with loud stages
    on cones: a dead change at the stage of a covered replace, which reads
    no tree and so stays a cone stage, and a stage budget S at a later
    covered replace; half the worlds also get a dead change past S.  Returns
    the tree, the budgets and the two chosen stages."""
    r = random.Random(seed)
    budgets = sc.budgets
    dead = list(sc.trees["positive"].schedule)
    base = build_lemma63(CoTree(Enumeration(dead), budgets.max_depth), budgets)
    covered = [e["stage"] for e in decoded_events(base) if e["action"] == "replace"
               and e["payload"]["reason"] == "covered"]
    d = r.choice(covered[:-1])
    big_s = r.choice([c for c in covered if c > d])
    for stage in (d, big_s + r.randint(1, 40)) if seed % 2 else (d,):
        dead.append((stage, "".join(r.choice("01") for _ in range(r.randint(10, 20)))))
    b = budgets
    return (CoTree(Enumeration(dead), b.max_depth),
            Budgets(b.max_index, big_s, b.max_depth, b.max_layers), d, big_s)


def _cut_world(sc, seed):
    """A seeded lemma63 world, the bundled positive tree plus one dead cone
    that cuts the running intersection strictly between the stages of two
    consecutive cones, both covered replaces: it extends a cone enumerated
    before them by 6 to 12 bits and is alive there, so the live piece of
    that cone shrinks.  At S = 3,000 the diagonals outgrow the lengths, so
    some diagonals have no init, and a covered cone can be the next cone
    after a covered cone a diagonal back.  Returns the tree, the budgets and
    the dead stage."""
    r = random.Random(seed)
    b = sc.budgets
    budgets = Budgets(b.max_index, 3000, b.max_depth, b.max_layers)
    dead = list(sc.trees["positive"].schedule)
    tree = CoTree(Enumeration(dead), budgets.max_depth)
    base = build_lemma63(tree, budgets)
    cones = base.outputs["cones"]
    covered = {e["stage"] for e in decoded_events(base) if e["action"] == "replace"
               and e["payload"]["reason"] == "covered"}
    gaps = [(a, b) for (a, _), (b, _) in zip(cones, cones[1:])
            if a in covered and b in covered and b - a > 1]
    a, b = r.choice(gaps)
    d = r.randint(a + 1, b - 1)
    while True:
        cut = r.choice([c for s, c in cones if s <= a]) + "".join(
            r.choice("01") for _ in range(r.randint(6, 12)))
        if len(cut) <= budgets.max_depth and tree.alive(cut, d):
            break
    dead.append((d, cut))
    return CoTree(Enumeration(dead), budgets.max_depth), budgets, d


class TestClockedAgainstEveryStage:
    """The clocked constructions leave the same trace lines and outputs, or
    raise the same error, as the per-stage loops they replaced."""

    @pytest.mark.parametrize("name, stages", BASE_WORLDS)
    def test_thm33_bundles(self, request, name, stages):
        sc = _base_world(request, name, stages)
        args = (universal_sum(sc), sc.partial_functions, sc.budgets)
        assert _outcome(build_thm33, *args) == _outcome(_thm33_every_stage, *args)

    @pytest.mark.parametrize("seed", range(24))
    def test_thm33_seeded(self, main_scenario, seed):
        sc, tables = _thm33_world(main_scenario, seed)
        args = (universal_sum(sc), tables, sc.budgets)
        assert _outcome(build_thm33, *args) == _outcome(_thm33_every_stage, *args)

    def test_thm33_table_indexed_ten(self, main_scenario):
        """Table keys are written as strings, so "10" sorts before "2" in
        both loops' outputs."""
        tables = {**main_scenario.partial_functions, 10: {}}
        args = (universal_sum(main_scenario), tables, main_scenario.budgets)
        lines = _outcome(build_thm33, *args)
        assert isinstance(lines, list)
        assert lines == _outcome(_thm33_every_stage, *args)

    @pytest.mark.parametrize("name, stages", BASE_WORLDS)
    def test_thm41_bundles(self, request, name, stages):
        sc = _base_world(request, name, stages)
        args = (descending_chain(universal_sum(sc)), sc.functionals, sc.budgets,
                sc.inert_functionals)
        assert _outcome(build_thm41, *args) == _outcome(_thm41_every_stage, *args)

    @pytest.mark.parametrize("seed", range(24))
    def test_thm41_seeded(self, main_scenario, seed):
        sc, functionals, inert = _thm41_world(main_scenario, seed)
        args = (descending_chain(universal_sum(sc)), functionals, sc.budgets, inert)
        assert _outcome(build_thm41, *args) == _outcome(_thm41_every_stage, *args)

    @staticmethod
    def _check_lemma63(tree, budgets):
        assert (_outcome(build_lemma63, tree, budgets)
                == _outcome(_lemma63_every_stage, tree, budgets))
        trace = build_lemma63(tree, budgets)
        cones = trace.outputs["cones"]
        assert trace.encoded == [(cones, _encode(cones))]  # the handed-over text
        clocked = [jline(w) for w in trace.obligations()
                   if w["claim"].startswith("lemma63.half_measure.")]
        assert clocked == [jline(w) for w in _half_measure_every_stage(cones, tree, budgets)]
        # each init is the leftmost string the earlier cones leave uncovered
        for k, (s, sigma) in enumerate(cones):
            if unpair(s)[1] == 0:
                assert sigma == leftmost_uncovered(
                    len(sigma), Clopen([c for _, c in cones[:k]]))
        return trace

    @pytest.mark.parametrize("name, stages", BASE_WORLDS)
    def test_lemma63_bundles(self, request, name, stages):
        sc = _base_world(request, name, stages)
        self._check_lemma63(sc.tree("positive"), sc.budgets)

    def test_lemma63_seeded_dead_trees(self, main_scenario):
        """Dead cones land on init stages, which are always cone stages, or
        anywhere; both a death at a cone stage and one strictly between
        two cone stages must occur."""
        kinds = set()
        for seed in range(16):
            tree, budgets = _dead_tree_world(main_scenario, seed)
            cones = self._check_lemma63(tree, budgets).outputs["cones"]
            cone_stages = {s for s, _ in cones}
            for d in tree.change_stages():
                if d in cone_stages:
                    kinds.add("at")
                elif min(cone_stages) < d < max(cone_stages):
                    kinds.add("between")
        assert kinds == {"at", "between"}

    @pytest.mark.parametrize("seed", range(8))
    def test_lemma63_loud_stages_on_cones(self, main_scenario, seed):
        """A dead change at a cone's stage, so that loud stage repeats in the
        pass's merged stages, and a cone at stage S.  The dead cone at d is
        inside an earlier cone, so the half-measure pass would join it to
        the run before d if its skip did not stop at loud stages."""
        tree, budgets, d, big_s = _loud_world(main_scenario, seed)
        cones = self._check_lemma63(tree, budgets).outputs["cones"]
        stages = {s: c for s, c in cones}
        assert d in tree.change_stages() and d in stages
        assert big_s == budgets.max_stage and big_s in stages
        assert any(stages[d].startswith(c) for s, c in cones if s < d)
        if seed % 2:
            assert max(tree.change_stages()) > big_s

    @pytest.mark.parametrize("seed", range(8))
    def test_lemma63_cut_between_covered_cones(self, main_scenario, seed):
        """A dead change strictly between two consecutive covered cones cuts
        the running intersection: the every-stage intersection at the dead
        stage is smaller than at the stage before it, so the pass, which
        skips quiet cones, must stop there and cut its spans."""
        tree, budgets, d = _cut_world(main_scenario, seed)
        trace = self._check_lemma63(tree, budgets)
        cones = trace.outputs["cones"]
        covered = {e["stage"] for e in decoded_events(trace) if e["action"] == "replace"
                   and e["payload"]["reason"] == "covered"}
        k = bisect_right([s for s, _ in cones], d)
        assert cones[k - 1][0] < d < cones[k][0]
        assert cones[k - 1][0] in covered and cones[k][0] in covered
        every = {int(w["claim"].rpartition(".")[2]): w["data"]["intersection"]
                 for w in _half_measure_every_stage(cones, tree, budgets)}
        before = max(s for s in every if s < d)
        assert every[d] < every[before]

    @pytest.mark.parametrize("seed", range(3))
    def test_lemma63_seeded_deep_dead_trees(self, deep_scenario, seed):
        """At S = 10,000 the tree moves strictly between two visits of a
        length that is marching through a shorter cone: both visits replace
        its cone as covered."""
        tree, budgets = _deep_dead_tree_world(deep_scenario, seed)
        trace = self._check_lemma63(tree, budgets)
        assert [(s1, d, s2) for s1, s2, _ in _marches(trace)
                for d in tree.change_stages() if s1 < d < s2]

    def test_lemma63_full_tree(self):
        tree = CoTree(Enumeration([]), 64)
        budgets = Budgets(max_index=12, max_stage=64, max_depth=64, max_layers=8)
        assert (_outcome(build_lemma63, tree, budgets)
                == _outcome(_lemma63_every_stage, tree, budgets))

    @pytest.mark.parametrize("depth", [10, 11, 13, 25])
    def test_lemma63_shallow_tree(self, main_scenario, depth):
        """A tree shallower than the depth budget raises at the first visit
        past its depth, covered or not, naming the same node (at these
        depths that visit is covered)."""
        tree = CoTree(main_scenario.trees["positive"], depth)
        messages = []
        for build in (build_lemma63, _lemma63_every_stage):
            with pytest.raises(ValueError) as err:
                build(tree, main_scenario.budgets)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("start", [0, 2016])
    def test_lemma63_exhausted(self, start):
        tree = CoTree(_DeadBetween(start, 10**4), 64)
        budgets = Budgets(max_index=12, max_stage=10**4, max_depth=64, max_layers=8)
        got = _outcome(build_lemma63, tree, budgets)
        assert got[0] == "SearchExhaustedError"
        assert got == _outcome(_lemma63_every_stage, tree, budgets)


def _stages_ascend(trace) -> bool:
    stages = [e["stage"] for e in decoded_events(trace)]
    return stages == sorted(stages)


def _built(build, *args):
    """The trace ``build`` returns, or None if it raises."""
    try:
        return build(*args)
    except CantorError:
        return None


class TestEventStageOrder:
    """Nothing sorts a trace's events, so every builder adds them in stage
    order: each trace that a construction builder, ``realizers.Emitter.run``
    or ``lay_to_cn`` returns has non-decreasing event stages."""

    @pytest.mark.parametrize("name", ["main", "deep"])
    def test_bundles(self, request, monkeypatch, name):
        traces = []

        def record(module, fn_name, trace_of=lambda result: result):
            fn = getattr(module, fn_name)

            def recorded(*args, **kwargs):
                result = fn(*args, **kwargs)
                traces.append((fn_name, trace_of(result)))
                return result
            monkeypatch.setattr(module, fn_name, recorded)

        builders = ("build_lemma31", "build_thm33", "build_thm41", "build_thm410",
                    "build_lemma63")
        for fn_name in builders:
            record(cli, fn_name)
        record(realizers.Emitter, "run", lambda run: run.trace)
        record(realizers, "lay_to_cn", lambda run: run.trace)
        sc = request.getfixturevalue(f"{name}_scenario")
        for selector in SELECTORS:
            execute(sc, selector)
        assert {n for n, _ in traces} == {*builders, "run", "lay_to_cn"}
        assert [n for n, trace in traces if not _stages_ascend(trace)] == []

    @pytest.mark.parametrize("seed", range(24))
    def test_seeded_thm33_thm41(self, main_scenario, seed):
        sc, tables = _thm33_world(main_scenario, seed)
        thm33 = _built(build_thm33, universal_sum(sc), tables, sc.budgets)
        sc, functionals, inert = _thm41_world(main_scenario, seed)
        thm41 = _built(build_thm41, descending_chain(universal_sum(sc)), functionals,
                       sc.budgets, inert)
        assert all(_stages_ascend(t) for t in (thm33, thm41) if t is not None)

    @pytest.mark.parametrize("seed", range(16))
    def test_seeded_lemma63(self, main_scenario, seed):
        assert _stages_ascend(build_lemma63(*_dead_tree_world(main_scenario, seed)))

    def test_thm410_halts_falling_with_e(self, surrogate, main_scenario):
        halting = {1: 12, 3: 6, 4: 0}
        trace = build_thm410(index_shift(surrogate, 2), halting, main_scenario.budgets)
        assert [e["payload"]["e"] for e in decoded_events(trace)] == [4, 3, 1]
        assert _stages_ascend(trace)

    def test_lemma31_stops_before_a_later_view(self, main_scenario):
        """At I=5 the marker phase stops at stage 3; the next view is at 6."""
        raw = copy.deepcopy(main_scenario.raw)
        raw["budgets"]["I"] = 5
        raw["tests"] = [[e for e in t if e["component"] <= 5] for t in raw["tests"]]
        sc = load_scenario(raw)
        trace = build_lemma31(universal_sum(sc), sc.budgets)
        actions = [(e["stage"], e["action"]) for e in decoded_events(trace)]
        assert (3, "sigma_emission_stopped") in actions
        assert actions[-1][1] == "w0_view"
        assert _stages_ascend(trace)


class _DeadBetween:
    """A dead source with everything dead on stages ``start..stop-1`` and
    nothing dead before or after.  Its view shrinks at ``stop``, which no
    scenario tree's can: the tree at ``S = stop`` passes the §6.3 measure
    precondition (``n0`` is 2) that the earlier stages break."""

    def __init__(self, start: int, stop: int) -> None:
        self.start, self.stop = start, stop

    def stage_view(self, s: int) -> Clopen:
        return Clopen([""]) if self.start <= s < self.stop else Clopen()

    def change_stages(self) -> tuple[int, ...]:
        return (self.start, self.stop)


def _run_lemma63(monkeypatch, raw=None, dead=None, tmp_path=None):
    """``cantorlab run --select lemma63`` on the deep scenario, on ``raw``
    written out, or with its positive tree's dead view replaced by ``dead``."""
    path = bundled_scenario("deep")
    if raw is not None:
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw))
    if dead is not None:
        monkeypatch.setattr(Scenario, "tree",
                            lambda sc, name: CoTree(dead, sc.budgets.max_depth))
    return main(["run", "--scenario", str(path), "--select", "lemma63"])


class TestLemma63Errors:
    """The three ways ``build_lemma63`` can fail, from the builder and from
    ``cantorlab run``.

    Neither search can be exhausted while the tree's dead view only grows.
    A replaced cone was dead, or inside a shorter cone, so by induction on
    length every cone lies in the dead set or in one of the tracked cones,
    one per length ``m >= n0``.  Those measure at most
    ``sum 2^-m = 2 * 2^-n0 <= mu_S / 2 <= mu_s / 2`` by the precondition
    ``2^-n0 <= mu_S / 4``, with ``mu_s`` the tree's measure at stage ``s``.
    So the cones measure at most ``(1 - mu_s) + mu_s / 2 < 1``.  But
    ``no uncovered string`` means the cones cover every string, and so does
    ``right neighbour exhausted at length n``: every length-n string is
    then a cone, or was covered when length n began at its leftmost
    uncovered string.  The raises stay; these tests reach them only with
    ``_DeadBetween``, whose view shrinks."""

    def test_tree_too_thin(self, deep_scenario, monkeypatch, tmp_path, capsys):
        tree = CoTree(Enumeration([(0, "0"), (3, "1")]), 64)
        with pytest.raises(BudgetError) as err:
            build_lemma63(tree, deep_scenario.budgets)
        assert str(err.value) == "tree too thin: need 4 * 2^-n0 <= 0/2^0 with n0 < K"
        raw = copy.deepcopy(deep_scenario.raw)
        raw["trees"]["positive"] = [{"cylinder": "", "stage": 0}]
        assert _run_lemma63(monkeypatch, raw=raw, tmp_path=tmp_path) == EXIT_VALIDATION
        assert "tree too thin" in capsys.readouterr().err

    @pytest.mark.parametrize("start, message", [
        (0, "no uncovered string of length 5"),
        (2016, "right neighbour exhausted at length 2 "
               "(tree measure precondition violated)"),
    ], ids=["no_uncovered", "right_neighbour"])
    def test_search_exhausted(self, deep_scenario, monkeypatch, capsys,
                              start, message):
        """From stage 0 everything is dead, so length 2 moves right at each
        visit until, at stage 9, the cones cover everything and length 5 has
        nowhere to start.  From stage 2016, after the last length (64) began
        at stage 2015, length 2 moves right from ``00`` until ``11`` dies."""
        dead = _DeadBetween(start, deep_scenario.budgets.max_stage)
        with pytest.raises(SearchExhaustedError) as err:
            build_lemma63(CoTree(dead, 64), deep_scenario.budgets)
        assert str(err.value) == message
        assert _run_lemma63(monkeypatch, dead=dead) == EXIT_SEARCH
        assert message in capsys.readouterr().err


def test_view_lookups_do_not_grow_with_stage_budget(main_scenario, monkeypatch):
    """thm33 and thm41 step only where a view or a table can move, so the
    stage budget does not change how often they, or combinators, which
    rebuilds both, read a stage view."""
    calls = [0]
    stage_view = Enumeration.stage_view

    def counted(self, s):
        calls[0] += 1
        return stage_view(self, s)

    monkeypatch.setattr(Enumeration, "stage_view", counted)
    counts = {}
    for stages in (main_scenario.budgets.max_stage, HARD_MAX_STAGE):
        sc = _with_stages(main_scenario, stages)
        counts[stages] = []
        for selector in ("thm33", "thm41", "combinators"):
            calls[0] = 0
            execute(sc, selector)
            counts[stages].append(calls[0])
    assert counts[main_scenario.budgets.max_stage] == counts[HARD_MAX_STAGE]


def test_half_measure_pass_looks_up_few_cones(deep_scenario, monkeypatch):
    """The build marks each cone that lies inside an earlier, shorter cone,
    and the half-measure pass asks its running intersection about the other
    cones only: on deep, 115 of the 5,468 cones (5,466 lookups when every
    cone was asked).  A lookup is a ``_within`` of the cone's live piece
    called by the pass itself; the noncover witnesses' calls are not counted."""
    calls, finishing = [0], [False]
    within, finish = constructions._within, constructions._finish_lemma63

    def counted(x, y):
        calls[0] += finishing[0] and sys._getframe(1).f_code.co_name == "_finish_lemma63"
        return within(x, y)

    def finish_counted(*args):
        finishing[0] = True
        try:
            return finish(*args)
        finally:
            finishing[0] = False

    monkeypatch.setattr(constructions, "_within", counted)
    monkeypatch.setattr(constructions, "_finish_lemma63", finish_counted)
    trace = build_lemma63(deep_scenario.tree("positive"), deep_scenario.budgets)
    assert len(trace.outputs["cones"]) == 5468
    assert 0 < calls[0] <= 150


def test_half_measure_pass_builds_no_clopen_per_step(deep_scenario, monkeypatch):
    """The half-measure pass keeps its live set and running intersection as
    span boundaries at the tree's depth: on deep, the finish builds one
    clopen per dead interval, the live set (3; 306 when the intersection
    and each cone's piece were clopens), whatever its 118 steps."""
    builds, finishing = [0], [False]
    init, finish = Clopen.__init__, constructions._finish_lemma63

    def counted(self, *args, **kwargs):
        builds[0] += finishing[0]
        init(self, *args, **kwargs)

    def finish_counted(*args):
        finishing[0] = True
        try:
            return finish(*args)
        finally:
            finishing[0] = False

    monkeypatch.setattr(Clopen, "__init__", counted)
    monkeypatch.setattr(constructions, "_finish_lemma63", finish_counted)
    tree = deep_scenario.tree("positive")
    trace = build_lemma63(tree, deep_scenario.budgets)
    assert trace.witness_count() == 5492
    assert builds[0] == len(tree.change_stages()) == 3


def test_deep_lemma63_witness_runs_and_cone_spans(deep_scenario, monkeypatch,
                                                 tmp_path, capsys):
    """On deep, ``lemma63`` holds its 5,470 half-measure witnesses as runs:
    its trace has at most 100 witness entries (93; 5,492 when each witness
    was one), and verify still counts 5,492 obligations.  Neither the build
    nor the half-measure pass rebuilds a union of cones from their strings:
    an init reads the lengths' integer intervals, and the running unions
    and intersection grow by one cone's clopen at a time."""
    from_strings, init = [0], Clopen.__init__

    def counted(self, strings=(), *, _spans=None):
        strings = list(strings)
        from_strings[0] += len(strings) > 1
        init(self, strings, _spans=_spans)

    monkeypatch.setattr(Clopen, "__init__", counted)
    trace = build_lemma63(deep_scenario.tree("positive"), deep_scenario.budgets)
    monkeypatch.undo()
    assert from_strings[0] == 0
    assert len(trace.witnesses) <= 100
    assert trace.witness_count() == 5492

    path = tmp_path / "t.jsonl"
    assert main(["run", "--scenario", str(bundled_scenario("deep")),
                 "--select", "lemma63", "--trace", str(path)]) == 0
    assert "5492 obligations passed" in capsys.readouterr().err
    assert main(["verify", "--trace", str(path), "--quiet"]) == 0
    assert json.loads(capsys.readouterr().out)["obligations"] == 5492


# ---------------------------------------------------------------------------
# outputs-only builds and lemma63's alive cache
# ---------------------------------------------------------------------------

IN_STEP_CLAIMS = ("thm41.sigma_measure.", "thm41.in_out_stage.")


def _kept(build, *args, **kwargs):
    """A build's event entries, encoded outputs and witnesses, or the text
    of the error it raised."""
    try:
        trace = build(*args, **kwargs)
    except CantorError as exc:
        return type(exc).__name__, str(exc)
    return trace.events, _encode(trace.outputs), trace.witnesses


def _check_outputs_only(build, *args) -> bool:
    """``obligations=False`` leaves the events and outputs of the full
    build, or raises its error, and keeps only thm41's in-step witnesses.
    True when the full build wrote closing witnesses that it skipped."""
    full = _kept(build, *args)
    bare = _kept(build, *args, obligations=False)
    if isinstance(full[0], str):
        assert bare == full
        return False
    assert bare[:2] == full[:2]
    assert bare[2] == [w for w in full[2] if w["claim"].startswith(IN_STEP_CLAIMS)]
    return len(bare[2]) < len(full[2])


def _thm410_args(sc, halting=None):
    streams = [sc.stream(n) for n in sc.random_streams]
    return (index_shift(universal_sum(sc), 2),
            sc.halting if halting is None else halting, sc.budgets, streams)


class TestOutputsOnly:
    """The four builders whose outputs ``produced_tests`` keeps build them
    without their closing obligations exactly as the full builds do."""

    @pytest.mark.parametrize("name, stages", BASE_WORLDS)
    def test_bundles(self, request, name, stages):
        sc = _base_world(request, name, stages)
        u = universal_sum(sc)
        skipped = [
            _check_outputs_only(build_lemma31, u, sc.budgets),
            _check_outputs_only(build_lemma31, u, sc.budgets, 3),
            _check_outputs_only(build_thm33, u, sc.partial_functions, sc.budgets),
            _check_outputs_only(build_thm41, descending_chain(u), sc.functionals,
                                sc.budgets, sc.inert_functionals),
            _check_outputs_only(build_thm410, *_thm410_args(sc)),
            _check_outputs_only(build_thm410, *_thm410_args(sc, {1: 12, 3: 6, 4: 0})),
        ]
        if stages is None:
            assert all(skipped)

    @pytest.mark.parametrize("seed", range(24))
    def test_seeded(self, main_scenario, seed):
        sc, tables = _thm33_world(main_scenario, seed)
        _check_outputs_only(build_thm33, universal_sum(sc), tables, sc.budgets)
        sc, functionals, inert = _thm41_world(main_scenario, seed)
        _check_outputs_only(build_thm41, descending_chain(universal_sum(sc)),
                            functionals, sc.budgets, inert)

    def test_lemma31_marker_stop(self, main_scenario):
        raw = copy.deepcopy(main_scenario.raw)
        raw["budgets"]["I"] = 5
        raw["tests"] = [[e for e in t if e["component"] <= 5] for t in raw["tests"]]
        sc = load_scenario(raw)
        assert _check_outputs_only(build_lemma31, universal_sum(sc), sc.budgets)

    @pytest.mark.parametrize("name", ["main", "deep"])
    @pytest.mark.parametrize("sigma_stages", [None, 3])
    def test_produced_tests_match_the_full_builds(self, request, name, sigma_stages):
        sc = request.getfixturevalue(f"{name}_scenario")
        u, budgets = sc.universal, sc.budgets
        out31 = build_lemma31(u, budgets, sigma_stages).outputs
        out33 = build_thm33(u, sc.partial_functions, budgets).outputs
        reference = {
            **sc.derived,
            "lemma31_v": out31["v"],
            "surgered": replace_component(u, 0, out31["w0"]),
            "thm33_w": out33["w"],
            "thm33_v": out33["v"],
            "thm41_w": build_thm41(sc.chain, sc.functionals, budgets,
                                   sc.inert_functionals).outputs["w"],
            "thm410_u": build_thm410(index_shift(u, 2), sc.halting,
                                     budgets).outputs["u"],
        }
        produced = cli.produced_tests(sc, sigma_stages)
        assert sorted(produced) == sorted(reference)
        assert _encode(produced) == _encode(reference)

    @pytest.mark.parametrize("name", ["main", "deep"])
    def test_combinators_writes_few_witnesses(self, request, monkeypatch, name):
        """One ``combinators`` execute computes its 11 budget witnesses,
        ``combinators.chain_nested`` and thm41's 4 in-step witnesses, and no
        closing obligation of the four builds (82 witnesses when it did)."""
        sc = request.getfixturevalue(f"{name}_scenario")
        calls = [0]
        witness = ConstructionTrace.witness

        def counted(self, *args, **kwargs):
            calls[0] += 1
            return witness(self, *args, **kwargs)

        monkeypatch.setattr(ConstructionTrace, "witness", counted)
        trace = execute(sc, "combinators")
        assert calls[0] <= 16
        assert all(w["claim"].startswith("budget.") for w in trace.witnesses[:-1])
        assert trace.witnesses[-1]["claim"] == "combinators.chain_nested"


def _alive_calls(monkeypatch) -> list[tuple[str, int, bool]]:
    """Each ``CoTree.alive(node, s)`` call from now on, with its answer."""
    calls = []
    alive = CoTree.alive

    def recorded(self, node, s):
        ok = alive(self, node, s)
        calls.append((node, s, ok))
        return ok

    monkeypatch.setattr(CoTree, "alive", recorded)
    return calls


class TestLemma63AliveCache:
    """An uncovered visit asks the tree about its cone only when the cone is
    new or the tree's dead view moved since the cone was last found alive."""

    def test_cached_answer_dropped_at_dead_change(self, main_scenario,
                                                  deep_scenario, monkeypatch):
        worlds = ([_dead_tree_world(main_scenario, seed) for seed in range(16)]
                  + [_deep_dead_tree_world(deep_scenario, seed) for seed in range(3)])
        calls = _alive_calls(monkeypatch)
        dropped = []
        for tree, budgets in worlds:
            calls.clear()
            trace = build_lemma63(tree, budgets)
            changes = tree.change_stages()
            # a cone found alive in a dead interval is not asked about again there
            found = set()
            for node, s, ok in calls:
                key = (node, bisect_right(changes, s))
                assert key not in found
                if ok:
                    found.add(key)
            # each length's cone strings only move right, so a cone is
            # replaced at most once
            killed = {e["payload"]["old"]: e["stage"] for e in decoded_events(trace)
                      if e["action"] == "replace" and e["payload"]["reason"] == "dead"}
            for node, s1, ok in calls:
                s2 = killed.get(node)
                if ok and s2 is not None:
                    assert [d for d in changes if s1 < d <= s2]
                    assert (node, s2, False) in calls
                    dropped.append((s1, s2))
        assert dropped

    @pytest.mark.parametrize("name, bound", [("main", 40), ("deep", 100)])
    def test_alive_calls_per_build(self, request, monkeypatch, name, bound):
        """1,384 calls on deep and 177 on main when every uncovered visit
        asked the tree."""
        sc = request.getfixturevalue(f"{name}_scenario")
        calls = _alive_calls(monkeypatch)
        build_lemma63(sc.tree("positive"), sc.budgets)
        assert 0 < len(calls) <= bound


# ---------------------------------------------------------------------------
# lemma31's running unions and thm33's integer budget test
# ---------------------------------------------------------------------------

def _lemma31_by_stages(u: MLTest, budgets: Budgets, sigma_stages: int | None = None,
                       *, obligations: bool = True) -> ConstructionTrace:
    """The per-stage assembly ``build_lemma31`` ran before it kept running
    unions: each relevant stage rebuilds the markers' union from their
    strings and meets every emitted marker with its component's view."""
    if u.max_index < 2:
        raise BudgetError("construction needs component 2")
    big_s, depth = budgets.max_stage, budgets.max_depth
    n_sigma = min(sigma_stages if sigma_stages is not None else 16, big_s, depth - 2)
    trace = ConstructionTrace()

    # The marker phase adds one event at each stage 0..k; markers.events[k]
    # goes into the trace before the w0_view event of stage k.
    markers = ConstructionTrace()
    sigmas: list[str] = []
    for s in range(n_sigma):
        covered = u.stage_view(2, s).union(Clopen(sigmas))
        try:
            sigma = first_free_string(s + 2, depth, covered)
        except SearchExhaustedError:
            markers.add(s, "sigma_search_exhausted")
            break
        if len(sigma) + 1 > u.max_index:
            markers.add(s, "sigma_emission_stopped",
                        reason="marker length outgrew the index budget",
                        length=len(sigma))
            break
        sigmas.append(sigma)
        markers.add(s, "sigma", value=sigma, length=len(sigma))

    relevant: set[int] = {0}
    relevant.update(range(len(sigmas)))
    relevant.update(u.component(2).change_stages())
    for sig in sigmas:
        relevant.update(u.component(len(sig) + 1).change_stages())
    relevant = {s for s in relevant if s <= big_s}

    marker_cones = [Clopen([sig]) for sig in sigmas]
    w_sched: list[tuple[int, str]] = []
    prev: Clopen | None = None
    k = 0  # the next marker event
    for s in sorted(relevant):
        trace.events += markers.events[k:s + 1]
        k = s + 1
        emitted = [sig for t, sig in enumerate(sigmas) if t <= s]
        outside = u.stage_view(2, s).difference(Clopen(emitted), depth)
        view = outside
        for t, sig in enumerate(sigmas):
            if t <= s:
                view = view.union(marker_cones[t].intersect(
                    u.stage_view(len(sig) + 1, s)))
        if view != prev:
            w_sched.extend((s, c) for c in view.cylinders)
            trace.add(s, "w0_view", cylinders=view, measure=view.measure())
            prev = view
    trace.events += markers.events[k:]
    w0 = Enumeration(w_sched)

    v = MLTest([Enumeration([(i, sig)]) for i, sig in enumerate(sigmas)])
    trace.outputs = {"w0": w0, "v": v, "sigmas": list(sigmas)}
    if not obligations:
        return trace

    final = max(big_s, w0.last_stage())
    w_final = w0.stage_view(final)
    trace.witness("lemma31.sigma_length",
                  all(len(sig) >= s + 2 for s, sig in enumerate(sigmas)),
                  lengths=[len(s) for s in sigmas])
    trace.witness("lemma31.v_budget",
                  all(len(sig) >= i + 2 for i, sig in enumerate(sigmas)))
    for i, sig in enumerate(sigmas):
        inside = marker_cones[i].intersect(w_final)
        bound = u.stage_view(len(sig) + 1, final).measure()
        ok = (inside.measure() <= bound and bound < Dyadic.exp2(-len(sig)))
        trace.witness(f"lemma31.meet_bound.{i}", ok,
                      inside=inside.measure(), bound=bound, marker=sig)
        # Containment into a growing set is monotone, so the final stage
        # certifies every earlier one.
        trace.witness(f"lemma31.non_containment.{i}",
                      not Clopen([sig]).is_subset_of(w_final), marker=sig)
    return trace



@st.composite
def small_world_st(draw):
    """A test of 3-6 components, component i below 0^i with cylinders of at
    most 4 more bits at stages 0..8, and budgets with K in 6..10."""
    n = draw(st.integers(3, 6))
    comps = [Enumeration([(t, "0" * i + c) for t, c in draw(st.lists(
        st.tuples(st.integers(0, 8), st.text(alphabet="01", max_size=4)), max_size=5))])
        for i in range(n)]
    depth = draw(st.integers(max(6, n + 1), 10))  # I = n - 1 <= K - 2
    budgets = Budgets(n - 1, draw(st.integers(0, 12)), depth, depth // 2)
    return MLTest(comps), budgets


class TestLemma31AgainstStages:
    @given(small_world_st(), st.integers(1, 16))
    @settings(max_examples=150, deadline=None)
    def test_same_trace_as_the_stage_loop(self, world, sigma_stages):
        u, budgets = world
        for obligations in (True, False):
            try:  # no marker at all: the stage loop builds the empty family,
                # which the build refuses first, naming why
                want = _lemma31_by_stages(u, budgets, sigma_stages, obligations=obligations)
            except ValueError:
                with pytest.raises(BudgetError, match="^no marker emitted: "):
                    build_lemma31(u, budgets, sigma_stages, obligations=obligations)
                continue
            got = build_lemma31(u, budgets, sigma_stages, obligations=obligations)
            assert got.lines() == want.lines()
            assert got.outputs["w0"].schedule == want.outputs["w0"].schedule
            assert got.outputs["sigmas"] == want.outputs["sigmas"]
            assert ([c.schedule for c in got.outputs["v"].components]
                    == [c.schedule for c in want.outputs["v"].components])

    @pytest.mark.parametrize("name", ["main", "deep"])
    @pytest.mark.parametrize("sigma_stages", [None, 1, 3, 10])
    def test_bundles(self, request, name, sigma_stages):
        sc = request.getfixturevalue(f"{name}_scenario")
        args = (sc.universal, sc.budgets, sigma_stages)
        assert build_lemma31(*args).lines() == _lemma31_by_stages(*args).lines()


class TestLemma31NoMarker:
    """With no marker to emit, ``build_lemma31`` raises BudgetError naming
    the cause, where it built an empty family before."""

    def test_zero_budget(self, main_scenario):
        budgets = Budgets(12, 0, 64, 8)
        with pytest.raises(BudgetError) as err:
            build_lemma31(main_scenario.universal, budgets)
        assert str(err.value) == "no marker emitted: min(sigma_stages, S, K - 2) is 0"

    def test_stage_zero_search_exhausted(self):
        whole = Enumeration([(0, "")])  # component 2 covers everything at stage 0
        u = MLTest([whole, whole, whole, whole], check=False)
        with pytest.raises(BudgetError) as err:
            build_lemma31(u, Budgets(3, 4, 6, 3))
        assert str(err.value) == "no marker emitted: the stage-0 search was exhausted"

    def test_first_marker_outgrew_the_index_budget(self):
        u = MLTest([Enumeration([]) for _ in range(3)])  # I = 2 < len("00") + 1
        with pytest.raises(BudgetError) as err:
            build_lemma31(u, Budgets(2, 4, 6, 3))
        assert str(err.value) == "no marker emitted: the first marker, of length 2, outgrew I = 2"


@given(st.integers(0, 1 << 40), st.integers(0, 60), st.integers(0, 70))
@example(1, 3, 3)
@example(1, 4, 3)
@example(3, 3, 2)
@example(0, 0, 70)
def test_below_matches_fractions(n, e, j):
    """``_below(m, j)`` is ``m < 2**-j`` of the exact fractions, on integers."""
    assert constructions._below(Dyadic(n, e), j) == (Fraction(n, 2 ** e) < Fraction(1, 2 ** j))
