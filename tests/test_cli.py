import contextlib
import copy
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cantorlab import bundled_scenario, cli, enumeration, realizers
from cantorlab.cli import (
    CATALOG,
    EXIT_IO,
    EXIT_OBLIGATION,
    EXIT_SEARCH,
    EXIT_VALIDATION,
    SELECTORS,
    CatalogEntry,
    _budget_sweep,
    _text_blocks,
    main,
    write_trace,
)
from cantorlab.constructions import ConstructionTrace
from cantorlab.core import Dyadic, ScenarioError
from cantorlab.enumeration import Budgets, Enumeration, MLTest, load_scenario
from cantorlab.realizers import cn_times_mlr_psi

MAIN = str(bundled_scenario("main"))
SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*argv):
    return main(list(argv))


class TestListConstructions:
    def test_required_selectors_present(self, capsys):
        assert run_cli("list-constructions") == 0
        out = capsys.readouterr().out
        for name in ("lemma31", "thm33", "thm41", "thm410", "lemma63",
                     "lay_to_lay", "rd_from_lay", "lay_to_cn", "delta02_to_lay"):
            assert name in out

    def test_entries_carry_anchors(self):
        for entry in CATALOG:
            assert re.match(r"\d+\.\d+", entry.anchor)


class TestRun:
    def test_lemma31_demo(self, tmp_path, capsys):
        trace = tmp_path / "l31.jsonl"
        code = run_cli("run", "--scenario", MAIN, "--select", "lemma31",
                       "--trace", str(trace))
        assert code == 0
        lines = trace.read_text().splitlines()
        sigma_events = [json.loads(l) for l in lines
                        if '"action":"sigma"' in l]
        assert len(sigma_events) >= 1

    def test_depth_cap_rejected(self, capsys):
        code = run_cli("run", "--scenario", MAIN, "--select", "lemma31",
                       "--depth", "65")
        assert code == EXIT_VALIDATION

    def test_index_budget_rejected_before_tests_built(self, capsys):
        # I sizes every test the loader builds, so it is checked first
        code = run_cli("run", "--scenario", MAIN, "--select", "lemma31",
                       "--max-index", "5000")
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: validation: budget I=5000 outside 0..64\n")

    def test_index_budget_past_depth_rejected(self, tmp_path, capsys):
        # stratify's head 1^(I+2) must fit the depth, so I <= K-2; the run
        # stops before it writes a trace
        trace = tmp_path / "t.jsonl"
        code = run_cli("run", "--scenario", MAIN, "--select", "lay_to_lay",
                       "--max-index", "63", "--trace", str(trace), "--verify")
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: validation: budget I=63 above K-2=62: the stratification "
            "head 1^(I+2) must fit the depth\n")
        assert not trace.exists()

    def test_max_index_applies_before_tests_are_parsed(self, tmp_path, capsys):
        """A component past the file's I loads under ``--max-index`` as it
        does under the same I in the file, and both runs write one trace."""
        raw = json.load(open(MAIN))
        raw["tests"][0].append({"component": 13, "stage": 0, "cylinder": "1" * 16})
        texts = []
        for in_file, override in ((False, ["--max-index", "13"]), (True, [])):
            if in_file:
                raw["budgets"]["I"] = 13
            path, trace = tmp_path / f"{in_file}.json", tmp_path / f"{in_file}.jsonl"
            path.write_text(json.dumps(raw))
            assert run_cli("run", "--scenario", str(path), "--select", "lay_to_lay",
                           "--stages", "64", *override, "--trace", str(trace),
                           "--verify") == 0
            texts.append(trace.read_text())
        assert texts[0] == texts[1]
        assert "error" not in capsys.readouterr().err

    @pytest.mark.parametrize("override", [[], ["--stages", "64"]], ids=["file", "override"])
    def test_scenario_that_is_a_string_is_not_a_path(self, override, tmp_path, capsys):
        """A scenario file holding a JSON string is rejected, even when the
        string names a scenario file."""
        path = tmp_path / "named.json"
        path.write_text(json.dumps(MAIN))
        assert run_cli("run", "--scenario", str(path), "--select", "lemma31",
                       *override) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == "error: validation: scenario must be a JSON object\n"
        assert captured.out == ""

    def test_unknown_selector(self, capsys):
        code = run_cli("run", "--scenario", MAIN, "--select", "nope")
        assert code == EXIT_VALIDATION

    def test_unreadable_scenario(self, tmp_path, capsys):
        code = run_cli("run", "--scenario", str(tmp_path / "missing.json"),
                       "--select", "lemma31")
        assert code == 4

    def test_scenario_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe")
        code = run_cli("run", "--scenario", str(bad), "--select", "lemma31")
        assert code == EXIT_IO
        assert "error: cannot read scenario:" in capsys.readouterr().err

    def test_missing_reservoir_diagnostic(self, tmp_path, capsys):
        raw = json.load(open(MAIN))
        raw["tests"] = [[e for e in raw["tests"][0]
                         if set(e["cylinder"]) != {"1"}]]
        raw["streams"] = [s for s in raw["streams"] if not s.get("random")]
        raw["parallel_family"] = []
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        code = run_cli("run", "--scenario", str(bad), "--select", "lemma31")
        assert code == EXIT_SEARCH
        err = capsys.readouterr().err
        assert "intersection of components 0.." in err

    def test_exhausted_pad_search_line(self, capsys):
        """The exit-3 line names the realizer, the stage and the demanded
        components, and its length does not grow with the committed output."""
        code = run_cli("run", "--scenario", MAIN, "--select", "product_merge",
                       "--grace", "0")
        assert code == EXIT_SEARCH
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: search exhausted: product_merge: ")
        assert "stage 4" in err and "components [0, 1]" in err
        assert "11100" not in err  # the committed bits

    def test_every_selector_runs_clean(self, tmp_path):
        for entry in CATALOG:
            trace = tmp_path / f"{entry.name}.jsonl"
            code = run_cli("run", "--scenario", MAIN, "--select", entry.name,
                           "--trace", str(trace))
            assert code == 0, entry.name


def _break_period(raw):
    raw["streams"][0]["period"] = ""


def _drop_stage(raw):
    del raw["tests"][0][0]["stage"]


def _string_budgets(raw):
    raw["budgets"] = "x"


def _negative_stage(raw):
    raw["tests"][0][0]["stage"] = -1


def _tests_as_mapping(raw):
    raw["tests"] = {"a": 1}


def _fractional_budget(raw):
    raw["budgets"]["S"] = 512.7


def _string_budget(raw):
    raw["budgets"]["S"] = "512"


def _fractional_stage(raw):
    raw["tests"][0][0]["stage"] = 1.9


def _bool_halting_stage(raw):
    raw["halting"][0]["stage"] = True


def _index_past_depth(raw):
    raw["budgets"]["I"] = raw["budgets"]["K"] - 1


class TestMalformedScenario:
    @pytest.mark.parametrize("breaker", [_break_period, _drop_stage,
                                         _string_budgets, _negative_stage,
                                         _tests_as_mapping, _fractional_budget,
                                         _string_budget, _fractional_stage,
                                         _bool_halting_stage, _index_past_depth])
    def test_run_exits_validation(self, breaker, tmp_path, capsys):
        raw = json.load(open(MAIN))
        breaker(raw)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        code = run_cli("run", "--scenario", str(bad), "--select", "thm33")
        assert code == EXIT_VALIDATION
        assert "error: validation:" in capsys.readouterr().err

    @pytest.mark.parametrize("breaker, message", [
        (lambda raw: raw.update(parallel_bound=0),
         "parallel family member 'x1' has deficiency 1 above the declared bound 0"),
        (lambda raw: raw["streams"][-1].update(random=True),
         "stream 'ones' declared random but captured by every contentful "
         "component at stage 512"),
    ], ids=["parallel_bound", "captured_random"])
    def test_run_rejects_deficiency_declarations(self, breaker, message, tmp_path,
                                                 capsys):
        raw = json.load(open(MAIN))
        breaker(raw)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        code = run_cli("run", "--scenario", str(bad), "--select", "thm33")
        assert code == EXIT_VALIDATION
        assert f"error: validation: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value, name", [
        ("--stride", "0", "stride"),
        ("--grace", "-1", "grace"),
        ("--sigma-stages", "0", "sigma_stages"),
    ], ids=["stride", "grace", "sigma_stages"])
    def test_run_rejects_zero_stride(self, option, value, name, capsys):
        code = run_cli("run", "--scenario", MAIN, "--select", "thm33",
                       option, value)
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: validation:")
        assert f"{name} must" in err and f"got {value}" in err

    @pytest.mark.parametrize("breaker", [
        lambda p: p["scenario"]["tests"][0][0].pop("stage"),
        lambda p: p.pop("budgets"),
        lambda p: p.update(stride="x"),
        lambda p: p.update(grace="x"),
        lambda p: p["scenario"]["tests"][0][0].update(stage=1.9),
        lambda p: p["budgets"].update(S="512"),
        lambda p: p["budgets"].update(I=p["budgets"]["K"] - 1),
        lambda p: p.update(stride=True),
        lambda p: p.update(sigma_stages=2.5),
        # a scenario named by path is never opened, even one that exists
        lambda p: p.update(scenario="nonexistent.json"),
        lambda p: p.update(scenario=str(Path(MAIN).parent)),
        lambda p: p.update(scenario=MAIN),
        lambda p: p.update(grace=-1),
        lambda p: p.update(sigma_stages=0),
    ], ids=["scenario_stage", "budgets", "stride", "grace", "fractional_stage",
            "string_budget", "index_past_depth", "bool_stride",
            "fractional_sigma_stages", "scenario_missing_path",
            "scenario_directory", "scenario_path", "negative_grace",
            "zero_sigma_stages"])
    def test_verify_exits_validation(self, breaker, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert run_cli("run", "--scenario", MAIN, "--select", "thm33",
                       "--trace", str(trace)) == 0
        lines = trace.read_text().splitlines()
        header = json.loads(lines[0])
        breaker(header["payload"])
        trace.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        capsys.readouterr()
        assert run_cli("verify", "--trace", str(trace), "--quiet") == EXIT_VALIDATION
        assert "error: validation:" in capsys.readouterr().err


class TestStreamName:
    """A stream name that is not a string is rejected when the scenario is
    read, naming the field, not left to raise in the trace encoder."""

    MESSAGE = "error: validation: {}streams[4].name must be a string, got 1.5\n"

    def test_run_exits_validation(self, tmp_path, capsys):
        raw = json.load(open(MAIN))
        raw["streams"][4]["name"] = 1.5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        code = run_cli("run", "--scenario", str(bad), "--select", "lay_to_lay",
                       "--stages", "64")
        assert code == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == self.MESSAGE.format("")
        assert captured.out == ""

    def test_verify_exits_validation(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert run_cli("run", "--scenario", MAIN, "--select", "lay_to_lay",
                       "--stages", "64", "--trace", str(trace)) == 0
        header, *rest = trace.read_text().splitlines()
        rec = json.loads(header)
        rec["payload"]["scenario"]["streams"][4]["name"] = 1.5
        trace.write_text("\n".join([json.dumps(rec), *rest]) + "\n")
        capsys.readouterr()
        assert run_cli("verify", "--trace", str(trace), "--quiet") == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == self.MESSAGE.format("replay: ")
        assert captured.out == ""


class TestFieldPaths:
    """Each call site of the scenario reader rejects a value of the wrong
    JSON type, a missing key or a value out of range with exit 2 and a
    message that begins with the value's JSON path, from ``run`` and from
    ``verify``'s replay of a trace whose header holds the same edit."""

    ROWS = [
        (lambda r: r["budgets"].update(S="512"), "budgets.S must be an integer, got '512'"),
        (lambda r: r["tests"][0][3].pop("stage"), "tests[0][3].stage is missing"),
        (lambda r: r["partial_functions"]["1"][2].update(value="x"),
         "partial_functions.1[2].value must be an integer, got 'x'"),
        (lambda r: r["functionals"]["2"][0].update(prefix="0" * 65),
         f"functionals.2[0].prefix must be a binary string of at most 64 bits, "
         f"got '{'0' * 65}'"),
        (lambda r: r["halting"][1].pop("e"), "halting[1].e is missing"),
        (lambda r: r["streams"][2].update(name=None),
         "streams[2].name must be a string, got None"),
        (lambda r: r["streams"][1].update(pad="0120"),
         "streams[1].pad must be a binary string, got '0120'"),
        (lambda r: r["streams"][3].update(period=""),
         "streams[3].period must be a non-empty binary string, got ''"),
        (lambda r: r["streams"][0].update(random="yes"),
         "streams[0].random must be a boolean, got 'yes'"),
        (lambda r: r["opens"]["layerA"][2][1].update(stage=-1),
         "opens.layerA[2][1].stage must be an integer >= 0, got -1"),
        (lambda r: r["trees"]["positive"].__setitem__(1, "11"),
         "trees.positive[1] must be an object, got '11'"),
        (lambda r: r["parallel_family"].__setitem__(2, None),
         "parallel_family[2] must be a string, got None"),
        (lambda r: r["inert_functionals"].append(9),
         "inert_functionals[2] must be the index of a functional, got 9"),
        (lambda r: r.update(parallel_bound="2"), "parallel_bound must be an integer, got '2'"),
    ]
    IDS = ["budgets", "tests", "partial_functions", "functionals", "halting",
           "streams_name", "streams_pad", "streams_period", "streams_random", "opens",
           "trees", "parallel_family", "inert_functionals", "parallel_bound"]

    @pytest.fixture(scope="class")
    def header(self, tmp_path_factory):
        trace = tmp_path_factory.mktemp("paths") / "t.jsonl"
        assert _outcome(["run", "--scenario", MAIN, "--select", "lemma31",
                         "--trace", str(trace)])[0] == 0
        return trace.read_text().split("\n", 1)

    @pytest.mark.parametrize("edit, message", ROWS, ids=IDS)
    def test_run(self, edit, message, tmp_path):
        raw = json.load(open(MAIN))
        edit(raw)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert _outcome(["run", "--scenario", str(path), "--select", "lemma31"]) == (
            EXIT_VALIDATION, [f"error: validation: {message}"])

    @pytest.mark.parametrize("edit, message", ROWS, ids=IDS)
    def test_verify(self, edit, message, header, tmp_path):
        first, rest = header
        rec = json.loads(first)
        edit(rec["payload"]["scenario"])
        trace = tmp_path / "t.jsonl"
        trace.write_text(json.dumps(rec) + "\n" + rest)
        assert _outcome(["verify", "--trace", str(trace)]) == (
            EXIT_VALIDATION, [f"error: validation: replay: {message}"])

    @pytest.mark.parametrize("selector, edit, message", [
        ("thm410", lambda r: r["halting"][0].update(stage=-5),
         "halting[0].stage must be an integer in 0..512, got -5"),
        ("thm33", lambda r: r["partial_functions"]["0"][0].update(stage=-2),
         "partial_functions.0[0].stage must be an integer in 0..512, got -2"),
    ], ids=["halting", "partial_functions"])
    def test_negative_stage(self, selector, edit, message, tmp_path):
        """A table's stage is at least 0, as a schedule's is: the run stops
        before it writes a trace."""
        raw = json.load(open(MAIN))
        edit(raw)
        path, trace = tmp_path / "bad.json", tmp_path / "t.jsonl"
        path.write_text(json.dumps(raw))
        assert _outcome(["run", "--scenario", str(path), "--select", selector,
                         "--trace", str(trace), "--verify"]) == (
            EXIT_VALIDATION, [f"error: validation: {message}"])
        assert not trace.exists()


def _full_grid_sweep(tests, budgets, stride):
    """Reference: compare the measure at every grid point."""
    ok, checks = {}, 0
    grid = range(0, budgets.max_stage + 1, stride)
    for name, t in sorted(tests.items()):
        ok[name] = True
        for i in range(t.max_index + 1):
            checks += len(grid)
            measure_at, bound = t.component(i).measure_at, Dyadic.exp2(-i)
            if any(measure_at(s) > bound for s in grid):
                ok[name] = False
    return ok, checks


def _sweep(tests, budgets, stride):
    trace = ConstructionTrace()
    checks = _budget_sweep(trace, tests, budgets, stride)
    ok = {w["claim"][len("budget."):]: w["status"] == "pass"
          for w in trace.witnesses}
    return ok, checks


class TestBudgetSweep:
    @pytest.mark.parametrize("stride", [1, 7, 513])
    def test_matches_full_grid_on_derived_tests(self, main_scenario, stride):
        tests = main_scenario.derived
        got = _sweep(tests, main_scenario.budgets, stride)
        assert got == _full_grid_sweep(tests, main_scenario.budgets, stride)
        assert all(got[0].values())

    @pytest.mark.parametrize("stride", [1, 7, 21])
    def test_matches_full_grid_over_budget(self, stride):
        # S=20: stride 7 sees stages 0, 7, 14; stride 21 sees stage 0 only.
        budgets = Budgets(max_index=1, max_stage=20, max_depth=8, max_layers=4)

        def over_at(stage, first=None):
            # 1/2 (at the bound) from ``first``, 3/4 > 2^-1 from ``stage``
            first = stage if first is None else first
            over = Enumeration([(first, "0"), (stage, "10")])
            return MLTest([Enumeration(), over], check=False)

        tests = {"off_grid": over_at(3), "on_grid": over_at(14),
                 "after_grid": over_at(16), "at_zero": over_at(0),
                 "two_steps": over_at(2, first=1),
                 "after_three": over_at(4, first=0)}
        got = _sweep(tests, budgets, stride)
        assert got == _full_grid_sweep(tests, budgets, stride)
        want_fail = {1: set(tests),
                     7: {"off_grid", "on_grid", "at_zero", "two_steps",
                         "after_three"},
                     21: {"at_zero"}}[stride]
        assert {n for n, ok in got[0].items() if not ok} == want_fail


    @pytest.fixture(scope="class")
    def produced(self, main_scenario, deep_scenario):
        return {sc: cli.produced_tests(sc) for sc in (main_scenario, deep_scenario)}

    @pytest.mark.parametrize("stride", [1, 7, 64, "S"])
    @pytest.mark.parametrize("name", ["main", "deep"])
    def test_matches_full_grid_on_produced_tests(self, request, produced, name,
                                                 stride):
        # thm41_w is built with check=False: the sweep is its budget check
        sc = request.getfixturevalue(f"{name}_scenario")
        stride = sc.budgets.max_stage if stride == "S" else stride
        tests = produced[sc]
        assert "thm41_w" in tests
        got = _sweep(tests, sc.budgets, stride)
        assert got == _full_grid_sweep(tests, sc.budgets, stride)
        assert all(got[0].values())


class TestVerify:
    def test_verify_after_run(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert run_cli("run", "--scenario", MAIN, "--select", "thm33",
                       "--trace", str(trace)) == 0
        assert run_cli("verify", "--trace", str(trace), "--quiet") == 0
        report = json.loads(capsys.readouterr().out.splitlines()[0])
        assert report["deterministic"] is True
        assert report["failed"] == []

    def test_budget_check_count(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        run_cli("run", "--scenario", MAIN, "--select", "thm33",
                "--trace", str(trace), "--stride", "8")
        capsys.readouterr()
        assert run_cli("verify", "--trace", str(trace), "--quiet") == 0
        report = json.loads(capsys.readouterr().out.splitlines()[0])
        raw = json.load(open(MAIN))
        stages = raw["budgets"]["S"] // 8 + 1
        # 57 components across the five derived tests, swept on the stride grid
        assert report["budget_checks"] == 57 * stages
        assert report["stride"] == 8

    def test_corrupted_trace_detected(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        run_cli("run", "--scenario", MAIN, "--select", "thm41",
                "--trace", str(trace))
        header, body = trace.read_text().split("\n", 1)
        bad = tmp_path / "bad.jsonl"
        bad.write_text(header + "\n" + body.replace('"00000000"', '"00000001"', 1))
        assert run_cli("verify", "--trace", str(bad), "--quiet") == EXIT_OBLIGATION
        assert "determinism" in capsys.readouterr().err
        # the same edit in the header's scenario repeats an entry of functional 0
        bad.write_text(header.replace('"00000000"', '"00000001"', 1) + "\n" + body)
        assert run_cli("verify", "--trace", str(bad), "--quiet") == EXIT_VALIDATION
        assert capsys.readouterr().err == ("error: validation: replay: functionals.0[5] "
                                           "(prefix, advice) ('00000001', 0) appears twice\n")

    def test_failed_obligation_shows_its_data(self, tmp_path, capsys,
                                              monkeypatch):
        def failing(sc, u, o):
            trace = ConstructionTrace()
            trace.witness("failing.bound", False, got=Dyadic(3, 2), want=[1, 2])
            trace.witness("failing.ok", True, note="fine")
            return trace

        monkeypatch.setitem(SELECTORS, "failing", CatalogEntry(
            "failing", "-", "construction", "one obligation fails", failing))
        data = '{"got":"3/2^2","want":[1,2]}'
        trace = tmp_path / "t.jsonl"
        assert run_cli("run", "--scenario", MAIN, "--select", "failing",
                       "--trace", str(trace)) == EXIT_OBLIGATION
        assert capsys.readouterr().err.splitlines() == ["FAIL failing.bound", data]
        lines = trace.read_text().splitlines()
        assert json.loads(lines[-2]) == {"claim": "failing.bound", "status": "fail",
                                         "data": json.loads(data)}
        assert run_cli("verify", "--trace", str(trace)) == EXIT_OBLIGATION
        out = capsys.readouterr().out.splitlines()
        assert json.loads(out[0])["failed"] == ["failing.bound"]
        assert out[1:] == ["FAIL failing.bound", data, "PASS failing.ok"]
        assert run_cli("verify", "--trace", str(trace), "--quiet") == EXIT_OBLIGATION
        assert capsys.readouterr().out.splitlines() == out[:1]

    def test_run_with_inline_verify(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        assert run_cli("run", "--scenario", MAIN, "--select", "lemma63",
                       "--trace", str(trace), "--verify") == 0

    def test_inline_verify_needs_trace(self, capsys):
        code = run_cli("run", "--scenario", MAIN, "--select", "lemma63",
                       "--verify")
        assert code == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "error: validation:" in captured.err
        assert captured.out == ""

    def test_write_trace_writes_every_line(self, tmp_path):
        lines = [f'{{"n":{i}}}' for i in range(2500)]
        trace = tmp_path / "t.jsonl"
        write_trace(trace, lines)
        assert trace.read_bytes() == "".join(f"{line}\n" for line in lines).encode()

    @pytest.mark.parametrize("rewrite", [
        lambda b: b.replace(b"\n", b"\r\n"),
        lambda b: b.replace(b"\n", b"\r"),
        lambda b: b[:-1],
        lambda b: b + b"\n",
    ], ids=["crlf", "cr", "no_final_newline", "extra_blank_line"])
    def test_line_ends_compared_as_bytes(self, rewrite, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert run_cli("run", "--scenario", MAIN, "--select", "thm33",
                       "--trace", str(trace)) == 0
        trace.write_bytes(rewrite(trace.read_bytes()))
        capsys.readouterr()
        assert run_cli("verify", "--trace", str(trace), "--quiet") == EXIT_OBLIGATION
        report = json.loads(capsys.readouterr().out.splitlines()[0])
        assert report["deterministic"] is False

    @pytest.mark.parametrize("replayable", [True, False])
    def test_not_utf8_after_the_header(self, replayable, tmp_path, capsys):
        # unreadable input exits 4 before any replay, even one that would fail
        trace = tmp_path / "t.jsonl"
        if replayable:
            assert run_cli("run", "--scenario", MAIN, "--select", "thm33",
                           "--trace", str(trace)) == 0
        else:
            trace.write_bytes(b'{"action":"header","payload":{"selector":"nope"},'
                              b'"stage":-1}\n')
        with open(trace, "ab") as fh:
            fh.write(b"x" * 65536 + b"\n\xff\n")  # past the first decoded chunk
        capsys.readouterr()
        assert run_cli("verify", "--trace", str(trace), "--quiet") == EXIT_IO
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot read trace")
        assert captured.out == ""

    @pytest.fixture
    def cn_trace(self, tmp_path, capsys):
        """A cn_times_mlr trace on main, whose ``stable`` events are runs."""
        trace = tmp_path / "t.jsonl"
        assert run_cli("run", "--scenario", MAIN, "--select", "cn_times_mlr",
                       "--trace", str(trace)) == 0
        capsys.readouterr()
        return trace

    def test_not_utf8_inside_a_run(self, cn_trace, capsys):
        """The compare reads a run's expanded text from the file, and an
        unreadable byte there exits 4."""
        _, lines = cli.produce(load_scenario(MAIN), "cn_times_mlr", None, None, 1)
        k, (head, first, stop) = next((k, e) for k, e in enumerate(lines)
                                      if type(e) is tuple and e[2] - e[1] > 2)
        before = "".join(_text_blocks(lines[:k] + [(head, first, (first + stop) // 2)]))
        data = bytearray(cn_trace.read_bytes())
        assert data.startswith(before.encode()) and data[len(before.encode())] == ord("{")
        data[len(before.encode()) + 3] = 0xFF
        cn_trace.write_bytes(data)
        assert run_cli("verify", "--trace", str(cn_trace), "--quiet") == EXIT_IO
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot read trace")
        assert captured.out == ""

    def test_not_utf8_after_a_difference(self, cn_trace, capsys):
        """A line that differs does not end the read: an unreadable byte
        after it still exits 4, not 1."""
        data = cn_trace.read_bytes().replace(b'"stable"', b'"stabel"', 1)
        cn_trace.write_bytes(data[:-2] + b"\xff\n")
        assert run_cli("verify", "--trace", str(cn_trace), "--quiet") == EXIT_IO
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot read trace")
        assert captured.out == ""

    @pytest.mark.parametrize("header, code", [
        ({"selector": "product_merge", "grace": 0}, EXIT_SEARCH),
        ({"stride": 0}, EXIT_VALIDATION),
        ({"action": "pad"}, EXIT_VALIDATION),
    ], ids=["replay_exhausts", "replay_invalid", "not_a_header"])
    def test_not_utf8_outranks_a_failed_replay(self, header, code, cn_trace, capsys):
        """A header or replay that fails is reported only after the file is
        read to its end, so an unreadable byte anywhere still exits 4."""
        first, rest = cn_trace.read_bytes().split(b"\n", 1)
        rec = json.loads(first)
        rec.update((k, v) for k, v in header.items() if k == "action")
        rec["payload"].update((k, v) for k, v in header.items() if k != "action")
        cn_trace.write_bytes(json.dumps(rec).encode() + b"\n" + rest)
        assert run_cli("verify", "--trace", str(cn_trace), "--quiet") == code
        capsys.readouterr()
        with open(cn_trace, "ab") as fh:
            fh.write(b"\xff\n")
        assert run_cli("verify", "--trace", str(cn_trace), "--quiet") == EXIT_IO
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot read trace")
        assert captured.out == ""

    @pytest.mark.parametrize("rewrite", [
        lambda b: b[:b.rstrip(b"\n").rfind(b"\n") + 1],
        lambda b: b + b"x",
        lambda b: json.dumps(json.loads(b[:b.find(b"\n")])).encode() + b[b.find(b"\n"):],
    ], ids=["last_line_removed", "one_byte_more", "header_respaced"])
    def test_text_differs(self, rewrite, cn_trace, capsys):
        cn_trace.write_bytes(rewrite(cn_trace.read_bytes()))
        assert run_cli("verify", "--trace", str(cn_trace), "--quiet") == EXIT_OBLIGATION
        report = json.loads(capsys.readouterr().out.splitlines()[0])
        assert report["deterministic"] is False

    def test_stdout_is_the_trace_file(self, tmp_path, capsys):
        """``run`` without ``--trace`` prints the bytes ``--trace`` writes,
        and both count each event of a run."""
        trace = tmp_path / "t.jsonl"
        argv = ("run", "--scenario", MAIN, "--select", "cn_times_mlr",
                "--stages", "5000")
        assert run_cli(*argv, "--trace", str(trace)) == 0
        err = capsys.readouterr().err
        assert run_cli(*argv) == 0
        captured = capsys.readouterr()
        assert captured.out.encode() == trace.read_bytes()
        assert captured.err == err
        lines = captured.out.splitlines()
        witnesses = sum('"claim":' in line for line in lines)
        assert f": {len(lines) - 2 - witnesses} events, {witnesses} obligations" in err

    @pytest.mark.parametrize("data, code", [
        (None, EXIT_IO),
        (b"", EXIT_IO),
        (b"not json\n", EXIT_IO),
        (b"\xff\xfe\n", EXIT_IO),
        (b"[1]\n", EXIT_VALIDATION),
        (b'{"stage": -1, "action": "pad", "payload": {}}\n', EXIT_VALIDATION),
    ], ids=["missing", "empty", "not_json", "not_utf8", "not_object",
            "not_header"])
    def test_unreadable_or_headerless_trace(self, data, code, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        if data is not None:
            trace.write_bytes(data)
        assert run_cli("verify", "--trace", str(trace), "--quiet") == code
        assert capsys.readouterr().err.startswith(
            "error: validation:" if code == EXIT_VALIDATION else "error:")

    @pytest.mark.parametrize("fmt, message", [
        (2, "trace format 2 is not 1"),
        ("1", "trace format '1' is not 1"),
        (True, "trace format True is not 1"),
        (None, "trace header missing field 'format'"),
    ], ids=["format_2", "format_string", "format_bool", "no_format"])
    def test_other_trace_format_rejected(self, fmt, message, tmp_path, capsys):
        # a header of another format exits 2 before any replay
        trace = tmp_path / "t.jsonl"
        assert run_cli("run", "--scenario", MAIN, "--select", "thm33",
                       "--trace", str(trace)) == 0
        header, *rest = trace.read_text().splitlines()
        rec = json.loads(header)
        if fmt is None:
            del rec["payload"]["format"]
        else:
            rec["payload"]["format"] = fmt
        trace.write_text("\n".join([json.dumps(rec), *rest]) + "\n")
        capsys.readouterr()
        assert run_cli("verify", "--trace", str(trace), "--quiet") == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == f"error: validation: replay: {message}\n"
        assert captured.out == ""

    def test_header_index_budget_rejected(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert run_cli("run", "--scenario", MAIN, "--select", "thm33",
                       "--trace", str(trace)) == 0
        header, *rest = trace.read_text().splitlines()
        rec = json.loads(header)
        rec["payload"]["budgets"]["I"] = 5000
        trace.write_text("\n".join([json.dumps(rec), *rest]) + "\n")
        capsys.readouterr()
        assert run_cli("verify", "--trace", str(trace), "--quiet") == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: validation: replay: budget I=5000 outside 0..64\n")

    @pytest.mark.parametrize("where, message", [
        (("budgets",), "trace header budgets.K is missing"),
        (("scenario", "budgets"), "budgets.K is missing"),
    ], ids=["header_budgets", "scenario_budgets"])
    def test_missing_budget_names_its_record(self, where, message, tmp_path, capsys):
        """A key missing from the header's own budgets is named as the
        header's; one missing from its scenario's budgets by the scenario's
        path, as ``run`` names it."""
        trace = tmp_path / "t.jsonl"
        assert run_cli("run", "--scenario", MAIN, "--select", "thm33",
                       "--trace", str(trace)) == 0
        header, *rest = trace.read_text().splitlines()
        rec = json.loads(header)
        budgets = rec["payload"]
        for key in where:
            budgets = budgets[key]
        del budgets["K"]
        trace.write_text("\n".join([json.dumps(rec), *rest]) + "\n")
        capsys.readouterr()
        assert run_cli("verify", "--trace", str(trace), "--quiet") == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: validation: replay: {message}\n"

    def test_header_scenario_keeps_its_own_index_budget(self, tmp_path, capsys):
        """The header's budgets apply to its scenario as run's overrides do,
        but its tests must fit the scenario's own I, which every header run
        writes satisfies: a component above it exits 2, not a replay that
        differs."""
        trace = tmp_path / "t.jsonl"
        assert run_cli("run", "--scenario", MAIN, "--select", "lemma31",
                       "--trace", str(trace)) == 0
        header, *rest = trace.read_text().splitlines()
        rec = json.loads(header)
        rec["payload"]["scenario"]["budgets"]["I"] = 8
        trace.write_text("\n".join([json.dumps(rec), *rest]) + "\n")
        capsys.readouterr()
        assert run_cli("verify", "--trace", str(trace), "--quiet") == EXIT_VALIDATION
        assert capsys.readouterr().err == ("error: validation: replay: tests schedule a "
                                           "component above the scenario's own I=8\n")

    @pytest.mark.parametrize("selector", sorted(SELECTORS))
    def test_round_trip_under_overrides(self, selector, tmp_path, capsys):
        # I = K-2 = 62 is the largest index budget stratify's head fits
        trace = tmp_path / "t.jsonl"
        assert run_cli("run", "--scenario", MAIN, "--select", selector,
                       "--stages", "300", "--max-index", "62", "--sigma-stages", "5",
                       "--stride", "7", "--trace", str(trace)) == 0
        header = json.loads(trace.read_text().splitlines()[0])["payload"]
        assert (header["budgets"]["S"], header["budgets"]["I"], header["sigma_stages"],
                header["stride"]) == (300, 62, 5, 7)
        capsys.readouterr()
        assert run_cli("verify", "--trace", str(trace), "--quiet") == 0
        report = json.loads(capsys.readouterr().out.splitlines()[0])
        assert report["deterministic"] is True
        assert report["stride"] == 7

    def test_verify_on_deep_scenario(self, tmp_path, capsys):
        deep = str(bundled_scenario("deep"))
        trace = tmp_path / "deep.jsonl"
        assert run_cli("run", "--scenario", deep, "--select", "lemma31",
                       "--trace", str(trace)) == 0
        assert run_cli("verify", "--trace", str(trace), "--quiet") == 0
        report = json.loads(capsys.readouterr().out.splitlines()[0])
        assert report["deterministic"] is True


@pytest.mark.parametrize("selector", sorted(SELECTORS))
def test_one_derivation_per_command(selector, tmp_path, monkeypatch, capsys):
    """A command builds the universal test once, and its descending chain
    and derived tests at most once: validation, the selector and verify's
    budget sweep share the ones on the command's Scenario.  Only the derived
    tests call ``even_shift``."""
    calls = {"universal_sum": 0, "descending_chain": 0, "even_shift": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:  # every binding, so a call by any module is counted
        fn = getattr(enumeration, name)
        for mod in (enumeration, cli):
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counted(name, fn))
    trace = tmp_path / "t.jsonl"
    for argv in (["run", "--scenario", MAIN, "--select", selector,
                  "--trace", str(trace)],
                 ["verify", "--trace", str(trace), "--quiet"]):
        calls.update(dict.fromkeys(calls, 0))
        assert run_cli(*argv) == 0
        assert calls["universal_sum"] == 1, argv[0]
        assert calls["descending_chain"] <= 1, argv[0]
        assert calls["even_shift"] <= 1, argv[0]


def test_one_tail_union_per_lay_to_lay_run(tmp_path, monkeypatch):
    """``run --select lay_to_lay`` builds the tail-union test it watches
    once, not once per random stream."""
    calls = []
    fn = enumeration.shift_union

    def counted(v):
        calls.append(v)
        return fn(v)

    for mod in (enumeration, cli, realizers):  # every binding
        if getattr(mod, "shift_union", None) is fn:
            monkeypatch.setattr(mod, "shift_union", counted)
    assert len(load_scenario(MAIN).random_streams) > 1
    assert run_cli("run", "--scenario", MAIN, "--select", "lay_to_lay",
                   "--trace", str(tmp_path / "t.jsonl")) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("bundle", ["main", "deep"])
def test_one_inner_run_per_compose_star_stream(bundle, tmp_path, monkeypatch):
    """``run --select compose_star`` runs ``rd_from_lay_phi`` once per random
    stream, for the second call's input, and never again per watermark."""
    calls = []
    fn = realizers.rd_from_lay_phi

    def counted(*args):
        calls.append(args[2].name)
        return fn(*args)

    monkeypatch.setattr(realizers, "rd_from_lay_phi", counted)
    scenario = str(bundled_scenario(bundle))
    assert run_cli("run", "--scenario", scenario, "--select", "compose_star",
                   "--trace", str(tmp_path / "t.jsonl")) == 0
    assert calls == list(load_scenario(scenario).random_streams)


def _frames() -> int:
    """The number of Python frames on the stack below the caller's."""
    frame, n = sys._getframe(1), 0
    while frame is not None:
        frame, n = frame.f_back, n + 1
    return n


def test_nesting_sweep_exits_without_traceback(tmp_path, capsys):
    """Scenarios, their ``extra`` field and trace first lines nested around
    the nesting cap, at 984 levels and around the recursion limit: a
    document too deep to decode exits 4; a scenario past the cap, or a
    document that decodes but is no scenario or header, exits 2; every
    trace that ``run`` writes verifies; and none raises."""
    scenario, trace = tmp_path / "s.json", tmp_path / "t.jsonl"
    head = json.dumps(json.loads(Path(MAIN).read_text(encoding="utf-8")))[:-1]
    top = sys.getrecursionlimit() - _frames()
    cap = enumeration.MAX_NESTING
    codes = []

    def command(*argv):
        code = run_cli(*argv)
        err = capsys.readouterr().err
        if code in (EXIT_VALIDATION, EXIT_IO):
            assert err.startswith("error: validation:" if code == EXIT_VALIDATION
                                  else "error: cannot read")
            assert err.count("\n") == 1
        codes.append(code)
        return code, err

    for depth in [*range(cap - 4, cap + 3), 984, *range(top - 30, top + 10), 100_000]:
        nested = "[" * depth + "]" * depth
        for doc in (nested, f'{head},"extra":{nested}}}'):
            scenario.write_text(doc, encoding="utf-8")
            code, err = command("run", "--scenario", str(scenario), "--select",
                                "lemma31", "--trace", str(trace))
            if doc is not nested and depth + 1 <= cap:  # the object is level 1
                assert code == 0
            if code == 0:
                assert command("verify", "--trace", str(trace), "--quiet")[0] == 0
            elif doc is not nested and code == EXIT_VALIDATION:
                assert f"cap of {cap} levels" in err
        trace.write_text(nested + "\n", encoding="utf-8")
        command("verify", "--trace", str(trace), "--quiet")
    assert set(codes) <= {0, EXIT_VALIDATION, EXIT_IO} and EXIT_IO in codes


def test_header_too_deep_to_encode_is_invalid():
    """A scenario nested past the cap is rejected when it is loaded, before
    any trace header embeds it; one at the cap loads, and its header line
    encodes and decodes."""
    cap = enumeration.MAX_NESTING
    raw = load_scenario(MAIN).raw

    def nested(levels: int) -> list:
        """``levels`` lists, the innermost holding a number, which is no level."""
        value: list = [0]
        for _ in range(levels - 1):
            value = [value]
        return value

    with pytest.raises(ScenarioError, match=f"cap of {cap} levels"):
        load_scenario({**raw, "extra": nested(sys.getrecursionlimit())})
    with pytest.raises(ScenarioError, match=f"cap of {cap} levels"):
        load_scenario({**raw, "extra": {"k": nested(cap - 1)}})
    sc = load_scenario({**raw, "extra": nested(cap - 1)})
    head = cli.trace_lines(sc, "lemma31", ConstructionTrace(), grace=None,
                           sigma_stages=None, stride=1)[0]
    assert json.loads(head)["payload"]["scenario"] == sc.raw


def test_replay_of_a_header_past_the_nesting_cap_is_invalid(tmp_path, capsys):
    """A trace header whose scenario decodes but nests past the cap exits 2
    from verify's replay, naming the cap."""
    cap = enumeration.MAX_NESTING
    raw = load_scenario(MAIN).raw
    trace = tmp_path / "t.jsonl"
    for extra, code in (("[" * (cap - 1) + "]" * (cap - 1), EXIT_OBLIGATION),
                        ("[" * cap + "]" * cap, EXIT_VALIDATION)):
        header = (f'{{"action":"header","payload":{{"budgets":{json.dumps(raw["budgets"])},'
                  f'"format":1,"grace":null,"scenario":{json.dumps(raw)[:-1]},'
                  f'"extra":{extra}}},"selector":"lemma31","sigma_stages":null,'
                  f'"stride":1}},"stage":-1}}')
        trace.write_text(header + "\n", encoding="utf-8")
        assert run_cli("verify", "--trace", str(trace), "--quiet") == code
        err = capsys.readouterr().err
        if code == EXIT_VALIDATION:
            assert err == (f"error: validation: replay: scenario nests deeper "
                           f"than the cap of {cap} levels\n")


def test_produced_tests_share_the_derived_tests():
    """``produced_tests`` reuses the Scenario's derived tests and adds the
    constructions' tests to a copy, so verify's sweep never sees them."""
    sc = load_scenario(MAIN)
    derived = sc.derived
    names = sorted(derived)
    produced = cli.produced_tests(sc)
    assert all(produced[name] is derived[name] for name in names)
    assert len(produced) > len(names)
    assert sc.derived is derived and sorted(derived) == names


class TestDeterminism:
    @pytest.mark.parametrize("selector", sorted(SELECTORS))
    def test_double_run_identical(self, selector, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run_cli("run", "--scenario", MAIN, "--select", selector,
                       "--trace", str(a)) == 0
        assert run_cli("run", "--scenario", MAIN, "--select", selector,
                       "--trace", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("scenario_name", ["main", "deep"])
    @pytest.mark.parametrize("selector", ["lemma31", "combinators", "rd_from_lay"])
    def test_verify_after_run_on_both_bundles(self, scenario_name, selector,
                                              tmp_path):
        scenario = str(bundled_scenario(scenario_name))
        trace = tmp_path / "t.jsonl"
        assert run_cli("run", "--scenario", scenario, "--select", selector,
                       "--trace", str(trace), "--stride", "64") == 0
        assert run_cli("verify", "--trace", str(trace), "--quiet") == 0


def test_cn_times_mlr_decodes_at_the_advice(main_scenario, monkeypatch):
    """The decode reads the advice, so an advice below the stage at which
    the instance settles fails the witness."""
    x = main_scenario.stream(main_scenario.random_streams[0])
    skip5 = [1, 3, 2, 5, 4]
    assert cn_times_mlr_psi(skip5, x, 3)[0] == 3
    assert cn_times_mlr_psi(skip5, x, 512)[0] == 5
    monkeypatch.setattr(cli, "rd_at_stage", lambda *args: 3)
    trace = cli.execute(main_scenario, "cn_times_mlr")
    failed = {w["claim"]: w["data"] for w in trace.witnesses
              if w["status"] == "fail"}
    names = main_scenario.random_streams[:2]
    assert failed == {f"cn_times_mlr.decodes.{n}.skip5": {"decoded": 3, "want": 5}
                      for n in names}
    assert all(trace.outputs["runs"][f"{n}.omega"]["verdict"] == "pass"
               for n in names)


class TestParserReuse:
    @pytest.fixture
    def builds(self, monkeypatch):
        """Calls of ``build_parser`` from a process with no parser yet."""
        calls = []
        build = cli.build_parser

        def counted():
            calls.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counted)
        monkeypatch.setattr(cli, "_parser", None)
        return calls

    def test_import_builds_no_parser(self):
        code = ("import argparse\n"
                "built = []\n"
                "init = argparse.ArgumentParser.__init__\n"
                "def counted(self, *a, **k):\n"
                "    built.append(1)\n"
                "    init(self, *a, **k)\n"
                "argparse.ArgumentParser.__init__ = counted\n"
                "import cantorlab.cli as cli\n"
                "print(len(built), cli._parser)")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.split() == ["0", "None"]

    def test_built_once_across_calls(self, builds, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert run_cli("list-constructions") == 0
        assert run_cli("run", "--scenario", MAIN, "--select", "thm33",
                       "--trace", str(trace)) == 0
        assert run_cli("verify", "--trace", str(trace), "--quiet") == 0
        assert run_cli("list-constructions") == 0
        assert len(builds) == 1

    def test_no_option_leaks_between_calls(self, builds, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run_cli("run", "--scenario", MAIN, "--select", "lemma31",
                       "--grace", "5", "--stride", "3", "--trace", str(a)) == 0
        assert run_cli("run", "--scenario", MAIN, "--select", "lemma31",
                       "--trace", str(b)) == 0
        first, second = (p.read_text().splitlines()[0] for p in (a, b))
        assert '"grace":5' in first and '"stride":3' in first
        assert '"grace":null' in second and '"stride":1' in second
        assert len(builds) == 1

    def test_argparse_error_then_valid_call(self, builds, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--scenario", MAIN)  # no --select
        assert exc.value.code == EXIT_VALIDATION
        assert "--select" in capsys.readouterr().err
        assert run_cli("run", "--scenario", MAIN, "--select", "lemma31",
                       "--trace", str(tmp_path / "t.jsonl")) == 0
        assert len(builds) == 1

    @pytest.mark.parametrize("argv, text", [
        (["--help"], "list-constructions"),
        (["run", "--help"], "--sigma-stages"),
    ])
    def test_help_reaches_captured_stdout(self, builds, argv, text, capsys):
        assert run_cli("list-constructions") == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 0
        assert text in capsys.readouterr().out
        assert len(builds) == 1


# Values of every type the JSON reader returns, one of another type taking
# a node's place; ``inf`` is the reader's ``Infinity``.
SWAPS = [None, True, False, 0, -1, 1.5, 10**30, -10**30, float("inf"), "", "01",
         "1" * 70, "x", [], [0], [[]], {}, {"a": 1}]


def _paths(doc, path=()):
    """Every path of a JSON document, its root first."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _paths(value, (*path, key))


@st.composite
def edited(draw, doc):
    """A copy of ``doc`` after one to three edits at drawn paths: a value of
    another type in a node's place, the node deleted, or the node
    duplicated, next to itself in a list or over a sibling in an object."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        action = draw(st.sampled_from(["swap", "delete", "duplicate"]))
        old = doc
        for key in path:
            old = old[key]
        swap = copy.deepcopy(draw(st.sampled_from(
            [v for v in SWAPS if type(v) is not type(old)])))
        if not path:  # the root can only be swapped
            doc = swap
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        if action == "swap":
            parent[key] = swap
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(old))
        else:
            parent[draw(st.sampled_from(sorted(parent)))] = copy.deepcopy(old)
    return doc


def _outcome(argv):
    """``main(argv)``'s exit code and its stdout and stderr lines."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, (out.getvalue() + err.getvalue()).splitlines()


def _names_missing_key(doc, path):
    """Whether ``path`` (``tests[0][3].stage``) leads, from ``doc``, to an
    object without the path's last key."""
    *keys, last = [int(m[1:-1]) if m[0] == "[" else m
                   for m in re.findall(r"\[\d+\]|[^.[\]]+", path)]
    for key in keys:
        if not (type(doc) is dict and key in doc
                or type(doc) is list and type(key) is int and key < len(doc)):
            return False
        doc = doc[key]
    return type(doc) is dict and last not in doc


class TestMalformedInput:
    """Edits of ``main.json`` at S=64 and of valid trace headers, at drawn
    JSON paths, never raise out of ``main``: every command exits 0-4, and 1
    only with a FAIL line.  No message is a bare ``malformed scenario:``,
    and a missing key is named by its full JSON path."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("malformed")
        raw = json.load(open(MAIN))
        raw["budgets"]["S"] = 64
        scenario = root / "main64.json"
        scenario.write_text(json.dumps(raw))
        traces = {}
        for selector in sorted(SELECTORS):
            trace = root / "trace.jsonl"
            code, _ = _outcome(["run", "--scenario", str(scenario), "--select", selector,
                                "--trace", str(trace)])
            assert code in (0, 1)
            header, rest = trace.read_text().split("\n", 1)
            traces[selector] = (json.loads(header)["payload"], rest)
        return root, raw, traces

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_every_exit_is_mapped(self, inputs, data):
        root, raw, traces = inputs
        selector = data.draw(st.sampled_from(sorted(SELECTORS)))
        if data.draw(st.booleans()):
            path = root / "edited.json"
            path.write_text(json.dumps(data.draw(edited(raw))))
            argv = ["run", "--scenario", str(path), "--select", selector,
                    "--trace", str(root / "edited.jsonl")]
        else:
            header, rest = traces[selector]
            path = root / "edited_header.jsonl"
            path.write_text(json.dumps({"stage": -1, "action": "header",
                                        "payload": data.draw(edited(header))}) + "\n" + rest)
            argv = ["verify", "--trace", str(path)]
        code, lines = _outcome(argv)
        assert code in range(5) and code != EXIT_IO  # every file can be read
        assert code != EXIT_OBLIGATION or any(line.startswith("FAIL ") for line in lines)
        assert [line for line in lines if "malformed scenario:" in line] == []
        doc = json.loads(path.read_text().split("\n", 1)[0])
        roots = [""] if argv[0] == "run" else ["payload.", "payload.scenario."]
        for line in lines:
            if missing := re.fullmatch(
                    r"error: validation: (?:replay: )?(trace header )?(\S+) is missing", line):
                named = ["payload."] if missing[1] else roots
                assert any(_names_missing_key(doc, root + missing[2]) for root in named), line
