"""Batch front end: load a scenario, run one construction or reduction,
emit a line-delimited trace, and re-verify every recorded obligation.

Exit codes: 0 ok, 1 obligation or determinism failure, 2 validation failure,
3 search exhaustion, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import groupby, islice
from os import PathLike
from typing import Callable, Iterable, Iterator, NamedTuple, TextIO

from .core import (
    CantorError,
    Frozen,
    ScenarioError,
    SearchExhaustedError,
    json_int,
)
from .constructions import (
    ConstructionTrace,
    build_lemma31,
    build_lemma63,
    build_thm33,
    build_thm41,
    build_thm410,
    jline,
)
from .deficiency import rd_at_stage
from .enumeration import (
    Budgets,
    MLTest,
    Scenario,
    effective_top,
    index_shift,
    load_scenario,
    replace_component,
    shift_union,
    validate_scenario,
)

EXIT_OK = 0
EXIT_OBLIGATION = 1
EXIT_VALIDATION = 2
EXIT_SEARCH = 3
EXIT_IO = 4

TRACE_FORMAT = 1


# ---------------------------------------------------------------------------
# budget sweep and the produced test families
# ---------------------------------------------------------------------------

def _budget_sweep(trace: ConstructionTrace, tests: dict[str, MLTest],
                  budgets: Budgets, stride: int) -> int:
    """Exact measure-budget check over the (index, stage) stride grid.

    Every grid point counts as a check, but each component's measure is
    read once, at the last grid point: views only grow, so a measure never
    falls, and its value there is its largest on the grid.  From the last
    scheduled stage on, it is the final measure, which builds no view.  It
    is checked against 2**-i exactly, on its integers (``Dyadic.within``).
    """
    last = budgets.max_stage - budgets.max_stage % stride
    points = last // stride + 1
    checks = 0
    for name, t in sorted(tests.items()):
        ok = all(comp.measure_at(last).within(i) for i, comp in enumerate(t.components))
        checks += points * len(t.components)
        trace.witness(f"budget.{name}", ok, components=len(t.components))
    trace.add(-1, "budget_sweep", checks=checks, stride=stride)
    return checks


def produced_tests(sc: Scenario,
                   sigma_stages: int | None = None) -> dict[str, MLTest]:
    """The scenario's derived tests plus every test the constructions
    output, in a new dict: ``sc.derived`` stays as verify sweeps it.  Only
    the outputs are kept, so the builders skip their closing obligations."""
    tests = dict(sc.derived)
    u, budgets = sc.universal, sc.budgets
    out31 = build_lemma31(u, budgets, sigma_stages, obligations=False).outputs
    tests["lemma31_v"] = out31["v"]
    tests["surgered"] = replace_component(u, 0, out31["w0"])
    out33 = build_thm33(u, sc.partial_functions, budgets, obligations=False).outputs
    tests["thm33_w"], tests["thm33_v"] = out33["w"], out33["v"]
    tests["thm41_w"] = build_thm41(tests["chain"], sc.functionals, budgets,
                                   sc.inert_functionals, obligations=False).outputs["w"]
    tests["thm410_u"] = build_thm410(index_shift(u, 2), sc.halting, budgets,
                                     obligations=False).outputs["u"]
    return tests


# ---------------------------------------------------------------------------
# selectors: a construction returns its trace; a reduction imports its
# realizers when it runs and yields one (tag, run trace, (pre_output,
# oracle_answer, post_output, verdict)) case per input, folded by ``execute``
# ---------------------------------------------------------------------------

class RunOptions(Frozen):
    __slots__ = ("grace", "sigma_stages", "stride")

    def __init__(self, grace: int | None, sigma_stages: int | None, stride: int) -> None:
        self._set(grace, sigma_stages, stride)


Cases = Iterator[tuple[str, ConstructionTrace, tuple]]


def _thm32(sc: Scenario, u: MLTest, o: RunOptions) -> ConstructionTrace:
    trace = build_lemma31(u, sc.budgets, o.sigma_stages)
    v = trace.outputs["v"]
    surgery = replace_component(u, 0, trace.outputs["w0"])
    trace.outputs["surgered"] = surgery
    final = max(sc.budgets.max_stage, surgery.final_stage())
    comp0 = surgery.stage_view(0, final)
    for i in range(v.max_index + 1):
        trace.witness(f"thm32.non_containment.{i}",
                      not v.stage_view(i, final).is_subset_of(comp0))
    return trace


def _thm410(sc: Scenario, u: MLTest, o: RunOptions) -> ConstructionTrace:
    streams = [sc.stream(n) for n in sc.random_streams]
    return build_thm410(index_shift(u, 2), sc.halting, sc.budgets, streams)


def _combinators(sc: Scenario, u: MLTest, o: RunOptions) -> ConstructionTrace:
    trace = ConstructionTrace()
    tests = produced_tests(sc, o.sigma_stages)
    _budget_sweep(trace, tests, sc.budgets, o.stride)
    trace.witness("combinators.chain_nested",
                  tests["chain"].check_nested_stagewise())
    trace.outputs = dict(sorted(tests.items()))
    return trace


def _lay_to_lay(sc: Scenario, u: MLTest, o: RunOptions) -> Cases:
    from .realizers import lay_to_lay, lay_to_lay_contract, verify_pads
    budgets = sc.budgets
    chain = sc.chain
    watched = shift_union(chain)
    for name in sc.random_streams:
        x = sc.stream(name)
        run = lay_to_lay(watched, u, x, budgets, o.grace)
        sound = lay_to_lay_contract(run, chain, u, x, budgets)
        run.trace.witness("lay_to_lay.sound", sound)
        run.trace.witness("lay_to_lay.pads_valid",
                          verify_pads(run, u, budgets.max_stage))
        bound = rd_at_stage(run.output, u, budgets.max_stage)
        yield name, run.trace, (run.committed, bound, bound, sound)


def _rd_from_lay(sc: Scenario, u: MLTest, o: RunOptions) -> Cases:
    from .realizers import rd_from_lay_phi, rd_from_lay_psi, verify_pads
    big_s = sc.budgets.max_stage
    for name in sc.random_streams:
        x = sc.stream(name)
        run = rd_from_lay_phi(u, u, x, sc.budgets, o.grace)
        advice = rd_at_stage(run.output, u, big_s)
        decoded = rd_from_lay_psi(u, x, advice, sc.budgets)
        expected = rd_at_stage(x, u, big_s)
        run.trace.witness("rd_from_lay.exact", decoded == expected,
                          advice=advice, decoded=decoded, expected=expected)
        run.trace.witness("rd_from_lay.pads_valid", verify_pads(run, u, big_s))
        yield name, run.trace, (run.committed, advice, decoded, decoded == expected)


def _product_merge(sc: Scenario, u: MLTest, o: RunOptions) -> Cases:
    from .realizers import product_merge, verify_pads
    big_s = sc.budgets.max_stage
    chain = sc.chain
    names = list(sc.random_streams)
    for k, nx in enumerate(names):
        ny = names[(k + 1) % len(names)]
        x, y = sc.stream(nx), sc.stream(ny)
        run = product_merge(chain, x, y, sc.budgets, o.grace)
        got = rd_at_stage(run.output, chain, big_s)
        want = max(rd_at_stage(x, chain, big_s),
                   rd_at_stage(y, chain, big_s))
        run.trace.witness("product_merge.dominates", got >= want,
                          got=got, want=want)
        run.trace.witness("product_merge.pads_valid",
                          verify_pads(run, chain, big_s))
        yield f"{nx}+{ny}", run.trace, (run.committed, got, [got, got], got >= want)


def _parallel_merge(sc: Scenario, u: MLTest, o: RunOptions) -> Cases:
    from .realizers import parallel_merge, verify_pads
    big_s = sc.budgets.max_stage
    family = sc.parallel_family or sc.random_streams[:3]
    xs = [sc.stream(n) for n in family]
    run = parallel_merge(u, xs, sc.budgets, o.grace)
    got = rd_at_stage(run.output, u, big_s)
    want = max(rd_at_stage(x, u, big_s) for x in xs)
    run.trace.witness("parallel_merge.dominates", got >= want,
                      got=got, want=want)
    run.trace.witness("parallel_merge.pads_valid", verify_pads(run, u, big_s))
    yield "+".join(family), run.trace, (run.committed, got, got, got >= want)


def _compose_star(sc: Scenario, u: MLTest, o: RunOptions) -> Cases:
    """Two calls of ``rd_from_lay``: the second's input ``z`` is the first's
    output on ``x``, built once per stream, and ``rd_from_lay_psi`` decodes
    the composite output's deficiency against the chain."""
    from .realizers import compose_star, rd_from_lay_phi, rd_from_lay_psi
    budgets, big_s = sc.budgets, sc.budgets.max_stage
    chain = sc.chain
    for name in sc.random_streams:
        x = sc.stream(name)
        z = rd_from_lay_phi(u, u, x, budgets, o.grace).output
        run = compose_star(chain, x, z, budgets, o.grace)
        n = rd_at_stage(x, chain, big_s)
        m = rd_at_stage(run.output, chain, big_s)
        decoded = rd_from_lay_psi(u, x, m, budgets)
        expected = rd_at_stage(x, u, big_s)
        run.trace.witness("compose_star.end_to_end", decoded == expected,
                          decoded=decoded, expected=expected)
        run.trace.witness(
            "compose_star.dominates",
            m >= rd_at_stage(z, chain, big_s))
        yield name, run.trace, (run.committed, [n, m], decoded, decoded == expected)


def _lay_to_cn(sc: Scenario, u: MLTest, o: RunOptions) -> Cases:
    from .realizers import lay_to_cn, lay_to_cn_psi
    for name in sc.random_streams:
        x = sc.stream(name)
        run = lay_to_cn(u, x, sc.budgets)
        expected = rd_at_stage(x, u, sc.budgets.max_stage)
        decoded = (lay_to_cn_psi(run.survivor, u)
                   if run.survivor is not None and run.survivor >= 2 else None)
        run.trace.witness("lay_to_cn.round_trip", decoded == expected,
                          survivor=run.survivor, decoded=decoded,
                          expected=expected)
        yield name, run.trace, (run.instance_values()[:40], run.survivor,
                                decoded, decoded == expected)


def _cn_times_mlr(sc: Scenario, u: MLTest, o: RunOptions) -> Cases:
    """Decode each instance at the advice: ``decodes`` is owed only when the
    advice reaches the stage, ``len(values) - 1``, at which its value settles."""
    from .realizers import cn_times_mlr_psi, cn_times_mlr_to_lay
    big_s = sc.budgets.max_stage
    instances = [("omega", []), ("skip5", [1, 3, 2, 5, 4])]
    for name in sc.random_streams[:2]:
        x = sc.stream(name)
        for tag, values in instances:
            run = cn_times_mlr_to_lay(u, values, x, sc.budgets, o.grace)
            advice = rd_at_stage(run.output, u, big_s)
            decoded, _ = cn_times_mlr_psi(values, x, advice)
            want, _ = cn_times_mlr_psi(values, x, big_s)
            run.trace.witness("cn_times_mlr.decodes", decoded == want,
                              decoded=decoded, want=want)
            yield f"{name}.{tag}", run.trace, (run.committed, advice, decoded,
                                               decoded == want)


def _delta02_to_lay(sc: Scenario, u: MLTest, o: RunOptions) -> Cases:
    from .realizers import delta02_to_lay_phi, delta02_to_lay_psi
    budgets, big_s = sc.budgets, sc.budgets.max_stage
    chain = sc.chain
    t_trees = [sc.tree(n) for n in sorted(sc.trees) if n.startswith("inA")]
    s_trees = [sc.tree(n) for n in sorted(sc.trees) if n.startswith("outA")]
    if not t_trees or len(t_trees) != len(s_trees):
        raise ScenarioError("delta02 needs matching inA*/outA* tree families")
    for name in sc.random_streams:
        x = sc.stream(name)
        run = delta02_to_lay_phi(chain, t_trees, s_trees, x, budgets, o.grace)
        advice = rd_at_stage(run.output, chain, big_s)
        got = delta02_to_lay_psi(t_trees, s_trees, x, advice,
                                 budgets.max_depth, big_s)
        want = 1 if any(tr.carries(x, big_s) for tr in t_trees) else 0
        run.trace.witness("delta02.membership", got == want,
                          advice=advice, got=got, want=want)
        yield name, run.trace, (run.committed, advice, got, got == want)


def _semidecidable_star(sc: Scenario, u: MLTest, o: RunOptions) -> Cases:
    from .realizers import semidecidable_to_rd_star
    if "layerA" not in sc.opens:
        raise ScenarioError("semidecidable needs the 'layerA' open family")
    for name in sc.random_streams:
        run = semidecidable_to_rd_star(u, sc.opens["layerA"], sc.stream(name),
                                       sc.budgets, o.grace)
        yield name, run.trace, (run.f_run.committed, [run.g_advice, run.f_advice],
                                run.verdict, run.verdict == run.expected)


class CatalogEntry(NamedTuple):
    """One selector: ``run(scenario, scenario.universal, options)`` returns
    the trace of a ``construction`` or the cases of a ``reduction``."""

    name: str
    anchor: str
    kind: str
    description: str
    run: Callable[[Scenario, MLTest, RunOptions], ConstructionTrace | Cases]


CATALOG: tuple[CatalogEntry, ...] = (
    CatalogEntry("lemma31", "3.1", "construction",
                 "marker family no single open cover contains",
                 lambda sc, u, o: build_lemma31(u, sc.budgets, o.sigma_stages)),
    CatalogEntry("thm32", "3.2", "construction",
                 "component surgery: swap the carved cover into index 0", _thm32),
    CatalogEntry("thm33", "3.3", "construction",
                 "divergence witnesses against partial-function tables",
                 lambda sc, u, o: build_thm33(u, sc.partial_functions, sc.budgets)),
    CatalogEntry("thm41", "4.1", "construction",
                 "diagonal in/out set defeating every advice table",
                 lambda sc, u, o: build_thm41(sc.chain, sc.functionals,
                                              sc.budgets, sc.inert_functionals)),
    CatalogEntry("thm410", "4.10", "construction",
                 "halting-sensitive rebuild over the unary-prefixed test", _thm410),
    CatalogEntry("lemma63", "6.3", "construction",
                 "right-shift cone enumeration along a shrinking tree",
                 lambda sc, u, o: build_lemma63(sc.tree("positive"), sc.budgets)),
    CatalogEntry("combinators", "1.1/5.2", "construction",
                 "derived tests (sum, chain, shifts, stratification) with budget sweep",
                 _combinators),
    CatalogEntry("lay_to_lay", "5.2", "reduction",
                 "deficiency-bound transfer between tests", _lay_to_lay),
    CatalogEntry("rd_from_lay", "5.4", "reduction",
                 "exact deficiency recovery from any upper bound", _rd_from_lay),
    CatalogEntry("product_merge", "5.6", "reduction",
                 "pairwise merge dominating both deficiencies", _product_merge),
    CatalogEntry("parallel_merge", "5.7", "reduction",
                 "dovetailed merge of a uniformly bounded family", _parallel_merge),
    CatalogEntry("compose_star", "5.8", "reduction",
                 "two-call composition through a pair of exact bounds", _compose_star),
    CatalogEntry("lay_to_cn", "5.9", "reduction",
                 "prime-power number-choice encoding of the deficiency", _lay_to_cn),
    CatalogEntry("cn_times_mlr", "5.10", "reduction",
                 "tagged number choice decoded through a deficiency bound",
                 _cn_times_mlr),
    CatalogEntry("delta02_to_lay", "5.11", "reduction",
                 "two-sided tree membership decided from a bound", _delta02_to_lay),
    CatalogEntry("semidecidable_star", "6.1", "reduction",
                 "layerwise semi-decidable membership via two exact bounds",
                 _semidecidable_star),
)

SELECTORS: dict[str, CatalogEntry] = {c.name: c for c in CATALOG}


def execute(sc: Scenario, selector: str, *, grace: int | None = None,
            sigma_stages: int | None = None, stride: int = 1) -> ConstructionTrace:
    """Run one selector over a validated scenario, returning its full trace.

    A reduction's trace is its cases in order: for each, a ``run_stream``
    event, the case's events, its witnesses with the tag appended to their
    claims, and a record under ``outputs["runs"][tag]``.
    """
    entry = SELECTORS.get(selector)
    if entry is None:
        raise ScenarioError(f"unknown selector {selector!r}")
    result = entry.run(sc, sc.universal,
                       RunOptions(grace, sigma_stages, stride))
    if entry.kind == "construction":
        return result
    trace = ConstructionTrace()
    runs: dict[str, dict] = {}
    trace.outputs["runs"] = runs
    for tag, run_trace, (pre_output, oracle_answer, post_output, verdict) in result:
        trace.add(-1, "run_stream", stream=tag)
        trace.extend(run_trace, tag)
        runs[tag] = {"pre_output": pre_output, "oracle_answer": oracle_answer,
                     "post_output": post_output,
                     "verdict": "pass" if verdict else "fail"}
    return trace


# ---------------------------------------------------------------------------
# trace files
# ---------------------------------------------------------------------------

def trace_lines(sc: Scenario, selector: str, trace: ConstructionTrace, *,
                grace: int | None, sigma_stages: int | None,
                stride: int) -> list[str | tuple]:
    """The header line, then the trace's lines and run entries."""
    header = {"stage": -1, "action": "header", "payload": {
        "format": TRACE_FORMAT,
        "selector": selector,
        "budgets": sc.budgets.to_json(),
        "grace": grace,
        "sigma_stages": sigma_stages,
        "stride": stride,
        "scenario": sc.raw,
    }}
    return [jline(header)] + trace.lines()


# The digits of the stages 0..999, and the same zero-padded to 3 digits.
_DIGITS = [str(i) for i in range(1000)]
_PADDED = [f"{i:03}" for i in range(1000)]


def _text_blocks(lines: Iterable[str | tuple]) -> Iterator[str]:
    """The trace text of ``trace_lines``' entries, each line ended by "\n",
    in blocks of at most 1024 lines: writing and comparing a trace never
    builds its whole text.  This is the one place a run entry is expanded:
    a witness run ``(head, stages, tail)`` to ``head + str(q) + tail`` at
    each stage ``q``, up to 1024 stages written by one ``%d,`` format whose
    commas become ``tail + "\n" + head``, an event run ``(head, first, stop)`` to ``head +
    str(s) + "}"``, its stages that share ``k = s // 1000`` as one block, a
    join over a digit table slice: each line is ``head + str(k)`` and then
    the 3-digit ``s % 1000``, or, for k = 0, ``head`` and the unpadded
    stage; ``add_run`` keeps every stage at least 0."""
    for kind, group in groupby(lines, type):
        if kind is str:
            while block := list(islice(group, 1024)):
                yield "\n".join([*block, ""])
            continue
        for head, first, stop in group:
            if type(first) is list:  # a witness run; stop is its tail
                sep = stop + "\n" + head
                for a in range(0, len(first), 1024):  # a block's stages in one format
                    block = tuple(first[a:a + 1024])
                    yield f'{head}{("%d," * len(block) % block)[:-1].replace(",", sep)}{stop}\n'
                continue
            for k in range(first // 1000, (stop + 999) // 1000):
                lo, hi = max(first - 1000 * k, 0), min(stop - 1000 * k, 1000)
                lead, digits = (head + str(k), _PADDED) if k else (head, _DIGITS)
                yield lead + ("}\n" + lead).join(digits[lo:hi]) + "}\n"


def write_trace(path: str | PathLike, lines: list[str | tuple]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_text_blocks(lines))


def read_header(line: str) -> dict:
    """The header payload of a trace whose first line is ``line``."""
    rec = json.loads(line)
    if (not isinstance(rec, dict) or rec.get("action") != "header"
            or not isinstance(rec.get("payload"), dict)):
        raise ScenarioError("trace file has no header record")
    return rec["payload"]


def produce(sc: Scenario, selector: object, grace: object, sigma_stages: object,
            stride: object) -> tuple[ConstructionTrace, list]:
    """Check the run options (ScenarioError), run the selector and serialize
    its trace: ``run`` and verify's replay both go through here, so a trace
    and its replay come from the same code."""
    if not isinstance(selector, str) or selector not in SELECTORS:
        raise ScenarioError(f"unknown selector {selector!r}; "
                            "see list-constructions")
    for name, value, least in (("grace", grace, 0), ("sigma_stages", sigma_stages, 1)):
        if value is not None:
            json_int(value, name, least)
    json_int(stride, "stride", 1)
    validate_scenario(sc)
    trace = execute(sc, selector, grace=grace, sigma_stages=sigma_stages,
                    stride=stride)
    lines = trace_lines(sc, selector, trace, grace=grace,
                        sigma_stages=sigma_stages, stride=stride)
    return trace, lines


def regenerate(header: dict) -> tuple[Scenario, ConstructionTrace, list]:
    """Re-run the selector a trace header describes, with its budgets; a
    malformed header, or one of another trace format, raises ScenarioError."""
    try:
        fmt = header["format"]
        if type(fmt) is not int or fmt != TRACE_FORMAT:
            raise ScenarioError(f"trace format {fmt!r} is not {TRACE_FORMAT}")
        selector, budgets, raw = header["selector"], header["budgets"], header["scenario"]
    except KeyError as exc:
        raise ScenarioError(f"trace header missing field {exc}") from None
    if not isinstance(raw, dict):  # a path would be read from disk
        raise ScenarioError("trace header scenario must be a JSON object")
    try:
        overrides = Budgets.from_json(budgets).to_json()
    except ScenarioError as exc:
        raise ScenarioError(f"trace header {exc}") from None
    sc = load_scenario(raw, overrides)
    own = raw["budgets"]["I"]  # the I of the file run read, checked by load_scenario
    if any(effective_top(t) > own for t in sc.tests):
        raise ScenarioError(f"tests schedule a component above the scenario's own I={own}")
    return (sc, *produce(sc, selector, header.get("grace"), header.get("sigma_stages"),
                         header.get("stride", 1)))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

# The one map from a failure to its exit code: per command step, rows of
# (exception classes, exit code, message), the first match winning.  An
# exception no row names propagates.  A decode that nests too deeply raises
# RecursionError, and so reads as unreadable input.
_UNREADABLE = (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError)
_INVALID = (CantorError, ValueError)
FAILURES = {
    "read scenario": ((_UNREADABLE, EXIT_IO, "cannot read scenario"),
                      (CantorError, EXIT_VALIDATION, "validation")),
    "run": ((SearchExhaustedError, EXIT_SEARCH, "search exhausted"),
            (_INVALID, EXIT_VALIDATION, "validation")),
    "write trace": ((OSError, EXIT_IO, "cannot write trace"),),
    "read trace": ((_UNREADABLE, EXIT_IO, "cannot read trace"),
                   (CantorError, EXIT_VALIDATION, "validation")),
    "replay": ((SearchExhaustedError, EXIT_SEARCH, "search exhausted during replay"),
               (_INVALID, EXIT_VALIDATION, "validation: replay")),
    "command": ((CantorError, EXIT_VALIDATION, "validation"),),
}


class CommandFailed(Exception):
    """The ``(exit code, message)`` of a failed command step."""


def _step(step: str, fn: Callable, *args):
    """``fn(*args)``, raising a failure that a row of ``FAILURES[step]``
    names as CommandFailed."""
    try:
        return fn(*args)
    except Exception as exc:
        for classes, code, message in FAILURES[step]:
            if isinstance(exc, classes):
                raise CommandFailed(code, f"{message}: {exc}") from None
        raise


def cmd_run(args: argparse.Namespace) -> int:
    if args.verify and not args.trace:
        raise ScenarioError("--verify needs --trace")
    overrides = {key: value for key, value in (
        ("S", args.stages), ("K", args.depth), ("I", args.max_index)) if value is not None}
    sc = _step("read scenario", load_scenario, args.scenario, overrides)
    trace, lines = _step("run", produce, sc, args.select, args.grace,
                         args.sigma_stages, args.stride)
    if args.trace:
        _step("write trace", write_trace, args.trace, lines)
    else:
        _step("write trace", sys.stdout.writelines, _text_blocks(lines))

    failed = list(trace.obligations(failed=True))
    for w in failed:  # the claim, then its data as one JSON line
        print(f"FAIL {w['claim']}\n{jline(w['data'])}", file=sys.stderr)
    if failed:
        return EXIT_OBLIGATION

    if args.verify:
        code = _verify_file(args.trace, quiet=False)
        if code != EXIT_OK:
            return code
    print(f"ok: {args.select}: {trace.event_count()} events, "
          f"{trace.witness_count()} obligations passed", file=sys.stderr)
    return EXIT_OK


def _drain(fh: TextIO) -> bool:
    """Read ``fh`` to its end, so that a byte that is not UTF-8 anywhere
    raises; whether any text was left."""
    left = bool(fh.read(1 << 16))
    while fh.read(1 << 16):
        pass
    return left


def _same_text(first: str, fh: TextIO, lines: list) -> bool:
    """Whether the trace text, its first line ``first`` read and the rest
    in ``fh``, is exactly the text of ``lines``; the file is read to its
    end either way.  newline="" keeps "\r\n" and "\r", so the compare
    sees them."""
    same = first == lines[0] + "\n" and all(
        fh.read(len(b)) == b for b in _text_blocks(islice(lines, 1, None)))
    return not _drain(fh) and same


def _verify_file(path: str | PathLike, *, quiet: bool) -> int:
    """Read the trace at ``path`` once: its header line, then, after the
    replay, the rest against the regenerated text.  A byte that is not
    UTF-8 anywhere exits 4 before any other outcome, so a failed header or
    replay is reported only after the file is read to its end."""
    with _step("read trace", lambda: open(path, encoding="utf-8", newline="")) as fh:
        first = _step("read trace", fh.readline)
        try:
            header = _step("read trace", read_header, first)
            sc, trace, lines = _step("replay", regenerate, header)
        except CommandFailed:
            _step("read trace", _drain, fh)
            raise
        deterministic = _step("read trace", _same_text, first, fh, lines)
    failed = trace.failed_claims()

    stride = header.get("stride", 1)
    budget_trace = ConstructionTrace()
    checks = _budget_sweep(budget_trace, sc.derived, sc.budgets, stride)
    budget_failed = budget_trace.failed_claims()

    report = {
        "selector": header["selector"],
        "deterministic": deterministic,
        "obligations": trace.witness_count(),
        "failed": failed,
        "budget_checks": checks,
        "budget_failed": budget_failed,
        "stride": stride,
    }
    print(jline(report))
    if not quiet:
        for w in trace.obligations():
            print(f"{w['status'].upper():4} {w['claim']}")
            if w["status"] != "pass":
                print(jline(w["data"]))
    if not deterministic:
        print("FAIL determinism: regenerated trace differs", file=sys.stderr)
    return EXIT_OBLIGATION if not deterministic or failed or budget_failed else EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    return _verify_file(args.trace, quiet=args.quiet)


def cmd_list(_args: argparse.Namespace) -> int:
    width = max(len(c.name) for c in CATALOG)
    for c in CATALOG:
        print(f"{c.name:<{width}}  [{c.anchor}]  ({c.kind}) {c.description}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cantorlab",
        description="stage-scheduled tests, deficiency, and reduction runs "
                    "over finite scenarios")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one construction or reduction")
    run.add_argument("--scenario", required=True, help="scenario JSON path")
    run.add_argument("--select", required=True, help="selector name")
    run.add_argument("--stages", type=int, help="override stage budget S")
    run.add_argument("--depth", type=int, help="override depth budget K")
    run.add_argument("--max-index", type=int, help="override index budget I")
    run.add_argument("--trace", help="trace output path (default: stdout)")
    run.add_argument("--verify", action="store_true",
                     help="re-run and byte-compare the written trace")
    run.add_argument("--stride", type=int, default=1,
                     help="stage stride for budget sweeps")
    run.add_argument("--grace", type=int, default=None,
                     help="emission grace period (default: 3S/4)")
    run.add_argument("--sigma-stages", type=int, default=None,
                     help="marker emission budget for lemma31/thm32")
    run.set_defaults(func=cmd_run)

    ver = sub.add_parser("verify", help="replay a trace and check obligations")
    ver.add_argument("--trace", required=True, help="trace file to verify")
    ver.add_argument("--quiet", action="store_true", help="report line only")
    ver.set_defaults(func=cmd_verify)

    lst = sub.add_parser("list-constructions",
                         help="print the selector catalog")
    lst.set_defaults(func=cmd_list)
    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    """Run one command; the parser is built on the first call and reused."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return _step("command", args.func, args)
    except CommandFailed as exc:
        code, message = exc.args
        print(f"error: {message}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
