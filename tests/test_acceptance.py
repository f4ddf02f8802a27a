"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
Every tolerance is exact (dyadic equality or strict compare); the only numeric
slack is the per-criterion wall-clock limit stated alongside each check.
"""

import random
import time

from cantorlab.core import Clopen, Dyadic
from cantorlab.constructions import (
    build_lemma31,
    build_lemma63,
    build_thm33,
    build_thm41,
)
from cantorlab.deficiency import prepend, rd_at_stage
from cantorlab.enumeration import Enumeration, stratify, universal_sum
from cantorlab.cli import SELECTORS, execute, produced_tests, trace_lines
from cantorlab.realizers import (
    delta02_to_lay_phi,
    delta02_to_lay_psi,
    lay_to_cn,
    lay_to_cn_psi,
    rd_from_lay_phi,
    rd_from_lay_psi,
    semidecidable_to_rd_star,
)
from conftest import FULL_MASK, leaf_mask


class Criterion:
    def __init__(self, name: str, limit: float):
        self.name = name
        self.limit = limit
        self.start = time.monotonic()

    def done(self):
        elapsed = time.monotonic() - self.start
        print(f"[PASS] {self.name} ({elapsed:.2f}s, limit {self.limit:.0f}s)",
              flush=True)
        assert elapsed < self.limit, f"{self.name} exceeded {self.limit}s"

    def fail(self, message: str):
        print(f"[FAIL] {self.name}: {message}", flush=True)
        raise AssertionError(f"{self.name}: {message}")


def rand_clopen(rng: random.Random) -> Clopen:
    strings = ["".join(rng.choice("01") for _ in range(rng.randint(0, 8)))
               for _ in range(rng.randint(0, 6))]
    return Clopen(strings)


def test_criterion_clopen_oracle():
    crit = Criterion("clopen-algebra-oracle-equivalence", 5.0)
    rng = random.Random(0xC0FFEE)
    for trial in range(10_000):
        a, b = rand_clopen(rng), rand_clopen(rng)
        ma, mb = leaf_mask(a.cylinders), leaf_mask(b.cylinders)
        if leaf_mask(a.union(b).cylinders) != ma | mb:
            crit.fail(f"union mismatch at trial {trial}")
        if leaf_mask(a.intersect(b).cylinders) != ma & mb:
            crit.fail(f"intersect mismatch at trial {trial}")
        if leaf_mask(a.complement(8).cylinders) != (~ma & FULL_MASK):
            crit.fail(f"complement mismatch at trial {trial}")
        if a.is_subset_of(b) != (ma & ~mb == 0):
            crit.fail(f"subset mismatch at trial {trial}")
        if a.measure() != Dyadic(bin(ma).count("1"), 8):
            crit.fail(f"measure mismatch at trial {trial}")
    crit.done()


def test_criterion_measure_budgets(main_scenario, deep_scenario):
    crit = Criterion("measure-budgets-stride-1", 30.0)
    for sc in (main_scenario, deep_scenario):
        big_s = sc.budgets.max_stage
        for name, t in sorted(produced_tests(sc).items()):
            for i in range(t.max_index + 1):
                comp = t.component(i)
                bound = Dyadic.exp2(-i)
                for s in range(0, big_s + 1):
                    if comp.measure_at(s) > bound:
                        crit.fail(f"{name} component {i} over budget at stage {s}")
    crit.done()


def test_criterion_lemma31(surrogate, main_scenario):
    crit = Criterion("lemma31-finite-stage-non-containment", 10.0)
    big_s = main_scenario.budgets.max_stage
    out = build_lemma31(surrogate, main_scenario.budgets).outputs
    if not out["sigmas"]:
        crit.fail("no markers emitted")
    w_final = out["w0"].stage_view(big_s)
    for i, sig in enumerate(out["sigmas"]):
        v_i = Clopen([sig])
        for s in range(big_s + 1):
            if v_i.is_subset_of(out["w0"].stage_view(s)):
                crit.fail(f"marker {i} contained at stage {s}")
        inside = v_i.intersect(w_final).measure()
        bound = surrogate.stage_view(len(sig) + 1, big_s).measure()
        if not (inside <= bound < v_i.measure()):
            crit.fail(f"marker {i} intersection bound violated")
    crit.done()


def test_criterion_thm33(surrogate, main_scenario):
    crit = Criterion("thm33-witness-bound", 10.0)
    big_s = main_scenario.budgets.max_stage
    out = build_thm33(surrogate, main_scenario.partial_functions,
                      main_scenario.budgets).outputs
    checked = 0
    for e, n in out["least_divergence"].items():
        v_views = [out["v"].stage_view(j, big_s) for j in range(n)]
        for s in range(big_s + 1):
            w_view = out["w"].stage_view(int(e), s)
            for j in range(n):
                if v_views[j].is_subset_of(w_view):
                    crit.fail(f"table {e}: component {j} swallowed at stage {s}")
                checked += 1
    if checked == 0:
        crit.fail("no divergence points exercised")
    crit.done()


def test_criterion_thm41(chain, main_scenario):
    crit = Criterion("thm41-diagonal", 10.0)
    big_s = main_scenario.budgets.max_stage
    out = build_thm41(chain, main_scenario.functionals, main_scenario.budgets,
                      main_scenario.inert_functionals).outputs
    if not out["triggers"]:
        crit.fail("no advice table triggered")
    for i, info in out["triggers"].items():
        marker = Clopen([info["sigma"]])
        placed_in = marker.is_subset_of(out["in"])
        if info["vote"] == 0 and not placed_in:
            crit.fail(f"table {i}: vote 0 but marker not placed inside")
        if info["vote"] == 1 and marker.intersect(out["in"]):
            crit.fail(f"table {i}: vote 1 but marker meets the set")
        if marker.is_subset_of(out["w"].stage_view(int(i), big_s)):
            crit.fail(f"table {i}: marker swallowed by the watched component")
    events = sorted((info["stage"], info["vote"], info["sigma"])
                    for info in out["triggers"].values())
    bound = Dyadic(1, 4)
    for s in range(big_s + 1):
        ins = Clopen([sig for st, v, sig in events if st <= s and v == 0])
        outs = Clopen([sig for st, v, sig in events if st <= s and v == 1])
        if ins.intersect(outs):
            crit.fail(f"in/out overlap at stage {s}")
        if ins.measure() > bound or outs.measure() > bound:
            crit.fail(f"in/out measure over 1/16 at stage {s}")
    crit.done()


def test_criterion_stratification(main_scenario, deep_scenario):
    crit = Criterion("stratification-laws", 5.0)
    pairs = 0
    for sc in (main_scenario, deep_scenario):
        u = universal_sum(sc)
        st = stratify(u, sc.budgets)
        big_s = sc.budgets.max_stage
        for i in range(st.max_index + 1):
            if st.component(i).final_measure() > Dyadic.exp2(-i):
                crit.fail(f"stratified component {i} over budget")
        for name in sc.random_streams:
            x = sc.stream(name)
            d = rd_at_stage(x, u, big_s)
            if d < 1:
                continue
            for layer in range(min(d + 2, sc.budgets.max_layers + 1)):
                shifted = prepend("1" * layer + "0", x)
                got = rd_at_stage(shifted, st, big_s)
                if got != d - 1:
                    crit.fail(f"shift law failed for {name} at layer {layer}: "
                              f"{got} != {d - 1}")
                pairs += 1
    if pairs < 20:
        crit.fail(f"only {pairs} (layer, stream) samples")
    crit.done()


def test_criterion_realizer_rd_from_lay(surrogate, main_scenario):
    crit = Criterion("realizer-rd-from-lay-exact", 10.0)
    b = main_scenario.budgets
    big_s = b.max_stage
    for name in main_scenario.random_streams:
        x = main_scenario.stream(name)
        run = rd_from_lay_phi(surrogate, surrogate, x, b)
        threshold = rd_at_stage(run.output, surrogate, big_s)
        expected = rd_at_stage(x, surrogate, big_s)
        for k in range(threshold, big_s + 1):
            if rd_from_lay_psi(surrogate, x, k, b) != expected:
                crit.fail(f"{name}: advice {k} decodes wrongly")
    crit.done()


def test_criterion_realizer_lay_to_cn(surrogate, main_scenario):
    crit = Criterion("realizer-lay-to-cn-round-trip", 10.0)
    b = main_scenario.budgets
    for name in main_scenario.random_streams:
        x = main_scenario.stream(name)
        run = lay_to_cn(surrogate, x, b)
        if [w["status"] for w in run.trace.witnesses
                if w["claim"] == "lay_to_cn.survivor_unique"] != ["pass"]:
            crit.fail(f"{name}: survivor not unique")
        expected = rd_at_stage(x, surrogate, b.max_stage)
        if lay_to_cn_psi(run.survivor, surrogate) != expected:
            crit.fail(f"{name}: round trip decodes wrongly")
    crit.done()


def test_criterion_realizer_delta02(chain, main_scenario):
    crit = Criterion("realizer-delta02-membership", 10.0)
    b = main_scenario.budgets
    big_s = b.max_stage
    t_trees = [main_scenario.tree(n) for n in ("inA0", "inA1", "inA2")]
    s_trees = [main_scenario.tree(n) for n in ("outA0", "outA1", "outA2")]
    for name in main_scenario.random_streams:
        x = main_scenario.stream(name)
        run = delta02_to_lay_phi(chain, t_trees, s_trees, x, b)
        advice = rd_at_stage(run.output, chain, big_s)
        want = 1 if any(t.carries(x, big_s) for t in t_trees) else 0
        got = delta02_to_lay_psi(t_trees, s_trees, x, advice, b.max_depth, big_s)
        if got != want:
            crit.fail(f"{name}: decoded {got}, oracle {want}")
    crit.done()


def test_criterion_realizer_semidecidable(surrogate, main_scenario):
    crit = Criterion("realizer-semidecidable-characteristic", 10.0)
    b = main_scenario.budgets
    for name in main_scenario.random_streams:
        x = main_scenario.stream(name)
        run = semidecidable_to_rd_star(surrogate, main_scenario.opens["layerA"],
                                       x, b)
        if run.verdict != run.expected:
            crit.fail(f"{name}: verdict {run.verdict} != {run.expected}")
    crit.done()


def test_criterion_transducer_monotone_shape(main_scenario, deep_scenario):
    crit = Criterion("transducer-monotonicity-and-shape", 10.0)
    reductions = [s for s in sorted(SELECTORS)
                  if s not in ("lemma31", "thm32", "thm33", "thm41", "thm410",
                               "lemma63", "combinators", "lay_to_cn")]
    for sc, tag in ((main_scenario, "main"), (deep_scenario, "deep")):
        for selector in reductions:
            trace = execute(sc, selector)
            seen = 0
            for w in trace.witnesses:
                if ".monotone" in w["claim"] or ".shape" in w["claim"]:
                    seen += 1
                    if w["status"] != "pass":
                        crit.fail(f"{tag}/{selector}: {w['claim']}")
            if seen == 0:
                crit.fail(f"{tag}/{selector}: no structural witnesses recorded")
    crit.done()


def test_criterion_lemma63(main_scenario):
    crit = Criterion("lemma63-noncompactness-witness", 10.0)
    b = main_scenario.budgets
    big_s = b.max_stage
    tree = main_scenario.tree("positive")
    cones = build_lemma63(tree, b).outputs["cones"]
    a_enum = Enumeration(cones)
    for s in range(big_s + 1):
        live = tree.live_clopen(s)
        inter = a_enum.stage_view(s).intersect(live)
        if inter.measure() > tree.path_measure(s).half():
            crit.fail(f"half-measure bound violated at stage {s}")
    live_final = tree.live_clopen(big_s)
    ordered = [c for _, c in cones]
    for m in range(21):
        first = Clopen(ordered[:m])
        witness = None
        for later in ordered[m:]:
            part = Clopen([later]).intersect(live_final)
            if part and not part.is_subset_of(first):
                witness = later
                break
        if witness is None:
            crit.fail(f"first {m} cones already cover the live part")
    crit.done()


def test_criterion_determinism(main_scenario, deep_scenario):
    crit = Criterion("determinism-byte-identical-traces", 60.0)
    for sc, tag in ((main_scenario, "main"), (deep_scenario, "deep")):
        for selector in sorted(SELECTORS):
            first = trace_lines(sc, selector, execute(sc, selector),
                                grace=None, sigma_stages=None, stride=1)
            second = trace_lines(sc, selector, execute(sc, selector),
                                 grace=None, sigma_stages=None, stride=1)
            if first != second:
                crit.fail(f"{tag}/{selector} differs between runs")
    crit.done()
