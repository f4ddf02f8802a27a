import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from cantorlab import bundled_scenario, realizers
from cantorlab.cli import _text_blocks, produce
from cantorlab.core import Clopen, ScenarioError, SearchExhaustedError, unpair3
from cantorlab.deficiency import CoTree, Stream, member_at_stage, rd_at_stage
from cantorlab.enumeration import (
    HARD_MAX_STAGE,
    Budgets,
    Enumeration,
    MLTest,
    descending_chain,
    effective_top,
    load_scenario,
    shift_union,
    universal_sum,
)
from cantorlab.realizers import (
    Emitter,
    cn_times_mlr_psi,
    cn_times_mlr_to_lay,
    compose_star,
    default_grace,
    delta02_to_lay_phi,
    delta02_to_lay_psi,
    lay_to_cn,
    lay_to_cn_psi,
    lay_to_lay,
    lay_to_lay_contract,
    parallel_merge,
    product_merge,
    rd_from_lay_phi,
    rd_from_lay_psi,
    semidecidable_to_rd_star,
    stable_value,
    verify_pads,
)
from conftest import decoded_events, written_lines


def _stage_lengths(segments):
    """The committed length after each accounted stage, expanded from a
    run's emission segments."""
    return [n + max(0, t + 1 - first_emit)
            for first, stop, n, first_emit in segments
            for t in range(first, stop)]


def _events(trace, action):
    """The payloads of a trace's ``action`` events, in order."""
    return [e["payload"] for e in decoded_events(trace) if e["action"] == action]


@pytest.fixture(scope="module")
def budgets(main_scenario):
    return main_scenario.budgets


class TestLayToLay:
    def test_untriggered_output_is_source(self, chain, surrogate, budgets,
                                          main_scenario):
        x = main_scenario.stream("alt")  # escapes everything from stage 0
        run = lay_to_lay(shift_union(chain), surrogate, x, budgets)
        assert not run.pads
        assert run.output.pad == x.pad and run.output.period == x.period
        assert not _events(run.trace, "trigger")

    def test_output_shape(self, chain, surrogate, budgets, main_scenario):
        for name in main_scenario.random_streams:
            x = main_scenario.stream(name)
            run = lay_to_lay(shift_union(chain), surrogate, x, budgets)
            base = run.pads[-1]["end"] if run.pads else 0
            tail = run.committed[base:]
            assert x.prefix(len(tail)) == tail
            assert run.trace.failed_claims() == []

    def test_decoded_bounds(self, chain, surrogate, budgets, main_scenario):
        big_s = budgets.max_stage
        for name in main_scenario.random_streams:
            x = main_scenario.stream(name)
            run = lay_to_lay(shift_union(chain), surrogate, x, budgets)
            assert lay_to_lay_contract(run, chain, surrogate, x, budgets)
            out_rd = rd_at_stage(run.output, surrogate, big_s)
            for i in range(out_rd, chain.max_index + 1):
                assert not member_at_stage(x, chain, i, big_s)

    def test_final_index_is_tail_union_rd(self, chain, surrogate, budgets,
                                          main_scenario):
        vp = shift_union(chain)
        big_s = budgets.max_stage
        for name in main_scenario.random_streams:
            x = main_scenario.stream(name)
            run = lay_to_lay(vp, surrogate, x, budgets)
            triggered = [p["index"] for p in _events(run.trace, "trigger")]
            assert triggered == list(range(rd_at_stage(x, vp, big_s)))

    def test_pads_valid_against_final_views(self, chain, surrogate, budgets,
                                            main_scenario):
        x = main_scenario.stream("x3")
        run = lay_to_lay(shift_union(chain), surrogate, x, budgets)
        assert verify_pads(run, surrogate, budgets.max_stage)


class TestRdFromLay:
    def test_zero_deficiency_identity(self, surrogate, budgets, main_scenario):
        x = main_scenario.stream("alt")
        run = rd_from_lay_phi(surrogate, surrogate, x, budgets)
        assert not run.pads
        advice = rd_at_stage(run.output, surrogate, budgets.max_stage)
        assert rd_from_lay_psi(surrogate, x, advice, budgets) == 0
        for k in range(0, budgets.max_stage, 50):
            assert rd_from_lay_psi(surrogate, x, k, budgets) == 0

    def test_exact_at_every_admissible_advice(self, surrogate, budgets,
                                              main_scenario):
        big_s = budgets.max_stage
        for name in main_scenario.random_streams:
            x = main_scenario.stream(name)
            run = rd_from_lay_phi(surrogate, surrogate, x, budgets)
            expected = rd_at_stage(x, surrogate, big_s)
            threshold = rd_at_stage(run.output, surrogate, big_s)
            for k in range(threshold, big_s + 1):
                assert rd_from_lay_psi(surrogate, x, k, budgets) == expected

    def test_decoder_monotone_to_stable(self, surrogate, budgets, main_scenario):
        x = main_scenario.stream("x3")
        values = [rd_from_lay_psi(surrogate, x, k, budgets)
                  for k in range(budgets.max_stage + 1)]
        for a, b in zip(values, values[1:]):
            assert a <= b

    def test_witnesses(self, surrogate, budgets, main_scenario):
        x = main_scenario.stream("x2")
        run = rd_from_lay_phi(surrogate, surrogate, x, budgets)
        assert run.trace.failed_claims() == []
        assert verify_pads(run, surrogate, budgets.max_stage)

    def test_distinct_test_pair(self, chain, surrogate, budgets, main_scenario):
        # recover the bound against the chain while padding into the flat test
        big_s = budgets.max_stage
        for name in main_scenario.random_streams:
            x = main_scenario.stream(name)
            run = rd_from_lay_phi(chain, surrogate, x, budgets)
            advice = rd_at_stage(run.output, surrogate, big_s)
            assert rd_from_lay_psi(chain, x, advice, budgets) \
                == rd_at_stage(x, chain, big_s)


class TestProductMerge:
    def test_requires_nested(self, surrogate, budgets, main_scenario):
        with pytest.raises(ScenarioError):
            product_merge(surrogate, main_scenario.stream("alt"),
                          main_scenario.stream("x1"), budgets)

    def test_same_stream_degenerates(self, chain, budgets, main_scenario):
        x = main_scenario.stream("x2")
        run = product_merge(chain, x, x, budgets)
        big_s = budgets.max_stage
        assert rd_at_stage(run.output, chain, big_s) >= \
            rd_at_stage(x, chain, big_s)

    def test_dominates_all_pairs(self, chain, budgets, main_scenario):
        big_s = budgets.max_stage
        names = list(main_scenario.random_streams)
        for nx in names:
            for ny in names:
                x, y = main_scenario.stream(nx), main_scenario.stream(ny)
                run = product_merge(chain, x, y, budgets)
                got = rd_at_stage(run.output, chain, big_s)
                want = max(rd_at_stage(x, chain, big_s),
                           rd_at_stage(y, chain, big_s))
                assert got >= want, (nx, ny)


class TestParallelMerge:
    def test_singleton_family(self, surrogate, budgets, main_scenario):
        x = main_scenario.stream("x1")
        run = parallel_merge(surrogate, [x], budgets)
        big_s = budgets.max_stage
        assert rd_at_stage(run.output, surrogate, big_s) >= \
            rd_at_stage(x, surrogate, big_s)

    def test_declared_family_dominated(self, surrogate, budgets, main_scenario):
        xs = [main_scenario.stream(n) for n in main_scenario.parallel_family]
        run = parallel_merge(surrogate, xs, budgets)
        big_s = budgets.max_stage
        got = rd_at_stage(run.output, surrogate, big_s)
        assert got >= main_scenario.parallel_bound
        assert run.trace.failed_claims() == []


class TestComposeStar:
    def test_identity_identity(self, chain, budgets, main_scenario):
        x = main_scenario.stream("x2")
        # with the identity as the inner reduction, the second input is x
        run = compose_star(chain, x, x, budgets)
        big_s = budgets.max_stage
        assert rd_at_stage(run.output, chain, big_s) >= \
            rd_at_stage(x, chain, big_s)

    def test_watermarks(self, chain, surrogate, budgets, main_scenario):
        x = main_scenario.stream("x3")
        z = rd_from_lay_phi(surrogate, surrogate, x, budgets).output
        run = compose_star(chain, x, z, budgets)
        big_s = budgets.max_stage
        d_y = [p["d_y"] for p in _events(run.trace, "raise_dy")]
        d_z = [p["d_z"] for p in _events(run.trace, "raise_dz")]
        assert d_y == list(range(1, rd_at_stage(x, chain, big_s) + 1))
        assert d_z == list(range(1, len(d_z) + 1))
        assert len(d_z) >= rd_at_stage(z, chain, big_s)
        # the companion watermark only moves after the first settles or when
        # it is already ahead: no dz event precedes a dy event at the same level
        events = decoded_events(run.trace)
        dy_events = [e["stage"] for e in events if e["action"] == "raise_dy"]
        dz_events = [e["stage"] for e in events if e["action"] == "raise_dz"]
        if dy_events and dz_events:
            assert max(dz_events) >= max(dy_events) or not dz_events

    def test_end_to_end_decoding(self, chain, surrogate, budgets, main_scenario):
        big_s = budgets.max_stage
        for name in main_scenario.random_streams:
            x = main_scenario.stream(name)
            z = rd_from_lay_phi(surrogate, surrogate, x, budgets).output
            run = compose_star(chain, x, z, budgets)
            m = rd_at_stage(run.output, chain, big_s)
            decoded = rd_from_lay_psi(surrogate, x, m, budgets)
            assert decoded == rd_at_stage(x, surrogate, big_s)


class TestLayToCn:
    def test_decoder_examples(self, surrogate):
        assert lay_to_cn_psi(12, surrogate) == 0
        assert lay_to_cn_psi(125, surrogate) == 2

    def test_survivor_round_trip(self, surrogate, budgets, main_scenario):
        big_s = budgets.max_stage
        for name in main_scenario.random_streams:
            x = main_scenario.stream(name)
            run = lay_to_cn(surrogate, x, budgets)
            assert [w["status"] for w in run.trace.witnesses
                    if w["claim"] == "lay_to_cn.survivor_unique"] == ["pass"]
            expected = rd_at_stage(x, surrogate, big_s)
            assert lay_to_cn_psi(run.survivor, surrogate) == expected
            retargets = [p["index"] for p in _events(run.trace, "retarget")]
            assert retargets == list(range(1, expected + 1))

    def test_instance_values_code_complement(self, surrogate, budgets,
                                             main_scenario):
        run = lay_to_cn(surrogate, main_scenario.stream("x1"), budgets)
        values = run.instance_values()
        assert run.survivor + 1 not in values
        assert 0 not in values  # values code n+1


class TestCnTimesMlr:
    def test_stable_value_definition(self):
        f = [1, 3, 2, 5, 4]
        assert [stable_value(f, s) for s in range(6)] == [1, 1, 3, 3, 5, 5]
        for s in range(8):
            assert stable_value(f, s) <= stable_value(f, s + 1)

    def test_omega_instance(self, surrogate, budgets, main_scenario):
        x = main_scenario.stream("x1")
        run = cn_times_mlr_to_lay(surrogate, [], x, budgets)
        stable_events = [e for e in decoded_events(run.trace)
                         if e["action"] == "stable"]
        assert len(stable_events) == budgets.max_stage  # every stage fires
        n, tag = cn_times_mlr_psi([], x, 0)
        assert n == 0 and tag is x

    def test_full_contract_excluding_prefix(self, surrogate, budgets,
                                            main_scenario):
        f = [1, 3, 2, 5, 4]  # excludes 0..4, survivor 5
        x = main_scenario.stream("x2")
        run = cn_times_mlr_to_lay(surrogate, f, x, budgets)
        big_s = budgets.max_stage
        for s in range(rd_at_stage(run.output, surrogate, big_s), big_s + 1, 7):
            n, _ = cn_times_mlr_psi(f, x, s)
            assert n == 5

    def test_shape(self, surrogate, budgets, main_scenario):
        run = cn_times_mlr_to_lay(surrogate, [2, 1], main_scenario.stream("x3"),
                                  budgets)
        assert run.trace.failed_claims() == []


@pytest.fixture(scope="module")
def trees(main_scenario):
    t = [main_scenario.tree(n) for n in ("inA0", "inA1", "inA2")]
    s = [main_scenario.tree(n) for n in ("outA0", "outA1", "outA2")]
    return t, s


class TestDelta02:

    def test_path_stream_never_retriggers(self, chain, budgets, main_scenario,
                                          trees):
        t_trees, s_trees = trees
        x = main_scenario.stream("x1")  # a path through the first in-side tree
        run = delta02_to_lay_phi(chain, t_trees, s_trees, x, budgets)
        assert not _events(run.trace, "trigger")
        assert len(run.pads) == 1  # only the initial block

    def test_psi_matches_membership_oracle(self, chain, budgets, main_scenario,
                                           trees):
        t_trees, s_trees = trees
        big_s = budgets.max_stage
        for name in main_scenario.random_streams:
            x = main_scenario.stream(name)
            run = delta02_to_lay_phi(chain, t_trees, s_trees, x, budgets)
            advice = rd_at_stage(run.output, chain, big_s)
            want = 1 if any(t.carries(x, big_s) for t in t_trees) else 0
            for k in range(advice, advice + 4):
                got = delta02_to_lay_psi(t_trees, s_trees, x, k,
                                         budgets.max_depth, big_s)
                assert got == want, (name, k)

    def test_partition_violation_detected(self, budgets):
        # a stream that is a path through both sides never clears either
        depth = budgets.max_depth
        both_t = [CoTree(Enumeration([(0, "1")]), depth)]   # paths below 0
        both_s = [CoTree(Enumeration([(0, "01"), (0, "1")]), depth)]  # paths below 00
        x = Stream("bad", "", "0")
        with pytest.raises(ScenarioError):
            delta02_to_lay_psi(both_t, both_s, x, 0, depth, budgets.max_stage)

    def test_clopen_set_special_case(self, chain, budgets, main_scenario):
        # in-side an effectively open (clopen) set; out-side its complement,
        # a positive-measure tree
        open_set = Clopen(["0010", "000010"])
        depth = budgets.max_depth
        t_trees = [CoTree(Enumeration((0, c) for c in open_set.complement(depth)),
                          depth)]
        s_trees = [CoTree(Enumeration((0, c) for c in open_set), depth)]
        big_s = budgets.max_stage
        for name in main_scenario.random_streams:
            x = main_scenario.stream(name)
            run = delta02_to_lay_phi(chain, t_trees, s_trees, x, budgets)
            advice = rd_at_stage(run.output, chain, big_s)
            got = delta02_to_lay_psi(t_trees, s_trees, x, advice, depth, big_s)
            want = 1 if open_set.covers(x.prefix(depth)) else 0
            assert got == want, name


class TestSemiDecidable:
    def test_out_stream_identity_and_zero(self, surrogate, budgets,
                                          main_scenario):
        x = main_scenario.stream("x4")  # outside the target set
        run = semidecidable_to_rd_star(surrogate, main_scenario.opens["layerA"],
                                       x, budgets)
        assert run.verdict == 0 == run.expected
        assert not run.f_run.pads  # output is the source unchanged
        [g_side] = _events(run.trace, "g_side")
        for m in (0, 3, 100, budgets.max_stage):
            view = main_scenario.opens["layerA"][g_side["level"]].stage_view(m)
            assert not any(x.starts_with(c) for c in view.cylinders)

    def test_in_stream_certified(self, surrogate, budgets, main_scenario):
        x = main_scenario.stream("x3")
        run = semidecidable_to_rd_star(surrogate, main_scenario.opens["layerA"],
                                       x, budgets)
        assert run.verdict == 1 == run.expected
        assert run.f_run.pads
        # the advice certifies the discovery stage
        assert run.f_advice >= run.f_run.pads[0]["stage"]

    def test_characteristic_on_all_streams(self, surrogate, budgets,
                                           main_scenario):
        for name in main_scenario.random_streams:
            x = main_scenario.stream(name)
            run = semidecidable_to_rd_star(surrogate,
                                           main_scenario.opens["layerA"],
                                           x, budgets)
            assert run.verdict == run.expected


class TestMonotonicityAndShape:
    def test_histories_monotone(self, chain, surrogate, budgets, main_scenario):
        runs = []
        x = main_scenario.stream("x2")
        runs.append(lay_to_lay(shift_union(chain), surrogate, x, budgets))
        runs.append(rd_from_lay_phi(surrogate, surrogate, x, budgets))
        runs.append(product_merge(chain, x, main_scenario.stream("x1"), budgets))
        for run in runs:
            hist = _stage_lengths(run.segments)
            assert all(a <= b for a, b in zip(hist, hist[1:]))
            assert run.trace.failed_claims() == []

    def test_shape_witness_fails_on_tampered_records(self, surrogate, budgets,
                                                     main_scenario):
        run = rd_from_lay_phi(surrogate, surrogate, main_scenario.stream("x3"),
                              budgets)
        base, first, last = run.base, run.pads[0], run.pads[-1]
        assert run.shape_ok() and last["block"]
        flipped = base[:-1] + "10"[int(base[-1])]  # inside the last block
        for tampered in (flipped, base + "0"):
            run.base = tampered
            assert not run.shape_ok()
        run.base = base
        for pad, move in ((last, 1), (last, -1), (first, -len(first["block"]))):
            pad["end"] += move
            assert not run.shape_ok()
            pad["end"] -= move
        assert run.shape_ok()

    def test_grace_default_tracks_budget(self, budgets):
        assert default_grace(budgets) == (3 * budgets.max_stage) // 4

    def test_productivity_scales_with_stage_budget(self, surrogate,
                                                   main_scenario):
        from cantorlab.enumeration import Budgets
        x = main_scenario.stream("x2")
        b = main_scenario.budgets
        lengths = []
        for stages in (256, 512):
            shrunk = Budgets(max_index=b.max_index, max_stage=stages,
                             max_depth=b.max_depth, max_layers=b.max_layers)
            run = rd_from_lay_phi(surrogate, surrogate, x, shrunk)
            lengths.append(len(run.committed))
        assert lengths[0] < lengths[1]


# ---------------------------------------------------------------------------
# behaviour of the clocked realizers beyond the default-grace golden traces
# ---------------------------------------------------------------------------

CLOCKED = ("lay_to_lay", "rd_from_lay", "product_merge", "compose_star",
           "delta02_to_lay", "semidecidable_star")


def _clocked_calls(sc, budgets, grace):
    """(realizer, stream, thunk) for every clocked realizer and declared
    stream, wired as the CLI wires them; each thunk returns an Emitter
    and the trace that run contributes."""
    u = universal_sum(sc)
    chain = descending_chain(u)
    watched = shift_union(chain)
    t_trees = [sc.tree(n) for n in sorted(sc.trees) if n.startswith("inA")]
    s_trees = [sc.tree(n) for n in sorted(sc.trees) if n.startswith("outA")]
    names = list(sc.streams)

    def semidecidable(x):
        res = semidecidable_to_rd_star(u, sc.opens["layerA"], x, budgets, grace)
        return res.f_run, res.trace

    def plain(run):
        return run, run.trace

    def composed(x):
        z = rd_from_lay_phi(u, u, x, budgets, grace).output
        return plain(compose_star(chain, x, z, budgets, grace))

    for k, name in enumerate(names):
        x = sc.stream(name)
        y = sc.stream(names[(k + 1) % len(names)])
        yield "lay_to_lay", name, lambda x=x: plain(
            lay_to_lay(watched, u, x, budgets, grace))
        yield "rd_from_lay", name, lambda x=x: plain(
            rd_from_lay_phi(u, u, x, budgets, grace))
        yield "product_merge", name, lambda x=x, y=y: plain(
            product_merge(chain, x, y, budgets, grace))
        yield "compose_star", name, lambda x=x: composed(x)
        yield "delta02_to_lay", name, lambda x=x: plain(
            delta02_to_lay_phi(chain, t_trees, s_trees, x, budgets, grace))
        yield "semidecidable_star", name, lambda x=x: semidecidable(x)


def _clocked_digests(sc) -> dict[str, str]:
    """sha256 per clocked realizer over (stage lengths, committed, pads,
    trace text as a trace file holds it) of every declared stream at five
    graces; a run that exhausts its search contributes its error text
    instead."""
    budgets = sc.budgets
    hashes = {name: hashlib.sha256() for name in CLOCKED}
    for grace in (None, 0, -1, 5, budgets.max_stage):
        for realizer, stream, call in _clocked_calls(sc, budgets, grace):
            try:
                run, trace = call()
                record = [_stage_lengths(run.segments), run.committed, run.pads,
                          "".join(_text_blocks(trace.lines()))]
            except (ScenarioError, SearchExhaustedError) as exc:
                record = f"{type(exc).__name__}: {exc}"
            hashes[realizer].update(
                json.dumps([grace, stream, record], sort_keys=True).encode())
    return {name: h.hexdigest() for name, h in hashes.items()}


# First recorded from the per-stage loops the event clock replaced, which
# stepped every stage 0..S, with the run traces' outputs line empty: no CLI
# trace carries a run trace's outputs, so the realizers no longer write them.
# Re-recorded when every exhausted search took the one message form of
# Emitter.pad_into; hashing such a run as its exception class alone gives
# the same digests before and after.  Re-recorded when the record took the
# written trace text instead of the stored entries, which a run entry would
# change without changing a byte of the trace; the realizers of that
# commit, and those of the commit before it, give these digests.
MAIN_CLOCKED_DIGESTS = {
    "lay_to_lay":
        "913652aa05026a09195359d89a995b757986a7df9236e90327d09ec08850eb9d",
    "rd_from_lay":
        "a247909a51123ee79916b0fe3df796d5fc12fd6734cbc6ad0eaaf36fbc8d8862",
    "product_merge":
        "8e5a757389ecd1249a6d33502a52f873eeeab4a0805b2bf607df17b3922354a6",
    "compose_star":
        "89d2611e2bca8796c9a9f25537b4acef4b43af6a7d52f1692a501a7a8bc562e1",
    "delta02_to_lay":
        "3a927f767e6d38a5a97a54fbd4f77bf646fcee93dcab1f4ecc751437c67d1a06",
    "semidecidable_star":
        "b56714e97fe4d6a44a3ef120271fbaea9261c58674157ef3142d7d97ee5ec770",
}


def test_clocked_runs_pinned(main_scenario):
    assert _clocked_digests(main_scenario) == MAIN_CLOCKED_DIGESTS


def _stepped_reference(source, grace, first, last, pads, progress):
    """The emission rule applied at every stage ``first..last``: a pad or a
    progress note at a stage comes before that stage's emission."""
    committed, cursor, last_progress, history = "", 0, 0, []
    for s in range(first, last + 1):
        if s in pads:
            committed += pads[s]
            cursor = 0
            last_progress = s
        elif s in progress:
            last_progress = s
        if s - last_progress > grace:
            committed += source.bit(cursor)
            cursor += 1
        history.append(len(committed))
    return committed, cursor, history


bit_strings = st.text(alphabet="01", max_size=6)


@settings(max_examples=300, deadline=None)
@given(pad=bit_strings, period=bit_strings.filter(bool),
       last=st.integers(0, 60), first=st.integers(0, 2),
       grace=st.one_of(st.integers(-4, -1), st.just(0), st.integers(1, 6),
                       st.integers(61, 120)),
       pads=st.dictionaries(st.integers(0, 60), bit_strings, max_size=6),
       quiet=st.sets(st.integers(0, 60), max_size=6),
       progress=st.sets(st.integers(0, 60), max_size=6))
def test_closed_form_fill_matches_every_stage(pad, period, last, first, grace,
                                              pads, quiet, progress):
    source = Stream("s", pad, period)
    budgets = Budgets(max_index=1, max_stage=last, max_depth=8, max_layers=0)
    em = Emitter("closed_form", source, budgets, grace)

    def step(s):
        if s in pads:
            em.pad(s, pads[s], [])
            return s not in quiet  # a pad after which no watch can fire
        if s in progress:
            em.note_progress(s)
            return True
        return False

    em.run(sorted(set(pads) | progress), first, last, step)
    committed, cursor, history = _stepped_reference(
        source, grace, first, last, pads, progress)
    assert em.committed == committed
    assert em.cursor == cursor
    assert _stage_lengths(em.segments) == history
    assert em.committed == em.base + source.prefix(em.cursor)


segment_runs = st.lists(st.tuples(st.integers(1, 5), st.integers(0, 12),
                                  st.integers(0, 6)), max_size=6)


@given(runs=segment_runs)
def test_monotone_ok_is_the_pairwise_scan(runs):
    """Checking segment boundaries decides what the pairwise scan of the
    expanded stage lengths decides."""
    budgets = Budgets(max_index=1, max_stage=8, max_depth=8, max_layers=0)
    em = Emitter("monotone", Stream("s", "", "01"), budgets, 0)
    first = 0
    for width, n, delay in runs:
        em.segments.append((first, first + width, n, first + delay))
        first += width
    lengths = _stage_lengths(em.segments)
    assert em.monotone_ok() == all(a <= b for a, b in zip(lengths, lengths[1:]))


def test_monotone_ok_sees_a_drop_between_segments():
    budgets = Budgets(max_index=1, max_stage=8, max_depth=8, max_layers=0)
    em = Emitter("monotone", Stream("s", "", "01"), budgets, 0)
    em.segments = [(0, 3, 2, 1), (3, 5, 3, 9)]  # lengths 2, 3, 4, then 3, 3
    assert not em.monotone_ok()
    em.segments[1] = (3, 5, 4, 9)  # lengths 2, 3, 4, then 4, 4
    assert em.monotone_ok()


def test_lookups_do_not_grow_with_stage_budget(main_scenario, monkeypatch):
    """The clocked realizers read views only at change stages and right after
    acting, and keep one emission segment per stepped stage, so the stage
    budget changes neither how often they look nor how much they hold."""
    counts = {}
    calls = {"member": 0, "alive": 0}
    member, alive = realizers.member_at_stage, CoTree.alive

    def counted_member(*args):
        calls["member"] += 1
        return member(*args)

    def counted_alive(*args):
        calls["alive"] += 1
        return alive(*args)

    monkeypatch.setattr(realizers, "member_at_stage", counted_member)
    monkeypatch.setattr(CoTree, "alive", counted_alive)
    b = main_scenario.budgets
    u = universal_sum(main_scenario)
    for stages in (b.max_stage, HARD_MAX_STAGE):
        budgets = Budgets(max_index=b.max_index, max_stage=stages,
                          max_depth=b.max_depth, max_layers=b.max_layers)
        seen = []
        for realizer, stream, call in _clocked_calls(main_scenario, budgets, None):
            if stream not in ("x3", "ones"):
                continue
            calls.update(member=0, alive=0)
            try:
                run, _ = call()
                seen.append(len(run.segments))
            except SearchExhaustedError as exc:
                seen.append(str(exc))
            seen.append((realizer, stream, dict(calls)))
        calls.update(member=0, alive=0)
        lay_to_cn(u, main_scenario.stream("x3"), budgets)
        seen.append(("lay_to_cn", "x3", dict(calls)))
        calls.update(member=0, alive=0)
        xs = [main_scenario.stream(n) for n in main_scenario.parallel_family]
        run = parallel_merge(u, xs, budgets)
        seen.append(("parallel_merge", dict(calls), len(run.segments)))
        counts[stages] = seen
    assert counts[b.max_stage] == counts[HARD_MAX_STAGE]


# ---------------------------------------------------------------------------
# cn_times_mlr_to_lay on the event clock against its every-stage loop
# ---------------------------------------------------------------------------

def _cn_times_mlr_every_stage(u, f_values, x, budgets, grace):
    """The per-stage loop ``cn_times_mlr_to_lay`` ran before it was clocked:
    every stage 0..S-1 writes its event and checks the pad target."""
    em = Emitter("cn_times_mlr", x, budgets, grace)
    trace = em.trace
    top = effective_top(u)
    settled = len(f_values)
    values = [stable_value(f_values, s) for s in range(settled + 1)]
    for s in range(budgets.max_stage):
        now, nxt = values[min(s, settled)], values[min(s + 1, settled)]
        if now == nxt:
            trace.add(s, "stable", value=now)
            bound = min(s, top)
            target = u.meet_view(bound, s)
            if not target.covers(em.committed):
                em.pad_into(s, target, list(range(bound + 1)))
        else:
            trace.add(s, "changed", value=nxt)
            em.note_progress(s)
        em.record(s)
    return em.finish()


def _run_record(realizer, *args):
    """What a run leaves: (stage lengths, committed, pads, trace lines), or
    the error text of a search that ran out."""
    try:
        run = realizer(*args)
    except SearchExhaustedError as exc:
        return str(exc)
    return (_stage_lengths(run.segments), run.committed, run.pads,
            written_lines(run.trace.lines()))


# the last value list changes its stable value at stage 18, past every
# watched stage of main's tests (0..12), so the clock must step until it settles
CN_F_VALUES = ([], [1, 3, 2, 5, 4], [2, 1], list(range(20, 0, -1)))


@pytest.mark.parametrize("which", ["universal", "chain"])
def test_cn_times_mlr_matches_every_stage_loop(main_scenario, surrogate, chain,
                                               which):
    u = surrogate if which == "universal" else chain
    budgets = main_scenario.budgets
    outcomes = set()
    for grace in (None, 0, -1, 5, budgets.max_stage):
        for f_values in CN_F_VALUES:
            for name in main_scenario.streams:
                x = main_scenario.stream(name)
                args = (u, f_values, x, budgets, grace)
                want = _run_record(_cn_times_mlr_every_stage, *args)
                assert _run_record(cn_times_mlr_to_lay, *args) == want, \
                    (grace, f_values, name)
                outcomes.add(type(want))
    assert outcomes == {tuple, str}  # both full runs and exhausted searches


def test_cn_times_mlr_trace_entries_do_not_grow_with_stage_budget():
    """Each run of ``stable`` events is held as one entry until it is
    written, so the trace keeps as many entries at S = 10^5 as at main's own
    S, while its events grow with S."""
    raw = json.loads(bundled_scenario("main").read_text(encoding="utf-8"))
    own, sizes = raw["budgets"]["S"], {}
    for stages in (own, 10 ** 5):
        trace, lines = produce(load_scenario(raw, {"S": stages}), "cn_times_mlr",
                               None, None, 1)
        sizes[stages] = (len(trace.events), len(lines))
    assert trace.event_count() >= 4 * 10 ** 5
    assert sizes[own] == sizes[10 ** 5] and max(sizes[own]) < 200


def test_cn_times_mlr_lookups_do_not_grow_with_stage_budget(main_scenario,
                                                            monkeypatch):
    """The clocked loop reads the pad target at its watched stages and right
    after acting, so the stage budget does not change how often it looks."""
    calls = [0]
    meet_view = MLTest.meet_view

    def counted(self, n, s):
        calls[0] += 1
        return meet_view(self, n, s)

    monkeypatch.setattr(MLTest, "meet_view", counted)
    b = main_scenario.budgets
    u = universal_sum(main_scenario)
    counts = {}
    for stages in (b.max_stage, 2 ** 14):
        budgets = Budgets(max_index=b.max_index, max_stage=stages,
                          max_depth=b.max_depth, max_layers=b.max_layers)
        seen = []
        for grace in (None, 0):
            for f_values in CN_F_VALUES:
                for name in ("x3", "ones"):
                    calls[0] = 0
                    record = _run_record(cn_times_mlr_to_lay, u, f_values,
                                        main_scenario.stream(name), budgets, grace)
                    pads = record if isinstance(record, str) else len(record[2])
                    seen.append((grace, len(f_values), name, calls[0], pads))
        counts[stages] = seen
    assert counts[b.max_stage] == counts[2 ** 14]


# ---------------------------------------------------------------------------
# parallel_merge on the event clock against its every-stage dovetail
# ---------------------------------------------------------------------------

def _parallel_merge_every_stage(u, xs, budgets, grace):
    """The dovetail ``parallel_merge`` ran before it was clocked: every stage
    0..S reads its triple and pads when the output is not yet inside the
    triple's intersection."""
    em = Emitter("parallel_merge", xs[0], budgets, grace)
    top = effective_top(u)
    for s in range(budgets.max_stage + 1):
        i, n, t = unpair3(s)
        if (i < len(xs) and n <= top and t <= budgets.max_stage
                and member_at_stage(xs[i], u, n, t)):
            target = u.meet_view(n, s)
            if not target.covers(em.committed):
                em.trace.add(s, "trigger", input=i, index=n, seen_at=t)
                em.pad_into(s, target, list(range(n + 1)))
        em.record(s)
    return em.finish()


# stage 86 is pair(pair(2, 1), 4), index 1's first firing stage on main
MERGE_STAGES = (0, 16, 64, 86, 128, 512)
MERGE_FAMILIES = (("alt", "x1", "x2"), ("x3",), ("ones", "x4"),
                  ("x4", "x3", "x2", "x1"))


@pytest.mark.parametrize("which", ["universal", "chain"])
def test_parallel_merge_matches_every_stage_loop(main_scenario, surrogate, chain,
                                                 which):
    u = surrogate if which == "universal" else chain
    b = main_scenario.budgets
    outcomes = set()
    for stages in MERGE_STAGES:
        budgets = Budgets(max_index=b.max_index, max_stage=stages,
                          max_depth=b.max_depth, max_layers=b.max_layers)
        for grace in (None, 0, -1, 5, stages):
            for family in MERGE_FAMILIES:
                xs = [main_scenario.stream(name) for name in family]
                args = (u, xs, budgets, grace)
                want = _run_record(_parallel_merge_every_stage, *args)
                assert _run_record(parallel_merge, *args) == want, \
                    (stages, grace, family)
                outcomes.add(type(want))
    assert outcomes == {tuple, str}  # both full runs and exhausted searches
