"""Tests of the benchmark itself.

Run from the repository root:  PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import json
import re
import signal
import sys
import time
from pathlib import Path

import pytest

import cantorlab
import layers
import refspeed
import run
import workload
from tracer import Span, Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_self_times_subtract_child_cover():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a.inner", 2.0, 3.0, parent=1),
        Span("b", 5.0, 6.0, parent=0),
        # overlaps b and runs past the root: only [6, 10] is new cover
        Span("c", 5.5, 12.0, parent=0),
    ]
    assert self_times(spans) == [10.0 - 3.0 - 1.0 - 4.0, 2.0, 1.0, 1.0, 6.5]


def test_tracer_call_tree_matches_span_arithmetic():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    h = tracer.span("x.h", lambda: None)
    g = tracer.span("x.g", lambda: h())
    f = tracer.span("x.f", lambda: (g(), g()))
    f()
    # one clock read at each span start and end, in call order
    raw = [Span("x.f", 0, 9), Span("x.g", 1, 4, 0), Span("x.h", 2, 3, 1),
           Span("x.g", 5, 8, 0), Span("x.h", 6, 7, 3)]
    expect: dict[str, list[float]] = {}
    for sp, st in zip(raw, self_times(raw)):
        agg = expect.setdefault(sp.name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += sp.end - sp.start
        agg[2] += st
    got = {n.name: [n.calls, n.total, n.self_time] for n in tracer.nodes[1:]}
    assert [(n.first_start, n.last_end) for n in tracer.nodes[1:]] == [(0, 9), (1, 8), (2, 7)]
    assert got == expect
    assert [n.parent for n in tracer.nodes] == [-1, 0, 1, 2]


def test_scale_uses_time_average_only_for_long_units():
    ref = refspeed.REFERENCE_S
    # short unit: median of all samples, robust to one jittery sample
    assert refspeed.scale([ref, ref, 4 * ref], [ref / 2]) == 1.0
    # long unit: time-averaged speed over the samples taken while it ran
    during = [ref] * 5 + [ref / 2] * 5
    assert len(during) == refspeed.AVERAGE_MIN_SAMPLES
    assert refspeed.scale([ref / 4] * 6, during) == 1.5


def test_sampling_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with refspeed.Sampling() as s:
        end = time.perf_counter() + 3 * refspeed.PERIOD_S
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(s.samples) >= 2 and s.spent > 0


def _bindings() -> dict:
    """Every attribute of every cantorlab module and class, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("cantorlab"):
            continue
        for attr, val in vars(mod).items():
            out[(name, attr)] = val
            if isinstance(val, type) and val.__module__.startswith("cantorlab"):
                for cattr, cval in vars(val).items():
                    out[(name, attr, cattr)] = cval
    return out


def test_install_patches_every_binding_and_uninstall_restores():
    from cantorlab import cli, core, enumeration, realizers

    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(RuntimeError):
            tracer.install()
        # names imported into other modules are patched there too
        for mod in (realizers, enumeration):
            assert mod.intersect_all is core.intersect_all
            assert mod.intersect_all.__wrapped__ is before[("cantorlab.core", "intersect_all")]
        assert realizers.member_at_stage.__wrapped__ is \
            before[("cantorlab.deficiency", "member_at_stage")]
        assert cantorlab.Clopen.intersect is core.Clopen.intersect
        assert cli.execute.__wrapped__ is before[("cantorlab.cli", "execute")]

        a, b = core.Clopen(["0"]), core.Clopen(["00", "1"])
        core.intersect_all([a, b])
        assert core.Dyadic(1, 1) < core.Dyadic(1, 0)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []

    names = {n.name: n for n in tracer.nodes}
    assert names["core.intersect_all"].calls == 1
    assert names["core.Clopen.intersect"].calls == 1
    assert {k: v for k, v in tracer.counts().items() if v} == \
        {"core.Clopen.__init__": 3, "core.Dyadic.__lt__": 1}


def test_metric_names_match_benchmark_json():
    bench = _bench()
    e2e = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    for name in e2e + per_layer:
        assert NAME.fullmatch(name), name

    fake_pass = {"run_s": 1.0, "verify_s": 2.0, "slowest_s": 0.5, "trace_bytes": 7}
    e2e_got = run.end_to_end_metrics([0.1], {"passes": [fake_pass], "peak_rss_kb": 2048})
    assert list(e2e_got) == e2e
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        {k: v["unit"] for k, v in e2e_got.items()}

    assert layers.per_layer_names() == per_layer
    layer_got = run.per_layer_metrics(
        {"layer_metrics": dict.fromkeys(layers.per_layer_names(), 1.0)})
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        {k: v["unit"] for k, v in layer_got.items()}


def test_traced_pass_matches_golden_and_counts_repeat(tmp_path):
    golden = json.loads(workload.GOLDEN.read_text(encoding="utf-8"))["main"]
    order = ["lemma31", "lay_to_lay", "lemma63"]
    counts = []
    for i in range(2):
        plain, traced, metrics = workload.traced_pass(
            order, "main", golden, tmp_path, tmp_path / f"spans{i}.json")
        assert plain.failures == [] and traced.failures == []
        assert plain.attempted == traced.attempted == 2 * len(order)
        assert sorted(metrics) == sorted(layers.per_layer_names())
        counts.append({k: v for k, v in metrics.items()
                       if layers.LAYER_METRICS.get(k.split(".", 1)[1]) == "count"})
        dumped = json.loads((tmp_path / f"spans{i}.json").read_text(encoding="utf-8"))
        assert {s["name"] for s in dumped["spans"]} >= {"bench.run", "bench.verify", "cli.execute"}
    assert counts[0] == counts[1]
    assert counts[0]["run.realizers.stages_stepped"] > 0
    assert counts[0]["verify.enumeration.measure_at.calls"] > 0
