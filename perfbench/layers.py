"""Per-layer metrics derived from a traced pass.

Each metric is computed twice, over the call tree below the benchmark's
``bench.run`` span and below its ``bench.verify`` span, and reported with a
``run.`` or ``verify.`` prefix.  ``GROUPS`` names the end-to-end metric each
group of layer metrics should move, and on which workload.
"""

from __future__ import annotations

from tracer import Tracer

SEARCH = frozenset({"core.first_extension_into", "core.first_free_string",
                    "core.leftmost_uncovered"})
VIEWS = frozenset({
    "enumeration.Enumeration.stage_view", "enumeration.Enumeration.measure_at",
    "enumeration.Enumeration.final_view", "enumeration.Enumeration.final_measure",
    "enumeration.Enumeration.change_stages", "enumeration.MLTest.stage_view",
    "enumeration.stage_view",
})
DERIVE = frozenset(f"enumeration.{f}" for f in (
    "universal_sum", "descending_chain", "even_shift", "shift_union",
    "stratify", "replace_component", "index_shift"))

# (the end-to-end metrics each group should move, on which workload;
#  {layer metric: unit}), in report order
GROUPS: list[tuple[str, dict[str, str]]] = [
    ("run_s, verify_s, slowest_cmd_s on deep-sweep; no move on main-batch", {
        "core.clopen_built": "count",
        "core.intersect.calls": "count",
        "core.intersect_s": "s",
        "core.union.calls": "count",
        "core.complement.calls": "count",
        "core.search.calls": "count",
        "core.search_s": "s",
        "core.self_s": "s",
    }),
    ("run_s on deep-sweep; small on main-batch", {
        "realizers.stages_stepped": "count",
        "realizers.pads": "count",
        "realizers.loop_s": "s",
        "realizers.self_s": "s",
        "realizers.us_per_stage": "us",
        "realizers.active_stage_ratio": "ratio",
    }),
    ("verify_s on both workloads; the larger part of verify_s on main-batch", {
        "enumeration.stage_view.calls": "count",
        "enumeration.measure_at.calls": "count",
        "enumeration.views_self_s": "s",
        "core.dyadic_cmp.calls": "count",
    }),
    ("run_s, verify_s on deep-sweep", {
        "constructions.lemma63_s": "s",
        "constructions.self_s": "s",
        "constructions.witness.calls": "count",
    }),
    ("run_s, peak_rss_mb, trace_bytes on deep-sweep", {
        "cli.serialize_s": "s",
        "cli.write_s": "s",
        "constructions.jline.calls": "count",
    }),
    ("setup_s, run_s on main-batch, where fixed costs repeat 32x per pass; "
     "negligible on deep-sweep", {
        "cli.load_validate_s": "s",
        "enumeration.derive_s": "s",
        "cli.execute_s": "s",
        "cli.regenerate_s": "s",
        "cli.verify_self_s": "s",
        "deficiency.member_at_stage.calls": "count",
        "deficiency.rd_at_stage.calls": "count",
        "deficiency.cotree_alive.calls": "count",
        "deficiency.self_s": "s",
    }),
]
LAYER_METRICS: dict[str, str] = {k: u for _, group in GROUPS for k, u in group.items()}

COMMANDS = ("run", "verify")
OVERHEAD = "bench.trace_overhead"


def per_layer_names() -> list[str]:
    """Every per-layer metric name the traced run reports."""
    return [f"{c}.{m}" for c in COMMANDS for m in LAYER_METRICS] + [OVERHEAD]


class _Tree:
    """Queries over the call-tree nodes below one root node."""

    def __init__(self, tracer: Tracer, root: int, counts: dict[str, int]) -> None:
        self.nodes = tracer.nodes
        self.root = root
        self.ids = [i for i in tracer.subtree(root) if i != root]
        self.counts = counts

    def calls(self, name: str) -> int:
        """Calls of ``name``, whether hooked as a span or count-only."""
        return self.counts.get(name, 0) + sum(
            self.nodes[i].calls for i in self.ids if self.nodes[i].name == name)

    def self_s(self, pred) -> float:
        return sum(self.nodes[i].self_time for i in self.ids if pred(self.nodes[i]))

    def outer_total(self, pred) -> float:
        """Inclusive time of matching spans that have no matching ancestor."""
        total = 0.0
        for i in self.ids:
            n = self.nodes[i]
            if not pred(n):
                continue
            p = n.parent
            while p != self.root and not pred(self.nodes[p]):
                p = self.nodes[p].parent
            if p == self.root:
                total += n.total
        return total


def _in(names):
    return lambda n: n.name in names


def _layer(layer):
    return lambda n: n.layer == layer


def layer_metrics(tracer: Tracer, root: int, counts: dict[str, int],
                  active_stages: int) -> dict[str, float]:
    """The LAYER_METRICS values for the spans below ``root``, given the
    count-only hooks' calls and the realizer-active stages in the same
    commands."""
    t = _Tree(tracer, root, counts)
    stepped = t.calls("realizers.Emitter.record")
    loop_s = t.outer_total(_layer("realizers"))
    out = {
        "core.clopen_built": t.calls("core.Clopen.__init__"),
        "core.intersect.calls": t.calls("core.Clopen.intersect"),
        "core.intersect_s": t.outer_total(_in({"core.Clopen.intersect"})),
        "core.union.calls": t.calls("core.Clopen.union"),
        "core.complement.calls": t.calls("core.Clopen.complement"),
        "core.search.calls": sum(t.calls(n) for n in SEARCH),
        "core.search_s": t.outer_total(_in(SEARCH)),
        "core.self_s": t.self_s(_layer("core")),
        "realizers.stages_stepped": stepped,
        "realizers.pads": t.calls("realizers.Emitter.pad"),
        "realizers.loop_s": loop_s,
        "realizers.self_s": t.self_s(_layer("realizers")),
        "realizers.us_per_stage": loop_s / stepped * 1e6 if stepped else 0.0,
        "realizers.active_stage_ratio": active_stages / stepped if stepped else 0.0,
        "enumeration.stage_view.calls": t.calls("enumeration.Enumeration.stage_view"),
        "enumeration.measure_at.calls": t.calls("enumeration.Enumeration.measure_at"),
        "enumeration.views_self_s": t.self_s(_in(VIEWS)),
        "core.dyadic_cmp.calls": (t.calls("core.Dyadic.__lt__")
                                  + t.calls("core.Dyadic.__le__")),
        "constructions.lemma63_s": t.outer_total(_in({"constructions.build_lemma63"})),
        "constructions.self_s": t.self_s(_layer("constructions")),
        "constructions.witness.calls": t.calls("constructions.ConstructionTrace.witness"),
        "cli.serialize_s": t.outer_total(_in({"cli.trace_lines"})),
        "cli.write_s": t.outer_total(_in({"cli.write_trace"})),
        "constructions.jline.calls": t.calls("constructions.jline"),
        "cli.load_validate_s": t.outer_total(
            _in({"enumeration.load_scenario", "enumeration.validate_scenario"})),
        "enumeration.derive_s": t.outer_total(_in(DERIVE)),
        "cli.execute_s": t.outer_total(_in({"cli.execute"})),
        "cli.regenerate_s": t.outer_total(_in({"cli.regenerate"})),
        "cli.verify_self_s": t.self_s(_layer("cli")),
        "deficiency.member_at_stage.calls": t.calls("deficiency.member_at_stage"),
        "deficiency.rd_at_stage.calls": t.calls("deficiency.rd_at_stage"),
        "deficiency.cotree_alive.calls": t.calls("deficiency.CoTree.alive"),
        "deficiency.self_s": t.self_s(_layer("deficiency")),
    }
    return out
