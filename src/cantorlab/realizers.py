"""Monotone stream transducers realizing the deficiency-bound reductions.

Every realizer here follows one discipline: committed output never shrinks;
a trigger appends a pad block whose cylinder sits inside the demanded stage
view, resets the source cursor, and re-emits the source from position 0.  The
final output is therefore pad-then-source, materializable as a stream again.

Scheduling is fixed for determinism: one enumeration stage of each watched
test per step, triggers checked before emission, and source bits emitted only
once a trigger has been pending for ``grace`` stages.  The default grace is
three quarters of the stage budget: triggers resolve over pad-only prefixes in
the front of the run while the back of the run keeps the output growing, so
productivity still scales with the stage budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from .core import (
    Clopen,
    ScenarioError,
    SearchExhaustedError,
    first_extension_into,
    intersect_all,  # noqa: F401  unused; perfbench/test_perfbench.py patches it here
    unpair,
    unpair3,
)
from .deficiency import CoTree, Stream, member_at_stage, prepend, rd_at_stage
from .enumeration import Budgets, Enumeration, MLTest, effective_top, shift_union
from .constructions import ConstructionTrace


def default_grace(budgets: Budgets) -> int:
    """Emission holds off for three quarters of the stage budget."""
    return (3 * budgets.max_stage) // 4


class Emitter:
    """Committed-output bookkeeping for one monotone transducer run."""

    def __init__(self, source: Stream, trace: ConstructionTrace,
                 grace: int) -> None:
        self.source = source
        self.trace = trace
        self.grace = grace
        self.committed = ""
        self.cursor = 0
        self.base = ""  # committed output at the last restart point
        self.last_progress = 0
        self.pads: list[dict] = []
        self.history: list[int] = []

    def note_progress(self, stage: int) -> None:
        self.last_progress = stage

    def step_emit(self, stage: int) -> None:
        if stage - self.last_progress > self.grace:
            self.committed += self.source.bit(self.cursor)
            self.cursor += 1

    def record(self, stage: int) -> None:
        self.history.append(len(self.committed))

    def pad(self, stage: int, tau: str, target: Clopen, demanded: list[int]) -> None:
        """Commit ``tau``, record the demanded component indices, restart."""
        self.committed += tau
        self.pads.append({"stage": stage, "block": tau,
                          "end": len(self.committed), "demanded": demanded})
        self.base = self.committed
        self.cursor = 0
        self.last_progress = stage
        self.trace.add(stage, "pad", block=tau, demanded=demanded,
                       committed=len(self.committed))
        self.trace.add(stage, "restart")

    def output_stream(self, name: str) -> Stream:
        return prepend(self.base, self.source, name=name)

    def shape_ok(self) -> bool:
        tail = self.committed[len(self.base):]
        return self.source.prefix(len(tail)) == tail

    def monotone_ok(self) -> bool:
        return all(a <= b for a, b in zip(self.history, self.history[1:]))


def _pad_into(em: Emitter, stage: int, u: MLTest, upto: int, depth: int,
              label: str) -> None:
    top = min(upto, effective_top(u))
    target = u.meet_view(top, stage)
    tau = first_extension_into(em.committed, target, depth)
    if tau is None:
        raise SearchExhaustedError(
            f"{label}: no pad into components 0..{top} at stage {stage} "
            f"below {em.committed!r}")
    em.pad(stage, tau, target, demanded=list(range(top + 1)))


@dataclass
class RealizerRun:
    """One transducer execution plus its decoded contract data."""

    name: str
    source: Stream
    output: Stream
    committed: str
    pads: list[dict]
    trace: ConstructionTrace
    data: dict = field(default_factory=dict)


def _finish(name: str, em: Emitter, trace: ConstructionTrace, **data) -> RealizerRun:
    trace.sort_events()
    out = em.output_stream(f"{name}({em.source.name})")
    trace.outputs.update({"committed": em.committed, "output_pad": out.pad,
                          "pads": em.pads})
    trace.witness(f"{name}.monotone", em.monotone_ok())
    trace.witness(f"{name}.shape", em.shape_ok(),
                  base=em.base, tail_len=len(em.committed) - len(em.base))
    return RealizerRun(name=name, source=em.source, output=out,
                       committed=em.committed, pads=em.pads, trace=trace,
                       data={"history": em.history, **data})


def verify_pads(run: RealizerRun, u: MLTest, final_stage: int) -> bool:
    """Re-check every committed pad block against the final stage views."""
    for p in run.pads:
        prefix = run.committed[:p["end"]]
        for i in p["demanded"]:
            if i > u.max_index or not u.stage_view(i, final_stage).covers(prefix):
                return False
    return True


# ---------------------------------------------------------------------------
# deficiency-bound transfer (upper bounds travel between tests)
# ---------------------------------------------------------------------------

def lay_to_lay(v: MLTest, u: MLTest, x: Stream, budgets: Budgets,
               grace: int | None = None) -> RealizerRun:
    """Re-pad ``x`` so any deficiency bound read off against ``u`` is a valid
    bound for ``x`` against ``v``.

    Watches the tail-union of ``v``; entering its component j triggers a pad
    into the intersection of ``u``'s components up to j+1.
    """
    trace = ConstructionTrace(name="lay_to_lay")
    vp = shift_union(v)
    em = Emitter(x, trace, default_grace(budgets) if grace is None else grace)
    j = 0
    for s in range(budgets.max_stage + 1):
        while j <= vp.max_index and member_at_stage(x, vp, j, s):
            trace.add(s, "trigger", index=j)
            _pad_into(em, s, u, j + 1, budgets.max_depth, "lay_to_lay")
            j += 1
        em.step_emit(s)
        em.record(s)
    return _finish("lay_to_lay", em, trace, final_index=j)


def lay_to_lay_contract(run: RealizerRun, v: MLTest, u: MLTest, x: Stream,
                        budgets: Budgets) -> bool:
    """Soundness of the transferred bound: every index at or above the output's
    deficiency against ``u`` misses ``x`` in ``v``."""
    s = budgets.max_stage
    out_rd = rd_at_stage(run.output, u, s).value
    return all(not member_at_stage(x, v, i, s)
               for i in range(out_rd, v.max_index + 1))


# ---------------------------------------------------------------------------
# exact deficiency recovery
# ---------------------------------------------------------------------------

def rd_from_lay_phi(v: MLTest, u: MLTest, x: Stream, budgets: Budgets,
                    grace: int | None = None) -> RealizerRun:
    """Pre-processor: on entering component j of ``v`` at stage s, pad into
    the intersection of ``u``'s components up to s (so the bound read off the
    output dominates every witness stage)."""
    trace = ConstructionTrace(name="rd_from_lay")
    em = Emitter(x, trace, default_grace(budgets) if grace is None else grace)
    j = 0
    for s in range(budgets.max_stage + 1):
        while j <= v.max_index and member_at_stage(x, v, j, s):
            trace.add(s, "trigger", index=j, stage_found=s)
            _pad_into(em, s, u, s, budgets.max_depth, "rd_from_lay")
            j += 1
        em.step_emit(s)
        em.record(s)
    return _finish("rd_from_lay", em, trace, final_index=j)


def rd_from_lay_psi(v: MLTest, x: Stream, k: int, budgets: Budgets) -> int:
    """Decoder: least index whose view at stage ``k`` misses ``x`` (stages
    clamp to the budget; views are frozen beyond it)."""
    s = min(k, budgets.max_stage)
    for i in range(v.max_index + 1):
        if not member_at_stage(x, v, i, s):
            return i
    return v.max_index + 1


def rd_from_lay_run(v: MLTest, u: MLTest, x: Stream, budgets: Budgets,
                    grace: int | None = None) -> RealizerRun:
    run = rd_from_lay_phi(v, u, x, budgets, grace)
    s = budgets.max_stage
    advice = rd_at_stage(run.output, u, s).value
    decoded = rd_from_lay_psi(v, x, advice, budgets)
    expected = rd_at_stage(x, v, s).value
    run.data.update({"advice": advice, "decoded": decoded, "expected": expected})
    run.trace.outputs.update({"advice": advice, "decoded": decoded,
                              "expected": expected})
    run.trace.witness("rd_from_lay.exact", decoded == expected,
                      advice=advice, decoded=decoded, expected=expected)
    run.trace.witness("rd_from_lay.pads_valid", verify_pads(run, u, s))
    return run


# ---------------------------------------------------------------------------
# pairing and parallel merges
# ---------------------------------------------------------------------------

def product_merge(u: MLTest, x: Stream, y: Stream, budgets: Budgets,
                  grace: int | None = None) -> RealizerRun:
    """Merge two inputs into one stream whose deficiency dominates both;
    the decoder duplicates the bound.  Requires a nested reference test."""
    if not u.nested:
        raise ScenarioError("product merge needs a nested test")
    trace = ConstructionTrace(name="product_merge")
    em = Emitter(x, trace, default_grace(budgets) if grace is None else grace)
    level = 0
    dx = dy = 0
    for s in range(budgets.max_stage + 1):
        while dx <= u.max_index and member_at_stage(x, u, dx, s):
            dx += 1
        while dy <= u.max_index and member_at_stage(y, u, dy, s):
            dy += 1
        seen = max(dx, dy)
        if seen > level:
            trace.add(s, "trigger", level=seen)
            _pad_into(em, s, u, seen - 1, budgets.max_depth, "product_merge")
            level = seen
        em.step_emit(s)
        em.record(s)
    return _finish("product_merge", em, trace, level=level)


def product_merge_decoder(n: int) -> tuple[int, int]:
    return (n, n)


def parallel_merge(u: MLTest, xs: Sequence[Stream], budgets: Budgets,
                   grace: int | None = None) -> RealizerRun:
    """Dovetail over (input, component, stage) triples; whenever some input
    is seen inside a component whose intersection the output has not yet
    entered, pad into that intersection.  Decoder: constant sequence."""
    if not xs:
        raise ScenarioError("parallel merge needs at least one stream")
    trace = ConstructionTrace(name="parallel_merge")
    em = Emitter(xs[0], trace, default_grace(budgets) if grace is None else grace)
    top = effective_top(u)
    for s in range(budgets.max_stage + 1):
        i, n, t = unpair3(s)
        if i < len(xs) and n <= top and t <= budgets.max_stage:
            if member_at_stage(xs[i], u, n, t):
                target = u.meet_view(n, s)
                if not target.covers(em.committed):
                    trace.add(s, "trigger", input=i, index=n, seen_at=t)
                    tau = first_extension_into(em.committed, target,
                                               budgets.max_depth)
                    if tau is None:
                        raise SearchExhaustedError(
                            f"parallel_merge: no pad into 0..{n} at stage {s}")
                    em.pad(s, tau, target, demanded=list(range(n + 1)))
        em.step_emit(s)
        em.record(s)
    return _finish("parallel_merge", em, trace)


# ---------------------------------------------------------------------------
# two-call composition through a pair of exact bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InnerReduction:
    """A materialized pre/post-processor pair over the same scenario."""

    phi: Callable[[Stream], Stream]
    psi: Callable[[Stream, int], object]


def identity_reduction() -> InnerReduction:
    return InnerReduction(phi=lambda x: x, psi=lambda x, n: x)


def compose_star(u: MLTest, inner_f: InnerReduction, inner_g: InnerReduction,
                 x: Stream, budgets: Budgets,
                 grace: int | None = None) -> RealizerRun:
    """Run the inner pre-processor, then grow a companion stream whose
    deficiency dominates the second call's, tracking both watermarks.

    Requires a nested reference test; the decoder is
    (n, m) -> post_f(post_g(input, n), m).
    """
    if not u.nested:
        raise ScenarioError("composition needs a nested test")
    trace = ConstructionTrace(name="compose_star")
    y = inner_g.phi(x)
    em = Emitter(y, trace, default_grace(budgets) if grace is None else grace)
    d_y = d_z = 0
    z = inner_f.phi(inner_g.psi(x, d_y))
    if not isinstance(z, Stream):
        raise ScenarioError("inner post-processor must produce a stream input")
    events: list[tuple[str, int, int]] = []
    for s in range(budgets.max_stage + 1):
        if d_y <= u.max_index and member_at_stage(y, u, d_y, s):
            d_y += 1
            z = inner_f.phi(inner_g.psi(x, d_y))
            trace.add(s, "raise_dy", d_y=d_y)
            events.append(("dy", s, d_y))
            em.note_progress(s)
        elif d_z <= u.max_index and member_at_stage(z, u, d_z, s):
            trace.add(s, "raise_dz", d_z=d_z + 1)
            target = u.stage_view(d_z, s)
            tau = first_extension_into(em.committed, target, budgets.max_depth)
            if tau is None:
                raise SearchExhaustedError(
                    f"compose_star: no pad into component {d_z} at stage {s}")
            em.pad(s, tau, target, demanded=[d_z])
            d_z += 1
            events.append(("dz", s, d_z))
        em.step_emit(s)
        em.record(s)
    run = _finish("compose_star", em, trace, d_y=d_y, d_z=d_z, events=events)
    run.data["y"] = y
    run.data["z"] = z
    return run


def compose_star_psi(inner_f: InnerReduction, inner_g: InnerReduction,
                     x: Stream, n: int, m: int) -> object:
    mid = inner_g.psi(x, n)
    return inner_f.psi(mid, m)


# ---------------------------------------------------------------------------
# number-choice encoding via prime powers
# ---------------------------------------------------------------------------

def _primes(count: int) -> list[int]:
    out: list[int] = []
    n = 2
    while len(out) < count:
        if all(n % p for p in out):
            out.append(n)
        n += 1
    return out


@dataclass
class ChoiceRun:
    """A number-choice instance produced by watching one stream's descent."""

    enumerated: tuple[int, ...]
    survivor: int | None
    survivor_unique: bool
    final_index: int
    trace: ConstructionTrace

    def instance_values(self) -> list[int]:
        return [n + 1 for n in self.enumerated]


def lay_to_cn(u: MLTest, x: Stream, budgets: Budgets, batch: int = 64) -> ChoiceRun:
    """Enumerate the complement of a moving prime-power target: each time the
    stream enters the next component, retarget to a power of the next prime
    larger than everything enumerated so far.  The survivor decodes the final
    deficiency via its least prime divisor."""
    trace = ConstructionTrace(name="lay_to_cn")
    primes = _primes(u.max_index + 2)
    enumerated: list[int] = []
    enumerated_set: set[int] = set()
    omitted: list[int] = []
    counter = 0
    idx = 0
    target = primes[0]
    for s in range(budgets.max_stage + 1):
        if idx <= u.max_index and member_at_stage(x, u, idx, s):
            idx += 1
            bound = max(enumerated, default=0)
            p = primes[idx]
            power = p
            while power <= bound:
                power *= p
            omitted.append(target)
            target = power
            trace.add(s, "retarget", index=idx, target=target)
        for _ in range(batch):
            pool = sorted(o for o in omitted if o != target)
            if pool:
                m = pool[0]
                omitted.remove(m)
            elif counter <= target:
                while counter == target:
                    counter += 1
                m = counter
                counter += 1
            else:
                break  # everything below the bound except the target is out
            enumerated.append(m)
            enumerated_set.add(m)
    survivors = [n for n in range(counter) if n not in enumerated_set]
    unique = len(survivors) == 1
    survivor = survivors[0] if survivors else None
    trace.outputs = {"survivor": survivor, "unique": unique,
                     "count": len(enumerated), "final_index": idx}
    trace.witness("lay_to_cn.survivor_unique", unique, survivors=survivors[:5])
    return ChoiceRun(enumerated=tuple(enumerated), survivor=survivor,
                     survivor_unique=unique, final_index=idx, trace=trace)


def lay_to_cn_psi(n: int, u: MLTest) -> int:
    """Least index whose prime divides ``n``."""
    if n is None or n < 2:
        raise ValueError("decoder needs a number >= 2")
    for i, p in enumerate(_primes(u.max_index + 2)):
        if n % p == 0:
            return i
    raise ValueError(f"no registered prime divides {n}")


# ---------------------------------------------------------------------------
# number choice with a random tag
# ---------------------------------------------------------------------------

def stable_value(f_values: Sequence[int], s: int) -> int:
    """Least n excluded by the first s+1 values of the instance code."""
    banned = {f_values[k] for k in range(min(s + 1, len(f_values)))}
    n = 0
    while n + 1 in banned:
        n += 1
    return n


def cn_times_mlr_to_lay(u: MLTest, f_values: Sequence[int], x: Stream,
                        budgets: Budgets, grace: int | None = None) -> RealizerRun:
    """Tagged choice to deficiency bound: at every stage where the excluded
    value is stable, make sure the output sits inside the components up to
    that stage (padding only when it does not already)."""
    trace = ConstructionTrace(name="cn_times_mlr")
    em = Emitter(x, trace, default_grace(budgets) if grace is None else grace)
    top = effective_top(u)
    fired: list[int] = []
    for s in range(budgets.max_stage):
        if stable_value(f_values, s) == stable_value(f_values, s + 1):
            fired.append(s)
            trace.add(s, "stable", value=stable_value(f_values, s))
            bound = min(s, top)
            target = u.meet_view(bound, s)
            if not target.covers(em.committed):
                tau = first_extension_into(em.committed, target, budgets.max_depth)
                if tau is None:
                    raise SearchExhaustedError(
                        f"cn_times_mlr: no pad into 0..{bound} at stage {s}")
                em.pad(s, tau, target, demanded=list(range(bound + 1)))
        else:
            trace.add(s, "changed", value=stable_value(f_values, s + 1))
            em.note_progress(s)
        em.step_emit(s)
        em.record(s)
    return _finish("cn_times_mlr", em, trace, fired=len(fired))


def cn_times_mlr_psi(f_values: Sequence[int], x: Stream, s: int) -> tuple[int, Stream]:
    return (stable_value(f_values, s), x)


# ---------------------------------------------------------------------------
# membership of a two-sided tree-presented set
# ---------------------------------------------------------------------------

def delta02_to_lay_phi(u: MLTest, t_trees: Sequence[CoTree],
                       s_trees: Sequence[CoTree], x: Stream, budgets: Budgets,
                       grace: int | None = None) -> RealizerRun:
    """Initial pad into component 0, then raise the pad level every time the
    stream's prefixes escape both trees at the current index."""
    if not u.nested:
        raise ScenarioError("tree membership realizer needs a nested test")
    if len(t_trees) != len(s_trees):
        raise ScenarioError("tree families must have equal length")
    trace = ConstructionTrace(name="delta02_to_lay")
    em = Emitter(x, trace, default_grace(budgets) if grace is None else grace)
    depth = budgets.max_depth
    tau0 = first_extension_into("", u.stage_view(0, 0), depth)
    if tau0 is None:
        raise SearchExhaustedError("no initial pad inside component 0")
    em.pad(0, tau0, u.stage_view(0, 0), demanded=[0])
    j = 0
    top = effective_top(u)

    def tree_static(tr: CoTree) -> bool:
        changes = getattr(tr.dead, "change_stages", tuple)()
        return tuple(changes) in ((), (0,))

    esc_cache: dict[int, int | None] = {}

    def escape_at(idx: int, s: int) -> int | None:
        static = tree_static(t_trees[idx]) and tree_static(s_trees[idx])
        if static and idx in esc_cache:
            return esc_cache[idx]
        found = None
        for n in range(depth + 1):
            node = x.prefix(n)
            if not t_trees[idx].alive(node, s) and not s_trees[idx].alive(node, s):
                found = n
                break
        if static:
            esc_cache[idx] = found
        return found

    for s in range(1, budgets.max_stage + 1):
        if j < len(t_trees) and j + 1 <= top:
            esc = escape_at(j, s)
            if esc is not None:
                trace.add(s, "trigger", index=j, escape_at=esc)
                target = u.stage_view(j + 1, s)
                tau = first_extension_into(em.committed, target, depth)
                if tau is None:
                    raise SearchExhaustedError(
                        f"delta02: no pad into component {j + 1} at stage {s}")
                em.pad(s, tau, target, demanded=[j + 1])
                j += 1
        em.step_emit(s)
        em.record(s)
    return _finish("delta02_to_lay", em, trace, final_index=j)


def delta02_to_lay_psi(t_trees: Sequence[CoTree], s_trees: Sequence[CoTree],
                       x: Stream, advice: int, depth: int,
                       stage: int) -> int:
    """Decide membership: the first prefix length clearing one whole side up
    to the advice index names the other side as the answer."""
    hi = min(advice, len(t_trees) - 1)
    for n in range(depth + 1):
        node = x.prefix(n)
        if all(not t_trees[j].alive(node, stage) for j in range(hi + 1)):
            return 0
        if all(not s_trees[j].alive(node, stage) for j in range(hi + 1)):
            return 1
    raise ScenarioError(
        f"stream {x.name!r} escapes neither side up to index {hi}: "
        "the declared partition is violated")


# ---------------------------------------------------------------------------
# layerwise semi-decidable membership through two exact bounds
# ---------------------------------------------------------------------------

@dataclass
class SemiDecidableRun:
    g_run: RealizerRun
    g_advice: int
    level: int
    f_run: RealizerRun
    f_advice: int
    verdict: int
    expected: int
    trace: ConstructionTrace


def semidecidable_to_rd_star(w: MLTest, us: Sequence[Enumeration], u_oracle: MLTest,
                             x: Stream, budgets: Budgets,
                             grace: int | None = None) -> SemiDecidableRun:
    """Compose: first recover the exact bound of ``x`` against ``w``; then
    watch the chosen open set, and on entry pad into every component below
    the discovery stage so the second bound certifies the stage."""
    trace = ConstructionTrace(name="semidecidable_star")
    big_s, depth = budgets.max_stage, budgets.max_depth

    g_run = rd_from_lay_phi(w, u_oracle, x, budgets, grace)
    g_advice = rd_at_stage(g_run.output, u_oracle, big_s).value
    level = rd_from_lay_psi(w, x, g_advice, budgets)
    trace.add(-1, "g_side", advice=g_advice, level=level)
    if level >= len(us):
        raise ScenarioError(f"no open set registered for level {level}")

    f_trace = ConstructionTrace(name="semidecidable_star.f")
    em = Emitter(x, f_trace, default_grace(budgets) if grace is None else grace)
    target_enum = us[level]
    done = False
    top = effective_top(w)
    for s in range(big_s + 1):
        if not done:
            view = target_enum.stage_view(s)
            if any(x.starts_with(c) for c in view.cylinders):
                f_trace.add(s, "trigger", stage_found=s)
                bound = min(s - 1, top)
                if bound >= 0:
                    target = w.meet_view(bound, s)
                else:
                    target = Clopen([""])
                tau = first_extension_into(em.committed, target, depth)
                if tau is None:
                    raise SearchExhaustedError(
                        f"semidecidable: no pad into 0..{bound} at stage {s}")
                em.pad(s, tau, target, demanded=list(range(bound + 1)))
                done = True
        em.step_emit(s)
        em.record(s)
    f_run = _finish("semidecidable_star.f", em, f_trace)

    f_advice = rd_at_stage(f_run.output, w, big_s).value
    verdict = 1 if any(x.starts_with(c)
                       for c in target_enum.stage_view(min(f_advice, big_s)).cylinders) else 0
    expected = 1 if any(x.starts_with(c)
                        for c in target_enum.stage_view(big_s).cylinders) else 0
    trace.add(-1, "f_side", advice=f_advice, verdict=verdict, expected=expected)
    trace.witness("semidecidable_star.characteristic", verdict == expected,
                  level=level, advice=f_advice)
    trace.events.extend(g_run.trace.events)
    trace.events.extend(f_trace.events)
    trace.witnesses.extend(g_run.trace.witnesses)
    trace.witnesses.extend(f_trace.witnesses)
    trace.outputs = {"level": level, "g_advice": g_advice, "f_advice": f_advice,
                     "verdict": verdict, "expected": expected}
    return SemiDecidableRun(g_run=g_run, g_advice=g_advice, level=level,
                            f_run=f_run, f_advice=f_advice, verdict=verdict,
                            expected=expected, trace=trace)
