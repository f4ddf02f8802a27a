"""Monotone stream transducers realizing the deficiency-bound reductions.

Every realizer here follows one discipline: committed output never shrinks;
a trigger appends a pad block whose cylinder sits inside the demanded stage
view, resets the source cursor, and re-emits the source from position 0.  The
final output is therefore pad-then-source, materializable as a stream again.

Scheduling is fixed for determinism.  At each stage the watches are checked
first; then stage ``t`` emits one source bit iff ``t - last_progress >
grace``, where ``last_progress`` is the last stage that padded or raised a
watermark.  The default grace is three quarters of the stage budget: triggers
resolve over pad-only prefixes in the front of the run while the back of the
run keeps the output growing, so productivity still scales with the stage
budget.

A realizer with an output stream is one ``Emitter``: it owns the run's
trace, committed output, pads and emission segments, and the CLI reads them
off it.  ``Emitter.pad_into`` is the one pad search; when no pad exists it
raises ``SearchExhaustedError`` naming the realizer, the demanded
components, the stage and the committed length.  ``Emitter.run`` drives the
realizer's watches through ``_run_clock``, which steps only the stages at
which a watch can fire: the change stages of the views it watches, and the
stage right after each stage at which it acted.  The emission of the stages
in between follows in closed form, one segment per stepped stage, so the
cost grows with the number of view changes, not with the stage budget.
``run`` then writes the ``monotone`` and ``shape`` witnesses.
``parallel_merge`` steps only its firing stages.  ``cn_times_mlr_to_lay``
writes the trace events of a skipped stretch as one run.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Sequence

from .core import (
    Clopen,
    Frozen,
    ScenarioError,
    SearchExhaustedError,
    first_extension_into,
    intersect_all,  # noqa: F401  unused; perfbench/test_perfbench.py patches it here
    pair,
    unpair3,
)
from .deficiency import CoTree, Stream, _inside, member_at_stage, prepend, rd_at_stage
from .enumeration import Budgets, Enumeration, MLTest, _run_clock, effective_top
from .constructions import ConstructionTrace


def default_grace(budgets: Budgets) -> int:
    """Emission holds off for three quarters of the stage budget."""
    return (3 * budgets.max_stage) // 4


class Emitter:
    """One monotone transducer run, named ``name``: its trace, committed
    output, pads and emission ``segments``.

    ``committed`` is ``base + source.prefix(cursor)`` by definition, so
    ``shape_ok`` checks the shape against the pads and segments.  Stages are
    accounted for in order, from the run's first stage up to, not including,
    ``next``, as ``segments``: a segment ``(first, stop, n, first_emit)``
    covers stages ``first..stop-1``, and the committed length after its
    stage ``t`` is ``n + max(0, t + 1 - first_emit)``.
    """

    def __init__(self, name: str, source: Stream, budgets: Budgets,
                 grace: int | None) -> None:
        self.name = name
        self.source = source
        self.trace = ConstructionTrace()
        self.grace = default_grace(budgets) if grace is None else grace
        self.depth = budgets.max_depth
        self.cursor = 0
        self.base = ""  # committed output at the last restart point
        self.last_progress = 0
        self.next = 0
        self.pads: list[dict] = []
        self.segments: list[tuple[int, int, int, int]] = []

    @property
    def committed(self) -> str:
        """The committed output, built on each read: emission only moves
        ``cursor``, so committing a bit is O(1)."""
        return self.base + self.source.prefix(self.cursor)

    def _committed_in(self, target: Clopen) -> bool:
        """``target.covers(self.committed)``, without building the committed
        output: its first ``n`` bits are the base's, then the source's."""
        base = self.base
        n = min(target.max_length(), len(base) + self.cursor)
        k = max(n - len(base), 0)
        return target._covers(int(base[:n] or "0", 2) << k | self.source._leading(k), n)

    @property
    def output(self) -> Stream:
        """The output stream: the last restart point, then the source."""
        return prepend(self.base, self.source)

    def record(self, last: int) -> None:
        """Account for stages ``next..last`` as one segment; called once per
        stepped stage, after its watches.  None of the stages acts after the
        first, and each emits one source bit iff it lies more than ``grace``
        stages past ``last_progress``: a constant run, then a ramp."""
        first, stop = self.next, last + 1
        n = len(self.base) + self.cursor
        first_emit = max(self.last_progress + self.grace + 1, first)
        self.cursor += max(0, stop - first_emit)
        self.next = stop
        self.segments.append((first, stop, n, first_emit))

    def pad(self, stage: int, tau: str, demanded: list[int]) -> None:
        """Commit ``tau``, record the demanded component indices, restart."""
        self.base = self.committed + tau
        self.cursor = 0
        self.pads.append({"stage": stage, "block": tau,
                          "end": len(self.base), "demanded": demanded})
        self.last_progress = stage
        self.trace.add(stage, "pad", block=tau, demanded=demanded,
                       committed=len(self.base))
        self.trace.add(stage, "restart")

    def pad_into(self, stage: int, target: Clopen, demanded: list[int]) -> None:
        """Pad with the first extension of the committed output into
        ``target``, the meet of the ``demanded`` components, or raise
        SearchExhaustedError."""
        committed = self.committed
        tau = first_extension_into(committed, target, self.depth)
        if tau is None:
            raise SearchExhaustedError(
                f"{self.name}: no pad into components {demanded} at stage "
                f"{stage} after {len(committed)} committed bits")
        self.pad(stage, tau, demanded)

    def run(self, changes: Sequence[int], first: int, last: int,
            step: Callable[[int], bool]) -> Emitter:
        """Step the stages ``first..last`` on the event clock, then finish."""
        self.next = first
        _run_clock(changes, first, last, step, self.record)
        return self.finish()

    def finish(self) -> Emitter:
        """Write the ``monotone`` and ``shape`` witnesses of the run."""
        self.trace.witness(f"{self.name}.monotone", self.monotone_ok())
        self.trace.witness(f"{self.name}.shape", self.shape_ok(),
                           base=self.base, tail_len=self.cursor)
        return self

    def shape_ok(self) -> bool:
        """Pad-then-source, read off the records: the last pad ends at
        ``len(base)`` (``base`` is empty without pads), each pad's block
        ends ``base`` up to its ``end``, and the last segment ends
        ``cursor`` source bits past ``base``."""
        pads, base = self.pads, self.base
        if (pads[-1]["end"] if pads else 0) != len(base) or not all(
                base[:p["end"]].endswith(p["block"]) for p in pads):
            return False
        return all(n + max(0, stop - e) == len(base) + self.cursor
                   for _, stop, n, e in self.segments[-1:])

    def monotone_ok(self) -> bool:
        """No segment ends above the next one's start (none falls within)."""
        segs = self.segments
        return all(n + max(0, stop - e) <= m + max(0, first + 1 - f)
                   for (_, stop, n, e), (first, _, m, f) in zip(segs, segs[1:]))


def verify_pads(run: Emitter, u: MLTest, final_stage: int) -> bool:
    """Re-check every committed pad block against the final stage views."""
    committed = run.committed
    for p in run.pads:
        prefix = committed[:p["end"]]
        for i in p["demanded"]:
            if i > u.max_index or not u.stage_view(i, final_stage).covers(prefix):
                return False
    return True


# ---------------------------------------------------------------------------
# deficiency-bound transfer (upper bounds travel between tests)
# ---------------------------------------------------------------------------

def lay_to_lay(vp: MLTest, u: MLTest, x: Stream, budgets: Budgets,
               grace: int | None = None) -> Emitter:
    """Re-pad ``x`` so any deficiency bound read off against ``u`` is a valid
    bound for ``x`` against the test ``v`` whose tail-union
    ``vp = shift_union(v)`` is given.

    Watches ``vp``; entering its component j triggers a pad into the
    intersection of ``u``'s components up to j+1.  Pads move the output,
    never ``x``, and every index below the watermark stays a member, so each
    stage's new triggers are the indices from the old watermark up to
    ``rd_at_stage``.
    """
    em = Emitter("lay_to_lay", x, budgets, grace)
    top = effective_top(u)
    j = 0

    def step(s: int) -> bool:
        nonlocal j
        start, j = j, rd_at_stage(x, vp, s)
        for k in range(start, j):
            em.trace.add(s, "trigger", index=k)
            n = min(k + 1, top)
            em.pad_into(s, u.meet_view(n, s), list(range(n + 1)))
        return j != start

    return em.run(vp.change_stages(), 0, budgets.max_stage, step)


def lay_to_lay_contract(run: Emitter, v: MLTest, u: MLTest, x: Stream,
                        budgets: Budgets) -> bool:
    """Soundness of the transferred bound: every index at or above the output's
    deficiency against ``u`` misses ``x`` in ``v``."""
    s = budgets.max_stage
    out_rd = rd_at_stage(run.output, u, s)
    return all(not member_at_stage(x, v, i, s)
               for i in range(out_rd, v.max_index + 1))


# ---------------------------------------------------------------------------
# exact deficiency recovery
# ---------------------------------------------------------------------------

def rd_from_lay_phi(v: MLTest, u: MLTest, x: Stream, budgets: Budgets,
                    grace: int | None = None) -> Emitter:
    """Pre-processor: on entering component j of ``v`` at stage s, pad into
    the intersection of ``u``'s components up to s (so the bound read off the
    output dominates every witness stage).  The triggers of stage s are the
    indices from the old watermark up to ``rd_at_stage(x, v, s)``."""
    em = Emitter("rd_from_lay", x, budgets, grace)
    top = effective_top(u)
    j = 0

    def step(s: int) -> bool:
        nonlocal j
        start, j = j, rd_at_stage(x, v, s)
        for k in range(start, j):
            em.trace.add(s, "trigger", index=k, stage_found=s)
            n = min(s, top)
            em.pad_into(s, u.meet_view(n, s), list(range(n + 1)))
        return j != start

    return em.run(v.change_stages(), 0, budgets.max_stage, step)


def rd_from_lay_psi(v: MLTest, x: Stream, k: int, budgets: Budgets) -> int:
    """Decoder: the deficiency of ``x`` against ``v`` at stage ``k``, clamped
    to the budget (views are frozen beyond it)."""
    return rd_at_stage(x, v, min(k, budgets.max_stage))


# ---------------------------------------------------------------------------
# pairing and parallel merges
# ---------------------------------------------------------------------------

def product_merge(u: MLTest, x: Stream, y: Stream, budgets: Budgets,
                  grace: int | None = None) -> Emitter:
    """Merge two inputs into one stream whose deficiency dominates both;
    the decoder duplicates the bound.  Requires a nested reference test."""
    if not u.nested:
        raise ScenarioError("product merge needs a nested test")
    em = Emitter("product_merge", x, budgets, grace)
    top = effective_top(u)
    level = 0
    dx = dy = 0

    def step(s: int) -> bool:
        nonlocal level, dx, dy
        start = (dx, dy)
        dx, dy = rd_at_stage(x, u, s), rd_at_stage(y, u, s)
        seen = max(dx, dy)
        if seen > level:
            em.trace.add(s, "trigger", level=seen)
            n = min(seen - 1, top)
            em.pad_into(s, u.meet_view(n, s), list(range(n + 1)))
            level = seen
        return (dx, dy) != start

    return em.run(u.change_stages(), 0, budgets.max_stage, step)


def parallel_merge(u: MLTest, xs: Sequence[Stream], budgets: Budgets,
                   grace: int | None = None) -> Emitter:
    """Dovetail over (input, component, stage) triples; whenever some input
    is seen inside a component whose intersection the output has not yet
    entered, pad into that intersection.  Decoder: constant sequence.

    Membership of input ``i`` in component ``n`` grows in ``t`` and changes
    only at the component's change stages, so only the first such ``t`` can
    pad for ``(i, n)``: the output then stays inside ``u.meet_view(n, s)``,
    as views grow and ``covers`` is monotone.  Only these stages are stepped.
    """
    if not xs:
        raise ScenarioError("parallel merge needs at least one stream")
    em = Emitter("parallel_merge", xs[0], budgets, grace)
    top = effective_top(u)
    firing = set()
    for i, x in enumerate(xs):
        for n in range(top + 1):
            # the view is empty before the component's first change stage
            t = next((t for t in u.component(n).change_stages()
                      if t <= budgets.max_stage and member_at_stage(x, u, n, t)), None)
            if t is not None:
                firing.add(pair(pair(i, n), t))

    def step(s: int) -> bool:
        if s in firing:
            i, n, t = unpair3(s)
            target = u.meet_view(n, s)
            if not em._committed_in(target):
                em.trace.add(s, "trigger", input=i, index=n, seen_at=t)
                em.pad_into(s, target, list(range(n + 1)))
        return False  # no watch can fire before the next firing stage

    return em.run(sorted(firing), 0, budgets.max_stage, step)


# ---------------------------------------------------------------------------
# two-call composition through a pair of exact bounds
# ---------------------------------------------------------------------------

def compose_star(u: MLTest, x: Stream, z: Stream, budgets: Budgets,
                 grace: int | None = None) -> Emitter:
    """Grow a companion of ``x`` whose deficiency dominates that of ``z``,
    the second call's input, tracking both watermarks: the first call's
    input ``x`` raises ``d_y``, and ``z`` entering component ``d_z`` pads
    into it.

    Requires a nested reference test.  The CLI composes two calls of
    ``rd_from_lay``: ``z`` is ``rd_from_lay_phi``'s output on ``x``, and
    the decoder is ``rd_from_lay_psi`` at the output's deficiency.
    """
    if not u.nested:
        raise ScenarioError("composition needs a nested test")
    em = Emitter("compose_star", x, budgets, grace)
    d_y = d_z = 0

    def step(s: int) -> bool:
        nonlocal d_y, d_z
        if d_y <= u.max_index and member_at_stage(x, u, d_y, s):
            d_y += 1
            em.trace.add(s, "raise_dy", d_y=d_y)
            em.last_progress = s
            return True
        if d_z <= u.max_index and member_at_stage(z, u, d_z, s):
            em.trace.add(s, "raise_dz", d_z=d_z + 1)
            em.pad_into(s, u.stage_view(d_z, s), [d_z])
            d_z += 1
            return True
        return False

    return em.run(u.change_stages(), 0, budgets.max_stage, step)


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


class ChoiceRun(Frozen):
    """A number-choice instance produced by watching one stream's descent."""

    __slots__ = ("enumerated", "survivor", "trace")

    def __init__(self, enumerated: tuple[int, ...], survivor: int | None,
                 trace: ConstructionTrace) -> None:
        self._set(enumerated, survivor, trace)

    def instance_values(self) -> list[int]:
        return [n + 1 for n in self.enumerated]


def lay_to_cn(u: MLTest, x: Stream, budgets: Budgets) -> ChoiceRun:
    """Enumerate the complement of a moving prime-power target: each time the
    stream enters the next component, retarget to a power of the next prime
    larger than everything enumerated so far.  The survivor decodes the final
    deficiency via its least prime divisor."""
    trace = ConstructionTrace()
    primes = _primes(u.max_index + 2)
    enumerated: list[int] = []
    enumerated_set: set[int] = set()
    omitted: list[int] = []
    counter = 0
    idx = 0
    target = primes[0]

    def step(s: int) -> bool:
        nonlocal counter, idx, target
        acted = False
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
            acted = True
        for _ in range(64):  # at most 64 numbers enumerated per stage
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
            acted = True
        return acted

    _run_clock(u.change_stages(), 0, budgets.max_stage, step)
    survivors = [n for n in range(counter) if n not in enumerated_set]
    trace.witness("lay_to_cn.survivor_unique", len(survivors) == 1,
                  survivors=survivors[:5])
    return ChoiceRun(enumerated=tuple(enumerated),
                     survivor=survivors[0] if survivors else None, trace=trace)


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
                        budgets: Budgets, grace: int | None = None) -> Emitter:
    """Tagged choice to deficiency bound: at every stage where the excluded
    value is stable, make sure the output sits inside the components up to
    that stage (padding only when it does not already).

    The pad target is constant between the watched stages and each step
    leaves the output inside it, so emission cannot make a pad fire in
    between: once the value has settled, a step that did not pad writes the
    ``stable`` events up to the next watched stage as one run."""
    em = Emitter("cn_times_mlr", x, budgets, grace)
    top = effective_top(u)
    # stable_value reads only the first s+1 values, so it is constant from
    # s = len(f_values) - 1 on
    settled = len(f_values)
    values = [stable_value(f_values, s) for s in range(settled + 1)]
    # a step compares stage s with s + 1, so the last one is S - 1
    last = budgets.max_stage - 1
    # the pad target moves only at these stages; last + 1 ends the final run
    watched = sorted(set(range(top + 1)).union(u.change_stages(), [last + 1]))

    def step(s: int) -> bool:
        now, nxt = values[min(s, settled)], values[min(s + 1, settled)]
        if now != nxt:
            em.trace.add(s, "changed", value=nxt)
            em.last_progress = s
            return True
        bound = min(s, top)
        target = u.meet_view(bound, s)
        padded = not em._committed_in(target)
        if padded or s < settled:
            em.trace.add(s, "stable", value=now)
            if padded:
                em.pad_into(s, target, list(range(bound + 1)))
            return True
        stop = watched[bisect_right(watched, s)]
        em.trace.add_run(s, stop, "stable", value=now)
        return False

    return em.run(watched, 0, last, step)


def cn_times_mlr_psi(f_values: Sequence[int], x: Stream, s: int) -> tuple[int, Stream]:
    return (stable_value(f_values, s), x)


# ---------------------------------------------------------------------------
# membership of a two-sided tree-presented set
# ---------------------------------------------------------------------------

def delta02_to_lay_phi(u: MLTest, t_trees: Sequence[CoTree],
                       s_trees: Sequence[CoTree], x: Stream, budgets: Budgets,
                       grace: int | None = None) -> Emitter:
    """Initial pad into component 0, then raise the pad level every time the
    stream's prefixes escape both trees at the current index."""
    if not u.nested:
        raise ScenarioError("tree membership realizer needs a nested test")
    if len(t_trees) != len(s_trees):
        raise ScenarioError("tree families must have equal length")
    em = Emitter("delta02_to_lay", x, budgets, grace)
    em.pad_into(0, u.stage_view(0, 0), [0])
    j = 0
    top = effective_top(u)

    def step(s: int) -> bool:
        nonlocal j
        if j >= len(t_trees) or j + 1 > top:
            return False
        for n in range(budgets.max_depth + 1):
            node = x._leading(n) | 1 << n
            if not t_trees[j].alive(node, s) and not s_trees[j].alive(node, s):
                em.trace.add(s, "trigger", index=j, escape_at=n)
                em.pad_into(s, u.stage_view(j + 1, s), [j + 1])
                j += 1
                return True
        return False

    changes = sorted({c for tr in (*t_trees, *s_trees) for c in tr.change_stages()})
    return em.run(changes, 1, budgets.max_stage, step)


def delta02_to_lay_psi(t_trees: Sequence[CoTree], s_trees: Sequence[CoTree],
                       x: Stream, advice: int, depth: int,
                       stage: int) -> int:
    """Decide membership: the first prefix length clearing one whole side up
    to the advice index names the other side as the answer."""
    hi = min(advice, len(t_trees) - 1)
    for n in range(depth + 1):
        node = x._leading(n) | 1 << n
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

class SemiDecidableRun(Frozen):
    __slots__ = ("g_advice", "f_run", "f_advice", "verdict", "expected", "trace")

    def __init__(self, g_advice: int, f_run: Emitter, f_advice: int, verdict: int,
                 expected: int, trace: ConstructionTrace) -> None:
        self._set(g_advice, f_run, f_advice, verdict, expected, trace)


def semidecidable_to_rd_star(w: MLTest, us: Sequence[Enumeration], x: Stream,
                             budgets: Budgets, grace: int | None = None
                             ) -> SemiDecidableRun:
    """Compose: first recover the exact bound of ``x`` against ``w``; then
    watch the chosen open set, and on entry pad into every component below
    the discovery stage so the second bound certifies the stage."""
    trace = ConstructionTrace()
    big_s = budgets.max_stage

    g_run = rd_from_lay_phi(w, w, x, budgets, grace)
    g_advice = rd_at_stage(g_run.output, w, big_s)
    level = rd_from_lay_psi(w, x, g_advice, budgets)
    trace.add(-1, "g_side", advice=g_advice, level=level)
    if level >= len(us):
        raise ScenarioError(f"no open set registered for level {level}")

    em = Emitter("semidecidable_star.f", x, budgets, grace)
    target_enum = us[level]
    done = False
    top = effective_top(w)

    def step(s: int) -> bool:
        nonlocal done
        if done or not _inside(x, target_enum.stage_view(s)):
            return False
        em.trace.add(s, "trigger", stage_found=s)
        bound = min(s - 1, top)
        target = w.meet_view(bound, s) if bound >= 0 else Clopen([""])
        em.pad_into(s, target, list(range(bound + 1)))
        done = True
        return True

    f_run = em.run(target_enum.change_stages(), 0, big_s, step)

    f_advice = rd_at_stage(f_run.output, w, big_s)
    verdict = 1 if _inside(x, target_enum.stage_view(min(f_advice, big_s))) else 0
    expected = 1 if _inside(x, target_enum.stage_view(big_s)) else 0
    trace.add(-1, "f_side", advice=f_advice, verdict=verdict, expected=expected)
    trace.witness("semidecidable_star.characteristic", verdict == expected,
                  level=level, advice=f_advice)
    trace.extend(g_run.trace)
    trace.extend(f_run.trace)
    return SemiDecidableRun(g_advice=g_advice, f_run=f_run, f_advice=f_advice,
                            verdict=verdict, expected=expected, trace=trace)
