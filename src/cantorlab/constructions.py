"""Stage-by-stage set constructions with full traces and witness obligations.

Each builder replays one staged construction deterministically, records every
decision as an event, and afterwards evaluates its finite-stage obligations
(the claims a verifier re-checks).  It returns the trace, whose ``outputs``
hold what it built.  Rebuilding from the same inputs must reproduce the trace
byte for byte.  A caller that keeps only the outputs (``cli.produced_tests``)
passes ``obligations=False`` to ``lemma31``, ``thm33``, ``thm41`` and
``thm410``, which then return before their closing witnesses.

``thm33`` and ``thm41`` run on the realizers' event clock
(``enumeration._run_clock``): they step only the stages at which a watched
view or a table can move, so their cost grows with the number of change
stages, not with the stage budget.  ``lemma63`` dovetails over its visits,
the stages ``pair(i, t) <= S`` whose length ``n0 + i`` is within the depth;
it adds a cone at most of them (5,468 of 6,851 on the bundled deep
scenario), so its loop stays O(visits).  A visit costs a few integer
operations: each length's cones form one lex interval, so the covered test
compares integer bounds; the last covering length is asked first (5,333 of
deep's 5,405 covered visits), and a cone found alive at its last visit is
compared only with the lengths moved since (7,378 comparisons, not 16,568).
The tree is asked only about an uncovered cone not found alive since its
dead view last moved (92 of 1,384), an init is the first leaf past the
intervals, and event lines come from fixed-shape templates.  The
half-measure pass looks up a cone only when the build could not show it
inside an earlier one (114 of 5,468), and each stretch of its witnesses
that share their data is one run (71 on deep, holding 5,470).
"""

from __future__ import annotations

import json
from typing import Iterator, Mapping, Sequence

from .core import (
    BudgetError,
    Clopen,
    Dyadic,
    ScenarioError,
    SearchExhaustedError,
    first_free_string,
    pair,
    str_order_key,
    unpair,
)
from .deficiency import CoTree, Stream, prepend, rd_at_stage
from .enumeration import Budgets, Enumeration, MLTest, _run_clock, stratify


def _default(obj):
    """The JSON form of a library value, the encoder's ``default`` hook: the
    encoder writes what this returns, calling the hook again on any library
    value inside it, and writes tuples as lists."""
    if isinstance(obj, Clopen):
        return obj.cylinders
    if isinstance(obj, Dyadic):
        return str(obj)
    if isinstance(obj, Enumeration):
        return obj.schedule
    if isinstance(obj, MLTest):
        return {"components": obj.components, "nested": obj.nested, "notes": obj.notes}
    raise TypeError(f"Object of type {type(obj).__name__} has no trace JSON form")


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=_default)
# ``_ENCODER.encode`` builds a new C encoder per call; one instance with the
# same settings, and no circular-reference markers, is shared instead.
_chunks = json.encoder.c_make_encoder(
    None, _default, json.encoder.encode_basestring_ascii, None,
    _ENCODER.key_separator, _ENCODER.item_separator, True, False, True)


def _encode(obj) -> str:
    """``_ENCODER.encode(obj)`` through the shared C encoder."""
    return "".join(_chunks(obj, 0))


def jline(obj) -> str:
    """``_encode`` for the CLI, whose calls a tracer can count apart."""
    return _encode(obj)


def _event_head(action: str, payload: dict) -> str:
    """``jline`` of the event record up to its stage, which sorts last."""
    return f'{{"action":{_encode(action)},"payload":{_encode(payload)},"stage":'


class ConstructionTrace:
    """Events, added in stage order, named outputs, and pass/fail witness
    obligations.  An event is held as its encoded line, and a run of one
    event over consecutive stages as one entry ``(head, first, stop)``, line
    ``f"{head}{s}}}"`` at stage ``s``; a witness as a dict, and a run of
    witnesses that share status and data as ``(prefix, stages, status, data)``."""

    __slots__ = ("events", "outputs", "witnesses")

    def __init__(self) -> None:
        self.events: list[str | tuple[str, int, int]] = []
        self.outputs: dict[str, object] = {}
        self.witnesses: list[dict | tuple[str, list[int], str, dict]] = []

    def add(self, stage: int, action: str, /, **payload) -> None:
        """One event; ``stage`` and ``action`` are positional, so any name,
        ``action`` too, can be a payload key."""
        self.events.append(f"{_event_head(action, payload)}{stage}}}")

    def add_run(self, first: int, stop: int, action: str, /, **payload) -> None:
        """The same event at each stage ``first..stop-1`` (``first >= 0``), as one entry."""
        if first < 0:
            raise ValueError(f"run starts at negative stage {first}")
        if first < stop:
            self.events.append((_event_head(action, payload), first, stop))

    def event_count(self) -> int:
        """The number of events, a run counting as its stages."""
        return sum(1 if type(e) is str else e[2] - e[1] for e in self.events)

    def witness(self, claim: str, ok: bool, **data) -> None:
        self.witnesses.append({"claim": claim, "status": "pass" if ok else "fail",
                               "data": data})

    def witness_count(self) -> int:
        """The number of witnesses, a run counting as its stages."""
        return sum(1 if type(w) is dict else len(w[1]) for w in self.witnesses)

    def obligations(self, failed: bool = False) -> Iterator[dict]:
        """Each witness as a dict, a run one per stage ``q`` with the claim
        ``f"{prefix}{q}"``; with ``failed``, only those whose status is not ``pass``."""
        for w in self.witnesses:
            if type(w) is dict:
                if not failed or w["status"] != "pass":
                    yield w
            elif not failed or w[2] != "pass":
                yield from ({"claim": f"{w[0]}{q}", "status": w[2], "data": w[3]}
                            for q in w[1])

    def extend(self, other: ConstructionTrace, tag: str | None = None) -> None:
        """Append ``other``'s events and witnesses, suffixing each claim with
        ``.tag`` when a tag is given (an empty tag still adds the dot)."""
        self.events.extend(other.events)
        self.witnesses.extend(other.witnesses if tag is None else (
            {"claim": f"{w['claim']}.{tag}", "status": w["status"], "data": w["data"]}
            for w in other.obligations()))

    def failed_claims(self) -> list[str]:
        return [w["claim"] for w in self.obligations(failed=True)]

    def lines(self) -> list[str | tuple]:
        """The stored event entries, then one JSON line for the outputs and
        one per witness.  A run stays one entry, a witness run as ``(head,
        stages, tail)`` with the line ``f"{head}{q}{tail}"`` at stage ``q``:
        ``cli._text_blocks`` expands runs when the trace is written or
        compared, so no list of their lines is built.  The outputs record is
        written from the encodings of its values in sorted key order, and a
        value that several keys share is encoded once; a key is written as
        the encoder writes a string, so one that is not a string raises
        TypeError."""
        out = self.events.copy()
        string = json.encoder.encode_basestring_ascii
        memo: dict[int, str] = {}  # by the identity of a value
        items = []
        for k, v in sorted(self.outputs.items()):
            encoded = memo.get(id(v))
            if encoded is None:
                encoded = memo[id(v)] = _encode(v)
            items.append(f"{string(k)}:{encoded}")
        out.append(f'{{"action":"outputs","payload":{{{",".join(items)}}},"stage":-1}}')
        for w in self.witnesses:
            if type(w) is dict:  # sort_keys writes claim, data, status
                out.append(_encode(w))
            else:  # the claim's closing quote moves past the stage
                prefix, stages, status, data = w
                out.append((f'{{"claim":{string(prefix)[:-1]}', stages,
                            f'","data":{_encode(data)},"status":"{status}"}}'))
        return out


# ---------------------------------------------------------------------------
# non-containment cover: a single open set no small component fits inside
# ---------------------------------------------------------------------------

def build_lemma31(u: MLTest, budgets: Budgets, sigma_stages: int | None = None,
                  *, obligations: bool = True) -> ConstructionTrace:
    """Carve marker cylinders out of component 2 and re-admit only their
    intersection with a much smaller component.

    Stage s picks the first free string of length >= s+2 disjoint from the
    current component-2 view and all previous markers; the produced open set
    contains everything component 2 covers outside the markers, plus each
    marker's trace inside the component indexed by its own length + 1.  Each
    marker becomes one component of the emitted counterexample family.
    Without ``obligations`` it returns once the outputs are set.
    """
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
                  all(Dyadic.exp2(-len(sig)) <= Dyadic.exp2(-(i + 2))
                      for i, sig in enumerate(sigmas)))
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


# ---------------------------------------------------------------------------
# divergence-witness test pair
# ---------------------------------------------------------------------------

def least_divergence_point(table: Mapping[int, tuple[int, int]]) -> int:
    n = 0
    while n in table:
        n += 1
    return n


def build_thm33(u: MLTest, tables: Mapping[int, Mapping[int, tuple[int, int]]],
                budgets: Budgets, *, obligations: bool = True) -> ConstructionTrace:
    """Track each table's convergence front; on every convergence, plant a
    fresh witness cylinder into the small components and jump the watched
    component index above the witness length.

    Runs stage-major over all tracked indices on the event clock;
    enumerations land one stage after the action that produced them.
    Without ``obligations`` it returns once the outputs are set.
    """
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

    def step(s: int) -> bool:
        acted = False
        for e in indices:
            entry = tables[e].get(n_state[e])
            converged = entry is not None and entry[0] <= s
            if not converged:
                if e_state[e] <= u.max_index:
                    w_add(e, s + 1, u.stage_view(e_state[e], s))
                continue
            acted = True
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
        return acted

    # A watch moves only at a change stage of u, at a table entry's stage, or
    # right after a convergence; an unconverged table repeats its last view.
    entry_stages = {st for tbl in tables.values() for st, _ in tbl.values()}
    _run_clock(sorted({0, *u.change_stages(), *entry_stages}), 0, big_s - 1, step)
    w = MLTest([Enumeration(w_sched.get(e, [])) for e in range(top + 1)])
    v_comps = [Enumeration([(s, c) for s, j, c in v_sched if j == i])
               for i in range(u.max_index + 1)]
    v = MLTest(v_comps)
    least_div = {e: least_divergence_point(tables[e]) for e in indices}
    trace.outputs = {"w": w, "v": v, "n_final": {str(e): n_state[e] for e in indices},
                     "e_final": {str(e): e_state[e] for e in indices},
                     "least_divergence": {str(e): least_div[e] for e in indices}}
    if not obligations:
        return trace

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
# ---------------------------------------------------------------------------

def _half_coverage_stage(table: Mapping[tuple[str, int], int], advice: int) -> int | None:
    """Least depth t whose exactly-length-t table strings of vote < 2 cover
    at least half the space, or None."""
    lengths = sorted({len(p) for (p, a) in table if a == advice})
    for t in lengths:
        level = [p for (p, a), v in table.items()
                 if a == advice and len(p) == t and v < 2]
        if Clopen(level).measure() >= Dyadic(1, 1):
            return t
    return None


def build_thm41(y: MLTest, functionals: Mapping[int, Mapping[tuple[str, int], int]],
                budgets: Budgets, inert: frozenset[int] = frozenset(),
                *, obligations: bool = True) -> ConstructionTrace:
    """Diagonalize against every advice table: once a table votes on half the
    space at some depth, pick a small undecided cylinder and sort it into the
    set opposite to its vote, bumping the watched component above its length.

    ``y`` must be stagewise nested.  Tables that never reach half coverage
    must be declared inert.  Without ``obligations`` it returns once the
    outputs are set, keeping the witnesses written at trigger stages.
    """
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
    in_set = out_set = Clopen()
    in_out: list[tuple[int, bool]] = []  # (trigger stage, in/out sets sound)
    w_sched: dict[int, list[tuple[int, str]]] = {i: [] for i in range(max_i + 1)}
    w_current: dict[int, Clopen] = {i: Clopen() for i in range(max_i + 1)}
    triggered: dict[int, dict] = {}

    def y_view(e: int, t: int) -> Clopen:
        return y.stage_view(e, t) if e <= y.max_index else Clopen()

    def step(s: int) -> bool:
        nonlocal in_set, out_set
        i, t = unpair(s)
        tbl = functionals.get(i)
        if tbl is not None and t_half.get(i) == t and i not in triggered:
            blocked = w_current[i].union(in_set).union(out_set)
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
                in_set = in_set.union(Clopen([sigma]))
            else:
                out_set = out_set.union(Clopen([sigma]))
            e_state[i] = max(e_state[i], len(sigma)) + 1
            triggered[i] = {"stage": s, "t": t, "sigma": sigma, "vote": vote,
                            "e_index": e_state[i]}
            trace.add(s, "trigger", e=i, t=t, sigma=sigma, vote=vote,
                      e_index=e_state[i])
            trace.witness(f"thm41.sigma_measure.{i}",
                          Dyadic.exp2(-len(sigma)) <= Dyadic.exp2(-(s + 5)),
                          sigma=sigma, stage=s)
            sound = (in_set.intersect(out_set) == Clopen()
                     and in_set.measure() <= Dyadic(1, 4)
                     and out_set.measure() <= Dyadic(1, 4))
            trace.witness(f"thm41.in_out_stage.{s}", sound)
            in_out.append((s, sound))
        view = y_view(e_state[i], t)
        if view and not view.is_subset_of(w_current[i]):
            w_sched[i].extend((s, c) for c in view.cylinders)
            w_current[i] = w_current[i].union(view)
        return False

    # Row i <= max_i moves only at t = 0, a change stage of y, or its trigger
    # t_half[i]: in between its view repeats, and a repeated view is inside
    # w_current[i].  No step acts, so only these visits are stepped.
    row_moves = {0, *y.change_stages()}
    visits = {pair(i, t) for i in range(max_i + 1)
              for t in row_moves | ({t_half.get(i)} - {None})}
    _run_clock(sorted(v for v in visits if v <= big_s), 0, big_s, step)

    w = MLTest([Enumeration(w_sched[i]) for i in range(max_i + 1)], check=False)
    for i in range(max_i + 1):
        if w.component(i).final_measure() > Dyadic.exp2(-(i + 4)):
            raise BudgetError(f"component {i} exceeded its 2^-{i + 4} bound")
    trace.outputs = {"w": w, "in": in_set, "out": out_set,
                     "triggers": {str(k): v for k, v in sorted(triggered.items())}}
    if not obligations:
        return trace

    final = big_s
    # A stage triggers at most one table, so the sets a trigger saw are the
    # cumulative sets at its stage.
    for s, sound in in_out:
        trace.witness(f"thm41.in_out_cumulative.{s}", sound)
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


# ---------------------------------------------------------------------------
# halting-sensitive rebuild over the unary-prefixed test
# ---------------------------------------------------------------------------

def build_thm410(v: MLTest, halting: Mapping[int, int], budgets: Budgets,
                 streams: Sequence[Stream] = (), *,
                 obligations: bool = True) -> ConstructionTrace:
    """Rebuild the unary-prefixed test so that, after a declared halt of
    index e, each component additionally enumerates the [1^e 0] part of the
    previous component from the halt stage on.  Without ``obligations`` it
    returns once the outputs are set."""
    for i in range(v.max_index + 1):
        if v.component(i).final_measure() > Dyadic.exp2(-(i + 2)):
            raise BudgetError(
                f"input component {i} must stay within 2^-{i + 2}")
    depth = budgets.max_depth
    trace = ConstructionTrace()
    vstr = stratify(v, budgets)

    comps: list[Enumeration] = [vstr.component(0)]
    skipped = 0
    for i in range(vstr.max_index):
        sched = list(vstr.component(i + 1).schedule)
        for e, h in sorted(halting.items()):
            cone = "1" * e + "0"
            if len(cone) > depth:
                skipped += 1
                continue
            for st, c in vstr.component(i).schedule:
                if c.startswith(cone) or cone.startswith(c):
                    kept = c if len(c) >= len(cone) else cone
                    sched.append((max(h, st), kept))
        comps.append(Enumeration(sched))
    u = MLTest(comps)
    for h, e in sorted((h, e) for e, h in halting.items()):
        trace.add(h, "halt", e=e)
    trace.outputs = {"u": u, "vstr_skipped": skipped,
                     "halting": {str(e): h for e, h in sorted(halting.items())}}
    if not obligations:
        return trace

    final = budgets.max_stage
    for i in range(vstr.max_index):
        lhs = u.component(i + 1).final_measure()
        rhs = vstr.component(i + 1).final_measure() + vstr.component(i).final_measure()
        trace.witness(f"thm410.budget_sum.{i + 1}",
                      lhs <= rhs and lhs <= Dyadic.exp2(-(i + 1)),
                      measure=lhs, bound=rhs)

    probe = [e for e in range(min(6, budgets.max_layers + 1)) if e not in halting]
    stages = sorted(set(u.change_stages()) | set(vstr.change_stages()) | {0, final})
    for e in probe[:3]:
        cone = Clopen(["1" * e + "0"])
        ok = all(
            u.stage_view(i, s).intersect(cone) == vstr.stage_view(i, s).intersect(cone)
            for i in range(vstr.max_index + 1)
            for s in stages)
        trace.witness(f"thm410.nonhalting_unchanged.{e}", ok)

    for e in sorted(halting):
        if e > budgets.max_layers:
            continue
        for x in streams:
            d = rd_at_stage(x, v, final)
            if not 2 <= d <= v.max_index:
                continue
            got = rd_at_stage(prepend("1" * e + "0", x), u, final)
            trace.witness(f"thm410.halting_shift.{e}.{x.name}", got > d - 1,
                          rd_input=d, rd_output=got)
    return trace


# ---------------------------------------------------------------------------
# right-shift cone enumeration along a shrinking tree
# ---------------------------------------------------------------------------

def _init_line(s: int, n: int, sigma: str) -> str:
    """``jline`` of an ``init`` event: its ints and binary strings encode as
    themselves, and the keys are written in sorted order."""
    return f'{{"action":"init","payload":{{"length":{n},"sigma":"{sigma}"}},"stage":{s}}}'


def _replace_line(s: int, n: int, old: str, new: str, reason: str) -> str:
    """``jline`` of a ``replace`` event, written like ``_init_line``."""
    return (f'{{"action":"replace","payload":{{"length":{n},"new":"{new}",'
            f'"old":"{old}","reason":"{reason}"}},"stage":{s}}}')


def build_lemma63(tree: CoTree, budgets: Budgets) -> ConstructionTrace:
    """Enumerate, per length, one tracked cylinder meeting the tree, shifting
    it one step right whenever it dies in the tree or is swallowed by a
    shorter enumerated cone."""
    big_s, depth = budgets.max_stage, budgets.max_depth
    final_measure = tree.path_measure(big_s)
    quarter = final_measure.half().half()
    n0 = 0
    while n0 < depth and not (Dyadic.exp2(-n0) <= quarter):
        n0 += 1
    if n0 >= depth:
        raise BudgetError(
            f"tree too thin: need 4 * 2^-n0 <= {final_measure} with n0 < K")
    trace = ConstructionTrace()
    trace.add(-1, "n0", value=n0, tree_measure=final_measure)

    # One [stage, cone] pair per stage, in stage order: the list is the
    # schedule that ``Enumeration(cones)`` would be written as for ``a``.
    cones: list[list] = []
    inside: list[bool] = []  # cones[k] lies inside an earlier, shorter cone
    events = trace.events
    # The cones of length n0 + i are the lex interval [lows[i], highs[i]]:
    # each starts at its init and moves one step right at a time.  sigmas[i]
    # is the string of highs[i], the tracked cone, and last[i] the shorter
    # length whose interval last held a prefix of it, or -1.  alive_in[i] is
    # the dead interval, the count of dead changes up to the stage, in which
    # the tracked cone was last found alive, or -1: the tree's dead view is
    # constant in an interval, so the cone stays alive there.
    top = depth - n0
    sigmas: list[str] = []
    lows: list[int] = []
    highs: list[int] = []
    last = [-1] * (top + 1)
    alive_in = [-1] * (top + 1)
    dead_changes, interval = tree.change_stages(), 0
    specs = [f"0{n0 + i}b" for i in range(top + 1)]

    # Stage s = pair(i, t) visits length n0 + i; diagonal w holds the stages
    # w(w+1)/2 + i for i <= w, in stage order, and lengths past the depth
    # are never visited.
    w, first = 0, 0
    while first <= big_s:
        moved: list[int] = []  # the lengths that moved in this diagonal
        for i in range(min(w - 1, top, big_s - first) + 1):
            s, n = first + i, n0 + i
            if n > tree.depth:  # raises, as for a node deeper than the tree
                tree.alive(sigmas[i], s)
            # No cone is shorter than n0, and the prefix of length n0 + j of
            # sigma is a cone iff it lies in length n0 + j's interval.  The
            # length j = last[i] is asked first, about its top only: v and so
            # its prefix only grow, and that prefix was once at least lows[j].
            # A cone found alive was uncovered at its last visit, a diagonal
            # back, so only the lengths moved since can cover it now.
            v = highs[i]
            j = last[i]
            if j < 0 or v >> (i - j) > highs[j]:
                for j in moved if alive_in[i] >= 0 else range(i):
                    if lows[j] <= v >> (i - j) <= highs[j]:
                        last[i] = j
                        break
                else:
                    while interval < len(dead_changes) and dead_changes[interval] <= s:
                        interval += 1
                    if alive_in[i] == interval or tree.alive(sigmas[i], s):
                        alive_in[i] = interval
                        continue
                    j = -1
            # n >= n0 >= 2 (2^-n0 <= 1/4 is enforced above): no tracked string
            # is empty, so its int(sigma, 2) at init cannot raise, and
            # v + 1 == 2**n means sigma was all ones.
            v += 1
            if v >> n:
                raise SearchExhaustedError(
                    f"right neighbour exhausted at length {n} "
                    "(tree measure precondition violated)")
            old, new = sigmas[i], format(v, specs[i])
            cones.append([s, new])
            # The prefix of the new cone of length n0 + j is in that length's
            # interval, hence a cone added before it, whenever it is at most
            # the interval's top.
            inside.append(j >= 0 and v >> (i - j) <= highs[j])
            sigmas[i], highs[i], alive_in[i] = new, v, -1
            moved.append(i)
            events.append(_replace_line(s, n, old, new,
                                        "dead" if j < 0 else "covered"))
        if w <= top and first + w <= big_s:  # t == 0: the first visit of length w
            s, n = first + w, n0 + w
            # The new cone: the leftmost length-n leaf past the shorter intervals.
            v = 0
            for lo, hi in sorted([(lows[j] << w - j, highs[j] + 1 << w - j)
                                  for j in range(w)]):
                if lo > v:
                    break
                v = max(v, hi)
            if v >> n:
                raise SearchExhaustedError(f"no uncovered string of length {n}")
            sigma = format(v, specs[w])
            cones.append([s, sigma])
            inside.append(False)
            sigmas.append(sigma)
            lows.append(v)
            highs.append(v)
            events.append(_init_line(s, n, sigma))
        w += 1
        first += w

    trace.outputs = {"a": cones, "cones": cones, "n0": n0}
    return _finish_lemma63(tree, budgets, trace, cones, n0, inside)


def _finish_lemma63(tree: CoTree, budgets: Budgets, trace: ConstructionTrace,
                    cones: Sequence[Sequence], n0: int,
                    inside: Sequence[bool]) -> ConstructionTrace:
    """Add the witnesses of the ``[stage, cone]`` pairs ``cones``.  A true
    ``inside[k]`` says that ``cones[k]`` lies inside an earlier cone, whose
    live piece the running intersection already holds."""
    big_s = budgets.max_stage
    dead_changes = tree.change_stages()
    cone_stages = [st for st, _ in cones]
    loud = {0, *dead_changes, big_s}
    stages = sorted(cone_stages + [*loud])  # a merge; a loud stage may repeat
    # One pass over the stages: the union of the cones up to s, cones[:upto],
    # meets the live set in a running intersection, which grows by the new
    # cones' pieces and is cut to the live set when the dead view grows.  A
    # witness's data is built only when the intersection or the tree moved;
    # the witnesses that share it are one run.  The stages ascend, so upto
    # and the count of dead changes up to s only move forward.
    witnesses = trace.witnesses
    n_cones, n_dead, n_stages = len(cone_stages), len(dead_changes), len(stages)
    inter, data, run = Clopen(), None, [-1]  # run: the stages of the last run
    upto = key = seen = i = 0
    interval = -1
    while i < n_stages:
        s = stages[i]
        i += 1
        if s == run[-1]:
            continue
        t = min(s, big_s)
        while upto < n_cones and cone_stages[upto] <= s:
            upto += 1
        while key < n_dead and dead_changes[key] <= t:
            key += 1
        if key != interval:
            interval = key
            live, measure = tree.live_clopen(t), tree.path_measure(t)
            half, tree_str = measure.half(), str(measure)
            inter, data = inter.intersect(live), None
        grown = inter
        for k in range(seen, upto):
            c = cones[k][1]
            # A cone inside an earlier cone, or inside the intersection, has
            # a live piece that is a subset too.
            if not inside[k] and not grown.covers(c):
                piece = Clopen([c]).intersect(live)
                if not piece.is_subset_of(grown):
                    grown = grown.union(piece)
        if grown is not inter:
            inter, data = grown, None
        if data is None:
            status = "pass" if inter.measure() <= half else "fail"
            data = {"intersection": str(inter.measure()), "tree": tree_str}
            run = []
            witnesses.append(("lemma63.half_measure.", run, status, data))
        run.append(s)
        # A stage that is not loud is the stage of the next cone.  The stages
        # next after s whose cone lies inside an earlier cone are quiet: the
        # intersection stays, so their witnesses join this run.
        j = i
        while j < n_stages and stages[j] not in loud and inside[upto]:
            j, upto = j + 1, upto + 1
        run += stages[i:j]
        seen, i = upto, j

    live, union = tree.live_clopen(big_s), Clopen()  # the first m cones' union
    for m in range(min(21, n_cones)):
        trace.witness(f"lemma63.noncover.{m}", any(
            (part := Clopen([cones[k][1]]).intersect(live)) and not part.is_subset_of(union)
            for k in range(m, n_cones)))
        union = union.union(Clopen([cones[m][1]]))
    trace.witness("lemma63.n0_bound",
                  Dyadic.exp2(-n0) <= tree.path_measure(big_s).half().half())
    return trace
