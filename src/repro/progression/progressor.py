"""Formula progression for MTL over finite trace segments (Section IV).

Given a finite observed segment ``(alpha, tau_bar)`` and a *boundary time*
``b`` (the time at which the next segment begins), :func:`progress` rewrites
a formula ``phi`` into a residual formula ``phi'`` over the remainder such
that the whole trace satisfies ``phi`` iff the remainder satisfies ``phi'``
(Definition 3).  Residual temporal intervals are *anchored at b*: when the
next segment's first observation arrives at time ``t0' >= b``, apply
:func:`anchor_shift` with ``d = t0' - b`` before progressing again.

Relationship to the paper's Algorithms 1-3
------------------------------------------

The paper expresses the observed-window part of each rule with nested
``G[0,c)`` sub-progressions.  We use the equivalent *position-wise*
expansion, which is semantically exact even when several observations share
a timestamp (the nested-G phrasing would conflate same-time positions):

* ``G_I phi``  ->  AND over observed positions j with offset in I of
  ``Pr(j, phi)``, plus residual ``G_{I-D} phi`` when I extends past the
  boundary (Algorithm 1).
* ``F_I phi``  ->  OR over observed positions j with offset in I of
  ``Pr(j, phi)``, plus residual ``F_{I-D} phi`` (Algorithm 2).
* ``phi1 U_I phi2``  ->  OR over observed witnesses j (offset in I) of
  ``AND_{k in [i,j)} Pr(k, phi1) AND Pr(j, phi2)``, plus — when I extends
  past the boundary — ``AND_{k in [i,n]} Pr(k, phi1) AND phi1 U_{I-D}
  phi2`` (Algorithm 3; the paper factors the pre-interval phi1 conjunct
  out, we keep it per-witness which folds to the same formula).

where ``D = b - tau_i`` is the remaining-window offset at position ``i``.

End of computation
------------------

When no further observations will arrive, :func:`close` collapses residual
obligations to verdicts using the finite-MTL strong/weak split
(Section II-B): pending F/U obligations are violations, pending G
obligations are satisfied.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.errors import MonitorError, TraceError
from repro.mtl.ast import (
    ARENA,
    FALSE,
    KIND_ALWAYS,
    KIND_AND,
    KIND_EVENTUALLY,
    KIND_FALSE,
    KIND_NOT,
    KIND_OR,
    KIND_TRUE,
    KIND_UNTIL,
    TRUE,
    Always,
    And,
    Atom,
    Eventually,
    FalseConst,
    Formula,
    Not,
    Or,
    TrueConst,
    Until,
    always,
    eventually,
    formula_of,
    intern_formula,
    land,
    lnot,
    lor,
    until,
)
from repro.mtl.interval import INF, Interval
from repro.mtl.trace import TimedTrace


def progress(trace: TimedTrace, formula: Formula, boundary: int) -> Formula:
    """Progress ``formula`` over the observed ``trace`` up to ``boundary``.

    ``boundary`` must be at least the trace's last timestamp; residual
    intervals come out anchored at ``boundary``.
    """
    if len(trace) == 0:
        raise TraceError("cannot progress over an empty trace; carry the formula instead")
    if boundary < trace.end_time:
        raise TraceError(
            f"boundary {boundary} lies before the last observation at {trace.end_time}"
        )
    return TraceProgressor(trace, boundary).progress(formula, 0)


class TraceProgressor:
    """Single-segment progression with ``(formula, position)`` memoization.

    Reusable across formulas for one ``(trace, boundary)`` pair — the
    verdict enumerator progresses every carried residual of a segment
    trace through one instance, so shared subformulas across residuals
    hit the same memo.  Formulas are interned on entry: the memo keys on
    ``(intern id, position)`` (two ints) instead of structurally hashing
    formula trees, which is what makes carried-residual-heavy workloads
    cheap (see DESIGN.md, "Hot path & performance").
    """

    def __init__(self, trace: TimedTrace, boundary: int, budget=None) -> None:
        self._trace = trace
        self._boundary = boundary
        self._budget = budget
        self._cache: dict[tuple[int, int], Formula] = {}
        self._offsets: dict[tuple[Interval, int], range] = {}

    def progress(self, formula: Formula, i: int) -> Formula:
        if self._budget is not None:
            self._budget.step()
        fid = formula._intern_id
        if fid is None:
            formula = intern_formula(formula)
            fid = formula._intern_id
        key = (fid, i)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        result = self._dispatch(formula, i)
        self._cache[key] = result
        return result

    def _dispatch(self, formula: Formula, i: int) -> Formula:
        trace = self._trace
        if isinstance(formula, TrueConst) or isinstance(formula, FalseConst):
            return formula
        if isinstance(formula, Atom):
            state = trace.state(i)
            return TRUE if formula.holds_in(state.props, state.valuation) else FALSE
        if isinstance(formula, Not):
            return lnot(self.progress(formula.operand, i))
        if isinstance(formula, And):
            return land(*(self.progress(op, i) for op in formula.operands))
        if isinstance(formula, Or):
            return lor(*(self.progress(op, i) for op in formula.operands))
        if isinstance(formula, Always):
            return self._progress_always(formula, i)
        if isinstance(formula, Eventually):
            return self._progress_eventually(formula, i)
        if isinstance(formula, Until):
            return self._progress_until(formula, i)
        raise TypeError(f"unknown formula node: {formula!r}")

    # -- temporal rules ------------------------------------------------------

    def _offsets_in_interval(self, i: int, interval: Interval) -> range:
        """Observed positions ``j >= i`` whose offset from position i is in I.

        Timestamps are non-decreasing, so the qualifying positions form a
        contiguous block found by binary search over the timestamp tuple
        (offset ``tau_j - tau_i in [start, end)`` iff ``tau_j`` lies in
        ``[tau_i + start, tau_i + end)``).  Memoized per ``(interval, i)``:
        distinct residuals overwhelmingly share windows.
        """
        key = (interval, i)
        cached = self._offsets.get(key)
        if cached is not None:
            return cached
        times = self._trace.times
        base = times[i]
        lo = bisect_left(times, base + interval.start, i)
        hi = len(times) if interval.end == INF else bisect_left(times, base + interval.end, lo)
        result = range(lo, hi)
        self._offsets[key] = result
        return result

    def _progress_always(self, formula: Always, i: int) -> Formula:
        trace = self._trace
        remaining = self._boundary - trace.time(i)
        conjuncts = [
            self.progress(formula.operand, j)
            for j in self._offsets_in_interval(i, formula.interval)
        ]
        if formula.interval.end > remaining:
            conjuncts.append(always(formula.operand, formula.interval.shift_down(remaining)))
        return land(*conjuncts) if conjuncts else TRUE

    def _progress_eventually(self, formula: Eventually, i: int) -> Formula:
        trace = self._trace
        remaining = self._boundary - trace.time(i)
        disjuncts = [
            self.progress(formula.operand, j)
            for j in self._offsets_in_interval(i, formula.interval)
        ]
        if formula.interval.end > remaining:
            disjuncts.append(eventually(formula.operand, formula.interval.shift_down(remaining)))
        return lor(*disjuncts) if disjuncts else FALSE

    def _progress_until(self, formula: Until, i: int) -> Formula:
        trace = self._trace
        remaining = self._boundary - trace.time(i)
        disjuncts: list[Formula] = []
        left_so_far: list[Formula] = []
        witnesses = self._offsets_in_interval(i, formula.interval)
        for j in range(i, len(trace)):
            if j in witnesses:
                disjuncts.append(land(*left_so_far, self.progress(formula.right, j)))
            left_so_far.append(self.progress(formula.left, j))
        if formula.interval.end > remaining:
            residual = until(formula.left, formula.right, formula.interval.shift_down(remaining))
            disjuncts.append(land(*left_so_far, residual))
        return lor(*disjuncts) if disjuncts else FALSE


class ObjectSegmentProgressor:
    """The object walk behind the columnar kernel's interface.

    Same constructor and ``progress_trace`` contract as
    :class:`~repro.progression.columnar.ColumnarSegmentProgressor`: one
    anchor-shift of the carried column per distinct shift, one
    :class:`TraceProgressor` per trace.  The differential suites and the
    hot-path benchmark swap it in for the kernel as the oracle; no
    runtime path selects it.
    """

    def __init__(self, pairs: list[tuple[int, int]]) -> None:
        self._pairs = pairs
        self._shifted: dict[int, list[tuple[Formula, int]]] = {}

    def progress_trace(
        self, trace: TimedTrace, shift: int, boundary: int, budget=None
    ) -> list[tuple[int, int]]:
        shifted = self._shifted.get(shift)
        if shifted is None:
            shifted = self._shifted[shift] = [
                (anchor_shift(formula_of(fid), shift), count) for fid, count in self._pairs
            ]
        progressor = TraceProgressor(trace, boundary, budget=budget)
        return [
            (progressor.progress(formula, 0)._intern_id, count)
            for formula, count in shifted
        ]


# ---------------------------------------------------------------------------
# Residual-formula plumbing used by the monitor.
# ---------------------------------------------------------------------------


def anchor_shift(formula: Formula, d: int) -> Formula:
    """Re-anchor a residual formula forward by ``d`` time units.

    Residuals produced by :func:`progress` have their *outermost* temporal
    intervals anchored at the segment boundary ``b``.  When the next
    observation actually arrives at ``t0' = b + d``, those windows have
    partially elapsed; this shifts them down by ``d`` (clamping at zero —
    an elapsed F/U window becomes ``false``, an elapsed G window ``true``).
    Intervals nested *inside* temporal operators are relative to their own
    evaluation position and are left untouched.
    """
    if d < 0:
        raise MonitorError(f"cannot anchor-shift backwards (d={d})")
    if d == 0:
        return formula
    return _anchor_shift(formula, d)


def _anchor_shift(formula: Formula, d: int) -> Formula:
    if isinstance(formula, (TrueConst, FalseConst)):
        return formula
    if isinstance(formula, Not):
        return lnot(_anchor_shift(formula.operand, d))
    if isinstance(formula, And):
        return land(*(_anchor_shift(op, d) for op in formula.operands))
    if isinstance(formula, Or):
        return lor(*(_anchor_shift(op, d) for op in formula.operands))
    if isinstance(formula, Always):
        return always(formula.operand, formula.interval.shift_down(d))
    if isinstance(formula, Eventually):
        return eventually(formula.operand, formula.interval.shift_down(d))
    if isinstance(formula, Until):
        return until(formula.left, formula.right, formula.interval.shift_down(d))
    if isinstance(formula, Atom):
        raise MonitorError(
            f"residual formula contains a bare atom {formula!s}; "
            "atoms are always resolved during progression"
        )
    raise TypeError(f"unknown formula node: {formula!r}")


def close(formula: Formula) -> bool:
    """Final verdict for a residual when no further observations exist.

    Finite-MTL strong/weak split: F/U obligations pending at the end of the
    trace are violated, G obligations are satisfied.
    """
    fid = formula._intern_id
    if fid is None:
        fid = intern_formula(formula)._intern_id
    return close_id(fid)


def close_id(fid: int) -> bool:
    """:func:`close` over an arena id — the columnar kernel's verdict pass.

    Memoized in the arena's ``closed`` column (close is purely structural,
    so a verdict computed once is valid for the process lifetime; rows are
    never reclaimed).
    """
    cached = ARENA.closed[fid]
    if cached:
        return cached == 2
    kind = ARENA.kinds[fid]
    if kind == KIND_TRUE:
        result = True
    elif kind == KIND_FALSE:
        result = False
    elif kind == KIND_NOT:
        result = not close_id(ARENA.child_ids[ARENA.child_off[fid]])
    elif kind == KIND_AND:
        result = all(close_id(c) for c in ARENA.children(fid))
    elif kind == KIND_OR:
        result = any(close_id(c) for c in ARENA.children(fid))
    elif kind == KIND_EVENTUALLY or kind == KIND_UNTIL:
        result = False
    elif kind == KIND_ALWAYS:
        result = True
    else:  # atom / predicate rows have no end-of-trace verdict
        raise MonitorError(
            f"residual formula contains a bare atom {formula_of(fid)!s}; "
            "atoms are always resolved during progression"
        )
    ARENA.closed[fid] = 2 if result else 1
    return result
