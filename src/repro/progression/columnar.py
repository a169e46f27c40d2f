"""Columnar progression: the flat-array residual kernel (hot path).

The verdict enumerator's inner loop progresses every carried residual
over every enumerated segment trace.  The object-path
:class:`~repro.progression.progressor.TraceProgressor` walks formula
trees recursively, memoizing per ``(intern id, position)`` — correct,
but each memo hit is still a dict probe on boxed objects and each node
visit a chain of ``isinstance`` checks.

:class:`ColumnarSegmentProgressor` replaces that walk with a batch pass
over the intern arena (:data:`repro.mtl.ast.ARENA`):

* the carried residual set is an ``(arena id, count)`` column;
* per distinct anchor shift ``d``, the kernel re-anchors the roots at
  the id level and compiles a *plan*: the ids reachable from the shifted
  roots, listed ascending — which **is** a topological order, because
  children are always interned before their parents — with per-node
  "programs" (kind code, child positions in the plan, encoded interval
  bounds) precomputed once;
* per trace, one flat memo ``res[local_index * n + position]`` of
  result ids replaces the per-formula memo dict: every node is visited
  exactly once per position, in one loop, with int-indexed reads —
  residuals sharing subformulas automatically share the work;
* interval windows resolve to contiguous position ranges by binary
  search over the (non-decreasing) timestamp tuple, computed once per
  distinct interval per trace;
* new residuals are built through the id-level smart constructors
  (:func:`~repro.mtl.ast.id_land` and friends), which mirror the object
  constructors' simplifications exactly — so the two paths produce
  bit-identical residual structures (the differential suite asserts
  this against the object walk,
  :class:`~repro.progression.progressor.ObjectSegmentProgressor`).

No :class:`~repro.mtl.ast.Formula` objects are touched anywhere in the
loop; :func:`~repro.mtl.ast.formula_of` materializes results only at
API boundaries (segment reports, snapshots, shard tasks).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import OrderedDict

from repro.errors import MonitorError
from repro.mtl.ast import (
    ARENA,
    FALSE_ID,
    IV_INF,
    KIND_ALWAYS,
    KIND_AND,
    KIND_ATOM,
    KIND_EVENTUALLY,
    KIND_FALSE,
    KIND_NOT,
    KIND_OR,
    KIND_PRED,
    KIND_TRUE,
    KIND_UNTIL,
    TRUE_ID,
    formula_of,
    id_always,
    id_eventually,
    id_land,
    id_lnot,
    id_lor,
    id_until,
    intern_formula,
)
from repro.mtl.trace import TimedTrace

__all__ = [
    "ColumnarSegmentProgressor",
    "pack_carried_column",
    "unpack_carried_column",
    "plan_cache_stats",
    "clear_plan_cache",
]


# -- the shared plan cache ----------------------------------------------------------
#
# Plans depend only on the shifted root ids and the (append-only) arena, so
# they are valid process-wide, not just for the one progressor instance that
# compiled them.  Successive ``enumerate_segment_outcomes`` calls on the same
# stream build a fresh progressor per segment but carry structurally
# recurring residual sets — keying by ``(root ids, shift)`` lets segment k+1
# reuse segment k's compilations instead of recompiling identical plans.

_PLAN_CACHE: "OrderedDict[tuple, tuple[list[tuple], list[int]]]" = OrderedDict()
_PLAN_CACHE_LIMIT = 256
_PLAN_LOCK = threading.Lock()
_PLAN_STATS = {"hits": 0, "misses": 0}


def _shared_plan(roots_key: tuple[int, ...], shift: int, compile_fn):
    key = (roots_key, shift)
    with _PLAN_LOCK:
        plan = _PLAN_CACHE.get(key)
        if plan is not None:
            _PLAN_CACHE.move_to_end(key)
            _PLAN_STATS["hits"] += 1
            return plan
        _PLAN_STATS["misses"] += 1
    # Compile outside the lock: racing threads compile identical plans and
    # the last write wins — cheaper than holding the lock through _compile.
    plan = compile_fn(shift)
    with _PLAN_LOCK:
        _PLAN_CACHE[key] = plan
        if len(_PLAN_CACHE) > _PLAN_CACHE_LIMIT:
            _PLAN_CACHE.popitem(last=False)
    return plan


def plan_cache_stats() -> dict[str, int]:
    """Hit/miss/size counters of the process-wide plan cache."""
    with _PLAN_LOCK:
        return {
            "hits": _PLAN_STATS["hits"],
            "misses": _PLAN_STATS["misses"],
            "size": len(_PLAN_CACHE),
        }


def clear_plan_cache() -> None:
    """Drop every cached plan and reset the counters (tests)."""
    with _PLAN_LOCK:
        _PLAN_CACHE.clear()
        _PLAN_STATS["hits"] = 0
        _PLAN_STATS["misses"] = 0


class ColumnarSegmentProgressor:
    """Batch-progress one carried residual column over segment traces.

    Built once per segment from the merged ``(root id, count)`` pairs;
    reused for every trace the segment enumerates.  Anchor-shift results
    and compiled plans are memoized per distinct shift ``d`` (traces of
    a segment share a handful of start times).
    """

    __slots__ = ("_pairs", "_roots_key", "_shift_memo", "_plans")

    def __init__(self, pairs: list[tuple[int, int]]) -> None:
        self._pairs = pairs
        self._roots_key = tuple(fid for fid, _ in pairs)
        self._shift_memo: dict[tuple[int, int], int] = {}
        #: shift -> (programs, root plan positions) — a per-instance view
        #: of the process-wide :data:`_PLAN_CACHE` (no lock per trace).
        self._plans: dict[int, tuple[list[tuple], list[int]]] = {}

    # -- anchor shift (id level) ------------------------------------------------

    def shift_root(self, fid: int, d: int) -> int:
        """Re-anchor residual ``fid`` forward by ``d`` time units.

        The id-level mirror of
        :func:`~repro.progression.progressor.anchor_shift`: outermost
        temporal windows shift down by ``d`` (clamped — an elapsed F/U
        window folds to false, an elapsed G window to true), nested
        windows are untouched.
        """
        if d < 0:
            raise MonitorError(f"cannot anchor-shift backwards (d={d})")
        if d == 0:
            return fid
        return self._shift(fid, d)

    def _shift(self, fid: int, d: int) -> int:
        key = (fid, d)
        result = self._shift_memo.get(key)
        if result is not None:
            return result
        kind = ARENA.kinds[fid]
        if kind == KIND_TRUE or kind == KIND_FALSE:
            result = fid
        elif kind == KIND_NOT:
            result = id_lnot(self._shift(ARENA.child_ids[ARENA.child_off[fid]], d))
        elif kind == KIND_AND:
            result = id_land([self._shift(c, d) for c in ARENA.children(fid)])
        elif kind == KIND_OR:
            result = id_lor([self._shift(c, d) for c in ARENA.children(fid)])
        elif kind == KIND_ALWAYS or kind == KIND_EVENTUALLY or kind == KIND_UNTIL:
            lo = ARENA.iv_lo[fid] - d
            if lo < 0:
                lo = 0
            hi = ARENA.iv_hi[fid]
            if hi != IV_INF:
                hi -= d
                if hi < 0:
                    hi = 0
            off = ARENA.child_off[fid]
            if kind == KIND_ALWAYS:
                result = id_always(ARENA.child_ids[off], lo, hi)
            elif kind == KIND_EVENTUALLY:
                result = id_eventually(ARENA.child_ids[off], lo, hi)
            else:
                result = id_until(
                    ARENA.child_ids[off], ARENA.child_ids[off + 1], lo, hi
                )
        else:  # atom / predicate rows never survive progression
            raise MonitorError(
                f"residual formula contains a bare atom {formula_of(fid)!s}; "
                "atoms are always resolved during progression"
            )
        self._shift_memo[key] = result
        return result

    # -- plan compilation -------------------------------------------------------

    def _compile(self, shift: int) -> tuple[list[tuple], list[int]]:
        """Compile the per-shift plan: shifted roots, their reachable
        closure in ascending-id (= topological) order, and one program
        tuple per node with child positions pre-resolved.

        Program layout: ``(kind, payload, extra)`` where ``payload`` is
        the atom name / predicate / child plan position(s) and ``extra``
        carries ``(operand id(s), iv_lo, iv_hi)`` for temporal kinds
        (the *unprogressed* operand ids feed residual construction).
        """
        roots = [self.shift_root(fid, shift) for fid, _ in self._pairs]
        reachable: set[int] = set()
        stack = list(roots)
        while stack:
            fid = stack.pop()
            if fid in reachable:
                continue
            reachable.add(fid)
            stack.extend(ARENA.children(fid))
        universe = sorted(reachable)
        local = {fid: idx for idx, fid in enumerate(universe)}
        programs: list[tuple] = []
        for fid in universe:
            kind = ARENA.kinds[fid]
            if kind == KIND_TRUE or kind == KIND_FALSE:
                programs.append((kind, fid, None))
            elif kind == KIND_ATOM:
                programs.append((kind, ARENA.names[fid], None))
            elif kind == KIND_PRED:
                programs.append((kind, formula_of(fid).predicate, None))
            elif kind == KIND_NOT:
                programs.append(
                    (kind, local[ARENA.child_ids[ARENA.child_off[fid]]], None)
                )
            elif kind == KIND_AND or kind == KIND_OR:
                programs.append(
                    (kind, tuple(local[c] for c in ARENA.children(fid)), None)
                )
            elif kind == KIND_ALWAYS or kind == KIND_EVENTUALLY:
                operand = ARENA.child_ids[ARENA.child_off[fid]]
                programs.append(
                    (kind, local[operand], (operand, ARENA.iv_lo[fid], ARENA.iv_hi[fid]))
                )
            else:  # KIND_UNTIL
                off = ARENA.child_off[fid]
                left = ARENA.child_ids[off]
                right = ARENA.child_ids[off + 1]
                programs.append(
                    (
                        kind,
                        (local[left], local[right]),
                        (left, right, ARENA.iv_lo[fid], ARENA.iv_hi[fid]),
                    )
                )
        return programs, [local[r] for r in roots]

    # -- the batch pass ---------------------------------------------------------

    def progress_trace(
        self, trace: TimedTrace, shift: int, boundary: int, budget=None
    ) -> list[tuple[int, int]]:
        """Progress every carried residual over ``trace`` in one pass.

        Returns ``(residual id, count)`` pairs aligned with the carried
        column (one entry per root, counts passed through).  ``budget``
        (a :class:`~repro.progression.budget.Budget`) is stepped once per
        program row so a cancel lands within one checkpoint interval.
        """
        plan = self._plans.get(shift)
        if plan is None:
            plan = _shared_plan(self._roots_key, shift, self._compile)
            self._plans[shift] = plan
        programs, root_positions = plan
        if budget is not None:
            budget.step(len(programs))
        times = trace.times
        n = len(times)
        res = [0] * (len(programs) * n)
        positions = range(n)
        windows: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
        props_by_pos: list[frozenset[str]] | None = None
        valuation_by_pos = None

        def window(lo_bound: int, hi_bound: int) -> tuple[list[int], list[int]]:
            """Per-position ``[wlo, whi)`` position ranges for one interval.

            Offsets ``tau_j - tau_i in [lo, hi)`` form a contiguous block
            because timestamps are non-decreasing; one bisect pair per
            position, shared by every node carrying this interval.
            """
            cached = windows.get((lo_bound, hi_bound))
            if cached is not None:
                return cached
            wlo = [0] * n
            whi = [0] * n
            for i in positions:
                base_time = times[i]
                low = bisect_left(times, base_time + lo_bound, i)
                wlo[i] = low
                whi[i] = (
                    n
                    if hi_bound == IV_INF
                    else bisect_left(times, base_time + hi_bound, low)
                )
            windows[(lo_bound, hi_bound)] = (wlo, whi)
            return wlo, whi

        for idx, (kind, payload, extra) in enumerate(programs):
            base = idx * n
            if kind == KIND_ATOM:
                if props_by_pos is None:
                    props_by_pos = [trace.state(i).props for i in positions]
                for i in positions:
                    res[base + i] = TRUE_ID if payload in props_by_pos[i] else FALSE_ID
            elif kind == KIND_NOT:
                cbase = payload * n
                for i in positions:
                    res[base + i] = id_lnot(res[cbase + i])
            elif kind == KIND_AND:
                cbases = [c * n for c in payload]
                for i in positions:
                    res[base + i] = id_land([res[cb + i] for cb in cbases])
            elif kind == KIND_OR:
                cbases = [c * n for c in payload]
                for i in positions:
                    res[base + i] = id_lor([res[cb + i] for cb in cbases])
            elif kind == KIND_ALWAYS or kind == KIND_EVENTUALLY:
                cbase = payload * n
                operand, iv_lo, iv_hi = extra
                wlo, whi = window(iv_lo, iv_hi)
                for i in positions:
                    parts = res[cbase + wlo[i] : cbase + whi[i]]
                    remaining = boundary - times[i]
                    if iv_hi == IV_INF or iv_hi > remaining:
                        s_lo = iv_lo - remaining
                        if s_lo < 0:
                            s_lo = 0
                        s_hi = IV_INF if iv_hi == IV_INF else iv_hi - remaining
                        if kind == KIND_ALWAYS:
                            parts.append(id_always(operand, s_lo, s_hi))
                        else:
                            parts.append(id_eventually(operand, s_lo, s_hi))
                    res[base + i] = (
                        id_land(parts) if kind == KIND_ALWAYS else id_lor(parts)
                    )
            elif kind == KIND_UNTIL:
                lpos, rpos = payload
                lbase = lpos * n
                rbase = rpos * n
                left, right, iv_lo, iv_hi = extra
                wlo, whi = window(iv_lo, iv_hi)
                for i in positions:
                    remaining = boundary - times[i]
                    disjuncts: list[int] = []
                    left_so_far: list[int] = []
                    lo_w = wlo[i]
                    hi_w = whi[i]
                    for j in range(i, n):
                        if lo_w <= j < hi_w:
                            disjuncts.append(
                                id_land(left_so_far + [res[rbase + j]])
                            )
                        left_so_far.append(res[lbase + j])
                    if iv_hi == IV_INF or iv_hi > remaining:
                        s_lo = iv_lo - remaining
                        if s_lo < 0:
                            s_lo = 0
                        s_hi = IV_INF if iv_hi == IV_INF else iv_hi - remaining
                        disjuncts.append(
                            id_land(
                                left_so_far + [id_until(left, right, s_lo, s_hi)]
                            )
                        )
                    res[base + i] = id_lor(disjuncts)
            elif kind == KIND_PRED:
                if valuation_by_pos is None:
                    valuation_by_pos = [trace.state(i).valuation for i in positions]
                for i in positions:
                    res[base + i] = (
                        TRUE_ID if payload(valuation_by_pos[i]) else FALSE_ID
                    )
            else:  # constants: payload is the id itself
                res[base : base + n] = [payload] * n
        return [
            (res[pos * n], count)
            for pos, (_, count) in zip(root_positions, self._pairs)
        ]


# -- carried-column wire form -------------------------------------------------------
#
# Arena ids are process-local, so a carried ``(id, count)`` column cannot
# cross the wire as ids.  The packed form ships the *structure* instead:
# the reachable closure of the roots as plain rows in ascending-id (=
# topological) order, each row referring to its children by local
# position.  The receiver replays the rows through ``ARENA.row_id`` —
# signature-level interning, no Formula objects materialized on either
# side.  Predicate atoms carry arbitrary callables that only pickle can
# move, so any closure containing one falls back to an object payload.

_COLUMN_ROWS = "rows"
_COLUMN_OBJECTS = "objects"


def pack_carried_column(pairs: list[tuple[int, int]]):
    """Pack a carried ``(arena id, count)`` column for the wire.

    Returns ``("rows", row_tuple, ((root_position, count), ...))`` in the
    object-free fast shape, or ``("objects", [(Formula, count), ...])``
    when the closure contains a predicate atom (pickle fallback).
    """
    roots = [fid for fid, _ in pairs]
    reachable: set[int] = set()
    stack = list(roots)
    while stack:
        fid = stack.pop()
        if fid in reachable:
            continue
        reachable.add(fid)
        stack.extend(ARENA.children(fid))
    if any(ARENA.kinds[fid] == KIND_PRED for fid in reachable):
        return (
            _COLUMN_OBJECTS,
            [(formula_of(fid), count) for fid, count in pairs],
        )
    universe = sorted(reachable)
    local = {fid: idx for idx, fid in enumerate(universe)}
    rows = tuple(
        (
            ARENA.kinds[fid],
            ARENA.names[fid],
            ARENA.iv_lo[fid],
            ARENA.iv_hi[fid],
            tuple(local[c] for c in ARENA.children(fid)),
        )
        for fid in universe
    )
    return (
        _COLUMN_ROWS,
        rows,
        tuple((local[fid], count) for fid, count in pairs),
    )


def unpack_carried_column(payload) -> list[tuple[int, int]]:
    """Re-intern a packed carried column into local ``(id, count)`` pairs.

    Rows replay in ascending order, so every child is interned before its
    parent — exactly the invariant ``ARENA.row_id`` signature keys need.
    """
    if payload[0] == _COLUMN_OBJECTS:
        return [
            (intern_formula(formula)._intern_id, count)
            for formula, count in payload[1]
        ]
    if payload[0] != _COLUMN_ROWS:
        raise MonitorError(f"unknown carried-column payload {payload[0]!r}")
    _, rows, root_pairs = payload
    ids: list[int] = []
    for kind, name, iv_lo, iv_hi, child_locals in rows:
        children = tuple(ids[c] for c in child_locals)
        if kind == KIND_TRUE:
            ids.append(TRUE_ID)
            continue
        if kind == KIND_FALSE:
            ids.append(FALSE_ID)
            continue
        if kind == KIND_ATOM:
            key: tuple = (KIND_ATOM, name)
        elif kind == KIND_NOT:
            key = (KIND_NOT, children[0])
        elif kind == KIND_AND or kind == KIND_OR:
            key = (kind,) + children
        elif kind == KIND_UNTIL:
            key = (KIND_UNTIL, children[0], children[1], iv_lo, iv_hi)
        elif kind == KIND_ALWAYS or kind == KIND_EVENTUALLY:
            key = (kind, children[0], iv_lo, iv_hi)
        else:
            raise MonitorError(f"cannot unpack arena row of kind {kind}")
        ids.append(ARENA.row_id(key, kind, children, iv_lo, iv_hi, name))
    return [(ids[pos], count) for pos, count in root_pairs]
