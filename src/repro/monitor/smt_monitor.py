"""The segmented, solver-backed central monitor (the paper's algorithm).

Pipeline per Section V: chop the computation into ``g`` segments; for each
segment enumerate the admissible traces (solver models of the cut
encoding), progress every carried residual formula over every trace, and
deduplicate the outcomes; after the last segment, close residuals to
final verdicts.

Exactness: with ``g = 1`` the monitor computes exactly the paper's verdict
set (validated against the explicit-enumeration baseline in tests).  With
``g > 1`` timestamps are clamped to segment windows so per-segment traces
concatenate monotonically — the trade-off Section V-C motivates
(documented in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.distributed.computation import DistributedComputation
from repro.distributed.hb import HappenedBefore, HappenedBeforeView
from repro.distributed.segmentation import Segment, segment_computation
from repro.encoding.trace_extractor import segment_carry
from repro.encoding.verdict_enumerator import (
    DEFAULT_TRACE_BUDGET,
    enumerate_segment_outcomes,
    partitioned_segment_outcomes,
)
from repro.errors import MonitorError, PreemptedError
from repro.mtl.ast import FALSE_ID, TRUE_ID, Formula, formula_of
from repro.monitor.verdicts import MonitorResult, SegmentReport
from repro.progression.budget import Budget
from repro.progression.progressor import close


@dataclass
class PipelineState:
    """Everything the segment pipeline carries from one segment to the next.

    The per-segment loop is a fold over this state: carried residual
    formulas (with trace-class counts), the time anchor the residuals are
    anchored at, and the accumulated valuation/frontier context of the
    already-consumed prefix.  Exposing it lets the parallel orchestrator
    pause the pipeline at a segment boundary, shard the carried residuals
    across workers, and resume each shard independently.
    """

    carried: dict[Formula, int]
    anchor: int | None = None
    base_valuation: dict[str, float] = field(default_factory=dict)
    frontier: dict[str, frozenset[str]] = field(default_factory=dict)


class SmtMonitor:
    """Central monitor for MTL over partially synchronous computations.

    Parameters
    ----------
    formula:
        The MTL specification.
    segments:
        The paper's ``g`` — how many windows to chop the computation into.
    max_traces_per_segment / max_distinct_per_segment:
        Enumeration budgets; when either triggers, the result is flagged
        non-exhaustive.  ``max_traces_per_segment`` defaults to
        :data:`~repro.encoding.verdict_enumerator.DEFAULT_TRACE_BUDGET`
        (admissible-trace counts explode combinatorially, so an
        unbounded default can hang forever); pass ``None`` explicitly
        for unbounded enumeration.  ``max_distinct_per_segment``
        reproduces the paper's "number of truth values per segment"
        knob (Fig 5e).
    backend:
        ``"dfs"`` (default fast path) or ``"csp"`` (the paper-literal cut
        encoding solved by the constraint engine).
    saturate:
        When True (default), the last segment's enumeration stops as soon
        as both verdicts have been witnessed — the verdict *set* is then
        provably complete ({True, False} is maximal) but the per-verdict
        trace counts are partial.  Set False for count-exact runs (used
        by the baseline-equivalence tests).
    cache_traces:
        Share segment-trace enumeration through the process-local
        :mod:`~repro.encoding.trace_cache`.  Enabled by segment-parallel
        shard workers (shards of one computation enumerate identical
        segment traces); semantics are unchanged, only repeated
        enumeration work is skipped.
    """

    def __init__(
        self,
        formula: Formula,
        segments: int = 1,
        max_traces_per_segment: int | None = DEFAULT_TRACE_BUDGET,
        max_distinct_per_segment: int | None = None,
        backend: str = "dfs",
        saturate: bool = True,
        timestamp_samples: int | None = None,
        cache_traces: bool = False,
    ) -> None:
        if segments < 1:
            raise MonitorError(f"segments must be >= 1, got {segments}")
        self._formula = formula
        self._segments = segments
        self._max_traces = max_traces_per_segment
        self._max_distinct = max_distinct_per_segment
        self._backend = backend
        self._saturate = saturate
        self._timestamp_samples = timestamp_samples
        self._cache_traces = cache_traces
        # Client-side intra-segment fan-out, set by attach_partitioner().
        # Never pickled: shard tasks rebuild SmtMonitor from kwargs.
        self._partition_submit = None
        self._partition_parts = 0

    @property
    def formula(self) -> Formula:
        return self._formula

    def attach_partitioner(self, submit, parts: int) -> None:
        """Fan each segment's root-frontier enumeration across a pool.

        ``submit`` takes a :class:`~repro.service.tasks.SegmentPartTask`
        and returns a future (``MonitorService.submit_segment_part``);
        ``parts`` caps the sub-tasks per segment.  Segments that need
        serial semantics (the saturating last segment, ``max_distinct``
        early-stop, non-DFS backends) fall back to the serial walk —
        verdict multisets stay bit-identical either way.
        """
        if parts < 2:
            raise MonitorError(f"parts must be >= 2, got {parts}")
        self._partition_submit = submit
        self._partition_parts = parts

    def detach_partitioner(self) -> None:
        """Return every segment to the serial enumeration path."""
        self._partition_submit = None
        self._partition_parts = 0

    def run(
        self, computation: DistributedComputation, budget: Budget | None = None
    ) -> MonitorResult:
        """Monitor a complete computation and return its verdict set."""
        if len(computation) == 0:
            # No observations at all: close the specification directly
            # (strong F/U obligations are violated, weak G satisfied).
            result = MonitorResult(self._formula)
            result.record(close(self._formula))
            return result
        return self.run_from(computation, self.initial_state(), start=0, budget=budget)

    # -- resumable pipeline ------------------------------------------------------

    def initial_state(self) -> PipelineState:
        """The pipeline state before any segment has been consumed."""
        return PipelineState(carried={self._formula: 1})

    def segments_of(self, computation: DistributedComputation) -> list[Segment]:
        """The non-empty segments the pipeline will process, in order."""
        return [
            s for s in segment_computation(computation, self._segments) if not s.is_empty()
        ]

    def step(
        self,
        hb: HappenedBefore,
        segments: list[Segment],
        order: int,
        state: PipelineState,
        result: MonitorResult,
        epsilon: int,
        budget: Budget | None = None,
    ) -> PipelineState:
        """Consume ``segments[order]`` of a complete computation: pick the
        segment's happened-before view, its first/last clamps and whether
        the final segment saturates, then :meth:`fold_segment` it."""
        segment = segments[order]
        is_last = order == len(segments) - 1
        index_map = hb.index_map()
        view = hb.restricted_to([index_map[e.key] for e in segment.events])
        return self.fold_segment(
            view,
            segment,
            None if order == 0 else segment.lo,
            None if is_last else segment.hi,
            state,
            result,
            epsilon,
            self._saturate and is_last,
            budget,
        )

    def fold_segment(
        self,
        view: HappenedBefore | HappenedBeforeView,
        segment: Segment,
        clamp_lo: int | None,
        clamp_hi: int | None,
        state: PipelineState,
        result: MonitorResult,
        epsilon: int,
        saturate_final: bool,
        budget: Budget | None = None,
    ) -> PipelineState:
        """The segment fold: enumerate ``segment``'s traces under ``view``
        (its happened-before topology), progress every carried residual,
        record decided verdicts and the segment report into ``result``,
        and return the state carried into the next segment, anchored at
        ``segment.hi``.  :meth:`step` drives it offline,
        :class:`~repro.monitor.online.OnlineMonitor` once per advance.

        Preemption (``budget`` tripping) raises :class:`PreemptedError`
        before anything is recorded: ``result`` and ``state`` are left
        exactly as they were, so a retry is bit-identical."""
        shared = dict(
            boundary=segment.hi,
            clamp_lo=clamp_lo,
            clamp_hi=clamp_hi,
            max_traces=self._max_traces,
            backend=self._backend,
            base_valuation=state.base_valuation,
            frontier_props=state.frontier,
            timestamp_samples=self._timestamp_samples,
            budget=budget,
        )
        outcome = None
        # The saturation and max_distinct early-stops depend on the serial
        # enumeration order, so those segments keep the serial walk.
        if (
            self._partition_submit is not None
            and not saturate_final
            and self._max_distinct is None
        ):
            outcome = partitioned_segment_outcomes(
                self._partition_submit,
                self._partition_parts,
                view,
                epsilon,
                state.carried,
                state.anchor,
                **shared,
            )
        if outcome is None:
            cache_key = None
            if self._cache_traces:
                cache_key = self._segment_cache_key(
                    view, segment, state, epsilon, clamp_lo, clamp_hi
                )
            outcome = enumerate_segment_outcomes(
                view,
                epsilon,
                state.carried,
                state.anchor,
                max_distinct=self._max_distinct,
                saturate_final=saturate_final,
                cache_key=cache_key,
                **shared,
            )
        if outcome.preempted:
            raise PreemptedError(
                f"segment {segment.index} preempted after "
                f"{outcome.traces_enumerated} traces"
            )
        if outcome.truncated or self._timestamp_samples is not None:
            result.exhaustive = False
            result.verdict_set_complete = False
        if outcome.saturated:
            result.exhaustive = False  # counts partial, set complete
        result.segment_reports.append(
            SegmentReport(
                index=segment.index,
                events=len(segment.events),
                traces_enumerated=outcome.traces_enumerated,
                distinct_residuals=outcome.distinct,
                truncated=outcome.truncated,
                saturated=outcome.saturated,
            )
        )

        # Classify on the outcome's id column: the constants' arena ids
        # are fixed sentinels, and ids are canonical per structure, so
        # undecided residuals materialize straight into the carried dict
        # (no merging needed) — the pickled shard and snapshot contract.
        carried: dict[Formula, int] = {}
        for fid, count in outcome.id_counts().items():
            if fid == TRUE_ID:
                result.record(True, count)
            elif fid == FALSE_ID:
                result.record(False, count)
            else:
                carried[formula_of(fid)] = count
        base_valuation, frontier = segment_carry(
            segment.events, state.base_valuation, state.frontier
        )
        return PipelineState(
            carried=carried,
            anchor=segment.hi,
            base_valuation=base_valuation,
            frontier=frontier,
        )

    def _segment_cache_key(
        self,
        view: HappenedBefore | HappenedBeforeView,
        segment: Segment,
        state: PipelineState,
        epsilon: int,
        clamp_lo: int | None,
        clamp_hi: int | None,
    ):
        """Everything that shapes the segment's trace enumeration.

        Value-based (not identity-based) so shards that unpickled their
        own copy of the computation still share entries.  The view's
        predecessor masks capture the happened-before topology exactly as
        enumeration consumes it (process, epsilon, *and message* edges) —
        two segments with identical event fields but different message
        edges must not share traces.  The carried *residuals* are
        deliberately absent: they differ per shard and do not affect
        which traces the segment admits.
        """
        events_key = tuple(
            (e.process, e.seq, e.local_time, e.props, tuple(sorted(e.deltas.items())))
            for e in segment.events
        )
        topology_key = tuple(
            view.predecessors_mask(i) for i in range(len(segment.events))
        )
        return (
            events_key,
            topology_key,
            epsilon,
            clamp_lo,
            clamp_hi,
            self._backend,
            self._timestamp_samples,
            self._max_traces,
            tuple(sorted(state.base_valuation.items())),
            tuple(sorted(state.frontier.items())),
        )

    def run_from(
        self,
        computation: DistributedComputation,
        state: PipelineState,
        start: int = 0,
        budget: Budget | None = None,
    ) -> MonitorResult:
        """Run segments ``start..`` from a given carried state and close the
        leftover residuals.  ``run()`` is ``run_from(c, initial_state(), 0)``;
        parallel shard workers call it with ``start > 0`` and a slice of the
        carried residual formulas."""
        result = MonitorResult(self._formula)
        hb = computation.happened_before()
        segments = self.segments_of(computation)
        for order in range(start, len(segments)):
            if not state.carried:
                break
            state = self.step(
                hb, segments, order, state, result, computation.epsilon, budget=budget
            )
        for residual, count in state.carried.items():
            result.record(close(residual), count)
        return result


def monitor(
    formula: Formula,
    computation: DistributedComputation,
    segments: int = 1,
    **kwargs,
) -> MonitorResult:
    """One-shot convenience wrapper around :class:`SmtMonitor`."""
    return SmtMonitor(formula, segments=segments, **kwargs).run(computation)
