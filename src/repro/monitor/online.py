"""Online monitoring: consume an event stream segment-by-segment.

The offline :class:`~repro.monitor.smt_monitor.SmtMonitor` needs the whole
computation up front.  Deployed against live blockchains (the paper's
motivating setting), events arrive continuously; this wrapper buffers
them and lets the caller *advance* the monitor past a time boundary,
progressing all carried residual formulas over the newly closed segment.

Usage::

    monitor = OnlineMonitor(spec, epsilon=2)
    monitor.observe("apricot", local_time=3, props={"apr.escrow(alice)"})
    monitor.advance_to(10)            # everything before t=10 is final
    ...
    result = monitor.finish()         # close residuals -> verdict set
"""

from __future__ import annotations

from typing import Mapping

from repro.distributed.computation import DistributedComputation
from repro.distributed.segmentation import Segment
from repro.encoding.verdict_enumerator import DEFAULT_TRACE_BUDGET
# Unused here; bound so the per-layer tracer (perfbench/layertrace.py) finds it.
from repro.encoding.verdict_enumerator import enumerate_segment_outcomes  # noqa: F401
from repro.errors import MonitorError, PreemptedError
from repro.mtl.ast import Formula
from repro.monitor.smt_monitor import PipelineState, SmtMonitor
from repro.monitor.verdicts import MonitorResult
from repro.progression.budget import Budget
from repro.progression.progressor import close

#: Version tag carried by :meth:`OnlineMonitor.snapshot` payloads, so a
#: state produced by one revision is rejected (not misread) by another.
#: v2 added ``events_consumed`` (the durable-session replay audit).
SNAPSHOT_VERSION = 2


class OnlineMonitor:
    """Incremental monitor over a live, partially synchronous event feed.

    A streaming loop over :meth:`SmtMonitor.fold_segment`: each advance
    turns the buffered events below the boundary into one segment and
    folds it into the carried :class:`PipelineState`.
    """

    def __init__(
        self,
        formula: Formula,
        epsilon: int,
        max_traces_per_segment: int | None = DEFAULT_TRACE_BUDGET,
        backend: str = "dfs",
    ) -> None:
        self._formula = formula
        self._epsilon = epsilon
        self._max_traces = max_traces_per_segment
        self._backend = backend
        self._engine = SmtMonitor(
            formula,
            max_traces_per_segment=max_traces_per_segment,
            backend=backend,
            saturate=False,
        )
        self._buffer: list[tuple[str, int, frozenset[str], Mapping[str, float] | None]] = []
        self._state = self._engine.initial_state()
        self._frontier = 0  # everything strictly below is already consumed
        self._result = MonitorResult(formula)
        self._finished = False
        self._events_consumed = 0

    @property
    def formula(self) -> Formula:
        return self._formula

    # -- one-shot protocol adapter -------------------------------------------------

    def run(
        self, computation: DistributedComputation, budget: Budget | None = None
    ) -> MonitorResult:
        """Monitor a complete computation (the :class:`Monitor` protocol).

        Replays the computation's events through a *fresh* online monitor
        (this instance's buffered state is untouched, so ``run`` is
        repeatable like the offline monitors) and finishes it in one
        segment.  The computation's own epsilon wins over the
        constructor's.  Message edges are not representable in the online
        feed — dropping them would enlarge the admissible-trace set and
        return unsound verdicts, so such computations are rejected.
        """
        if computation.messages:
            raise MonitorError(
                "the online monitor cannot replay message edges; use the "
                "smt/fast/baseline engines for computations with messages"
            )
        replay = OnlineMonitor(
            self._formula,
            computation.epsilon,
            max_traces_per_segment=self._max_traces,
            backend=self._backend,
        )
        events = sorted(
            computation.events, key=lambda e: (e.local_time, e.process, e.seq)
        )
        for event in events:
            replay.observe(
                event.process, event.local_time, event.props, dict(event.deltas) or None
            )
        return replay.finish(budget=budget)

    # -- feeding -----------------------------------------------------------------

    def observe(
        self,
        process: str,
        local_time: int,
        props: object = (),
        deltas: Mapping[str, float] | None = None,
    ) -> None:
        """Buffer one event (local timestamp, propositions, numeric deltas)."""
        if self._finished:
            raise MonitorError("monitor already finished")
        if local_time < self._frontier:
            raise MonitorError(
                f"event at local time {local_time} arrived after the monitor "
                f"advanced past {self._frontier}"
            )
        if isinstance(props, str):
            props = (props,)
        self._buffer.append((process, local_time, frozenset(props), deltas))
        self._events_consumed += 1

    # -- advancing ----------------------------------------------------------------

    def advance_to(self, boundary: int, budget: Budget | None = None) -> frozenset[bool]:
        """Declare all times below ``boundary`` final and progress over them.

        Returns the set of verdicts already decided (may be empty while
        everything is still pending).

        Preemption has *abort* semantics: when ``budget`` trips mid-
        segment, the monitor's state — buffer included — is rolled back
        to exactly what it was before this call and
        :class:`PreemptedError` propagates.  Retrying the same
        ``advance_to`` (here, or on a restored snapshot) produces the
        verdicts the uninterrupted call would have.
        """
        if self._finished:
            raise MonitorError("monitor already finished")
        if boundary <= self._frontier:
            raise MonitorError(
                f"boundary must advance: frontier {self._frontier}, got {boundary}"
            )
        original_buffer = self._buffer
        ready = [e for e in original_buffer if e[1] < boundary]
        self._buffer = [e for e in original_buffer if e[1] >= boundary]
        if ready:
            try:
                self._process_segment(ready, boundary, budget)
            except PreemptedError:
                self._buffer = original_buffer
                raise
        self._frontier = boundary
        return self._result.verdicts

    def _process_segment(
        self,
        ready: list[tuple[str, int, frozenset[str], Mapping[str, float] | None]],
        boundary: int,
        budget: Budget | None = None,
    ) -> None:
        computation = DistributedComputation(self._epsilon)
        ready.sort(key=lambda e: (e[1], e[0]))
        for process, local_time, props, deltas in ready:
            computation.add_event(process, local_time, props, deltas)
        segment = Segment(
            len(self._result.segment_reports),
            self._frontier,
            boundary,
            tuple(computation.events),
            (),
        )
        # The first segment is anchored at its first observation (no
        # lower clamp); later ones start at the previous boundary.
        clamp_lo = None if self._state.anchor is None else self._frontier
        self._state = self._engine.fold_segment(
            computation.happened_before(),
            segment,
            clamp_lo,
            boundary,
            self._state,
            self._result,
            self._epsilon,
            False,
            budget,
        )

    # -- migration -----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Serialize the full monitor state for migration to another host.

        The snapshot captures everything :meth:`restore` needs to resume
        the stream exactly where this instance stands: the frontier and
        segment counters, buffered (not yet consumed) events, carried
        residual formulas with their trace-class counts, the valuation /
        proposition context carried across segment boundaries, and the
        verdicts decided so far.  The returned dict references this
        monitor's live objects — it is meant to cross a process boundary
        (where serialization copies it); a caller restoring *in the same
        process* must stop using the origin instance afterwards.
        """
        state = self._state
        return {
            "version": SNAPSHOT_VERSION,
            "formula": self._formula,
            "epsilon": self._epsilon,
            "max_traces": self._max_traces,
            "backend": self._backend,
            "buffer": list(self._buffer),
            "carried": dict(state.carried),
            "anchor": state.anchor,
            "frontier": self._frontier,
            "first_segment_done": state.anchor is not None,
            "base_valuation": dict(state.base_valuation),
            "frontier_props": dict(state.frontier),
            "result": self._result,
            "finished": self._finished,
            "segment_counter": len(self._result.segment_reports),
            "events_consumed": self._events_consumed,
        }

    @classmethod
    def restore(cls, snapshot: dict) -> "OnlineMonitor":
        """Rehydrate a monitor from a :meth:`snapshot` payload.

        The restored instance continues the stream bit-identically: the
        same events observed and boundaries advanced on it produce the
        same verdict multiset the origin instance would have produced.
        """
        try:
            version = snapshot["version"]
        except (TypeError, KeyError):
            raise MonitorError("malformed online-monitor snapshot") from None
        if version != SNAPSHOT_VERSION:
            raise MonitorError(
                f"online-monitor snapshot version {version} is not the "
                f"supported version {SNAPSHOT_VERSION}"
            )
        monitor = cls(
            snapshot["formula"],
            snapshot["epsilon"],
            max_traces_per_segment=snapshot["max_traces"],
            backend=snapshot["backend"],
        )
        monitor._buffer = list(snapshot["buffer"])
        monitor._state = PipelineState(
            carried=dict(snapshot["carried"]),
            anchor=snapshot["anchor"],
            base_valuation=dict(snapshot["base_valuation"]),
            frontier=dict(snapshot["frontier_props"]),
        )
        monitor._frontier = snapshot["frontier"]
        monitor._result = snapshot["result"]
        monitor._finished = snapshot["finished"]
        monitor._events_consumed = snapshot["events_consumed"]
        return monitor

    # -- finishing -----------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of buffered, not yet consumed events."""
        return len(self._buffer)

    @property
    def undecided_residuals(self) -> int:
        """Distinct residual formulas still carried."""
        return len(self._state.carried)

    @property
    def events_consumed(self) -> int:
        """Total events accepted over the monitor's lifetime (survives
        snapshot/restore — the durable-session replay audit signal)."""
        return self._events_consumed

    @property
    def frontier(self) -> int:
        """Everything strictly below this time is already final."""
        return self._frontier

    @property
    def current_verdicts(self) -> frozenset[bool]:
        """Verdicts decided so far (grows as segments close; final after
        :meth:`finish`)."""
        return self._result.verdicts

    @property
    def finished(self) -> bool:
        """True once :meth:`finish` has sealed the stream."""
        return self._finished

    def finish(self, budget: Budget | None = None) -> MonitorResult:
        """Consume any remaining events, close residuals, return verdicts.

        Preemption mid-finish (``budget`` tripping during the final
        segment) leaves the stream open and unchanged, like
        :meth:`advance_to`.
        """
        if self._finished:
            return self._result
        if self._buffer:
            last_time = max(e[1] for e in self._buffer)
            epsilon_pad = self._epsilon  # allow skew-shifted timestamps
            self.advance_to(last_time + epsilon_pad, budget=budget)
        for residual, count in self._state.carried.items():
            self._result.record(close(residual), count)
        self._state.carried = {}
        self._finished = True
        return self._result
