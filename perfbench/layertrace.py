"""Per-layer timing from outside the program: wrap each layer's public
functions, record spans, and turn them into self times and counts.

A span is one call into a layer.  A layer's self time is the duration of
its spans minus the part covered by the spans nested inside them, so the
engine layers add up: ``monitor.fold`` (SmtMonitor.run/step,
OnlineMonitor.advance_to/finish) contains ``encoding.merge``
(enumerate_segment_outcomes), which contains ``encoding.enumerate`` (each
``next()`` on the trace generator), which contains
``encoding.build_trace``; ``progression.progress`` (progress_trace) sits
inside ``encoding.merge``.

Wrappers replace the binding each caller resolves, not the defining
module's: ``verdict_enumerator`` imported ``enumerate_traces`` by name,
``enumerator`` imported ``build_trace``, both monitors imported
``enumerate_segment_outcomes``, and ``transport.local`` imported the
frame codec.  Span stacks are per thread: the transport's reader threads
decode responses while the driving thread waits.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

_now = time.perf_counter


class Tracer:
    """Spans and counters for one traced pass; install, run, uninstall, report."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        #: Summed duration of top-level spans on the driving thread: the
        #: part of the pass's wall time that some layer accounts for.
        self.main_spans_s = 0.0
        self._main_thread = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []
        self._raw_keys: set[int] = set()
        self._word_keys: set[int] = set()
        self._kernels: dict[int, tuple[int, object]] = {}
        self._cache_before: dict[str, dict] = {}

    # -- spans --------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> list:
        stack = self._stack()
        frame = [_now(), 0.0]
        stack.append(frame)
        return stack

    def _exit(self, stack: list, name: str) -> float:
        started, children = stack.pop()
        duration = _now() - started
        with self._lock:
            self.self_s[name] += duration - children
            self.total_s[name] += duration
            self.calls[name] += 1
            if stack:
                stack[-1][1] += duration
            elif threading.get_ident() == self._main_thread:
                self.main_spans_s += duration
        return duration

    def _count(self, key: str, n: int = 1) -> None:
        # Counters are bumped from the transport's reader threads too.
        with self._lock:
            self.counts[key] += n

    def _wrap(self, owner, attr: str, name: str | None, after=None) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span named
        ``name`` (none when ``name`` is None) and then calls
        ``after(args, kwargs, result)``."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if name is None:
                result = original(*args, **kwargs)
                after(args, kwargs, result)
                return result
            stack = tracer._enter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(stack, name)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        self._patch(owner, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every patched binding and close the cache counters."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        for key, stats in self._cache_stats().items():
            before = self._cache_before.get(key)
            if before is not None:
                self.counts[f"{key}.hits"] += stats["hits"] - before["hits"]
                self.counts[f"{key}.misses"] += stats["misses"] - before["misses"]
        self._cache_before = {}

    # -- engine layers (in-process computation) -----------------------------------

    def install_engine(self) -> None:
        from repro.distributed.computation import DistributedComputation
        from repro.encoding import enumerator, verdict_enumerator
        from repro.monitor import online, smt_monitor
        from repro.progression.columnar import ColumnarSegmentProgressor

        self._cache_before = self._cache_stats()
        self._wrap(DistributedComputation, "happened_before", "distributed.hb")
        self._wrap(enumerator, "build_trace", "encoding.build_trace")
        self._patch(
            verdict_enumerator,
            "enumerate_traces",
            self._traced_generator(verdict_enumerator.enumerate_traces),
        )

        def count_outcome(args, kwargs, outcome) -> None:
            self._count("encoding.truncated_segments", int(outcome.truncated))

        for module in (online, smt_monitor):
            self._wrap(
                module, "enumerate_segment_outcomes", "encoding.merge", count_outcome
            )
        for attr in ("run", "step"):
            self._wrap(smt_monitor.SmtMonitor, attr, "monitor.fold")
        for attr in ("advance_to", "finish"):
            self._wrap(online.OnlineMonitor, attr, "monitor.fold")
        self._patch(
            ColumnarSegmentProgressor,
            "progress_trace",
            self._traced_progress(ColumnarSegmentProgressor.progress_trace),
        )

    def _traced_generator(self, original):
        tracer = self

        def enumerate_traces(*args, **kwargs):
            source = original(*args, **kwargs)
            try:
                while True:
                    stack = tracer._enter()
                    try:
                        trace = next(source)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(stack, "encoding.enumerate")
                    tracer._count("encoding.traces")
                    yield trace
            finally:
                source.close()

        return enumerate_traces

    def _traced_progress(self, original):
        tracer = self

        def progress_trace(kernel, trace, shift, boundary, budget=None):
            stack = tracer._enter()
            try:
                pairs = original(kernel, trace, shift, boundary, budget=budget)
            finally:
                tracer._exit(stack, "progression.progress")
            # Outside the span: what a memo of progress_trace could hit.
            # "kernel" is the segment's carried column (one progressor
            # instance), held here so its id is never reused.
            serial = tracer._kernels.setdefault(id(kernel), (len(tracer._kernels), kernel))[0]
            word = tuple(state.props for state in trace.states)
            tracer._raw_keys.add(hash((serial, shift, boundary, word, trace.times)))
            tracer._word_keys.add(hash((serial, shift, boundary, word)))
            tracer._count("progression.pairs_out", len(pairs))
            return pairs

        return progress_trace

    @staticmethod
    def _cache_stats() -> dict[str, dict]:
        from repro.encoding.trace_cache import cache_stats
        from repro.progression.columnar import plan_cache_stats

        return {"trace_cache": cache_stats(), "plan_cache": plan_cache_stats()}

    # -- client-side service, transport and failure handling ----------------------

    def install_client(self) -> None:
        """Wrap the client half of the live path.  Call only once the pool
        is up: the local transport forks its workers, which would inherit
        wrappers whose numbers nobody reads."""
        from repro.retry import RetryPolicy
        from repro.service.service import MonitorService
        from repro.service.session import Session
        from repro.transport import local

        self._wrap(MonitorService, "open_session", "service.open")
        self._wrap(Session, "observe", "service.observe")
        self._wrap(Session, "advance_to", "service.advance")
        self._wrap(Session, "finish", "service.finish")

        def count_out(args, kwargs, frame) -> None:
            self._count("transport.frames")
            self._count("transport.bytes_out", len(frame))

        def count_in(args, kwargs, obj) -> None:
            self._count("transport.frames")
            self._count("transport.bytes_in", len(args[0]))

        self._wrap(local, "encode_frame", "transport.encode", count_out)
        self._wrap(local, "decode_frame", "transport.decode", count_in)

        def count_quarantine(args, kwargs, admitted) -> None:
            self._count("service.quarantined", int(bool(admitted)))

        self._wrap(MonitorService, "quarantine_endpoint", None, count_quarantine)

        run = RetryPolicy.run
        tracer = self

        def counted_run(policy, fn, *args, **kwargs):
            def attempt():
                tracer._count("retry.attempts")
                return fn()

            return run(policy, attempt, *args, **kwargs)

        self._patch(RetryPolicy, "run", counted_run)

        # Session round-trips pace their retries with RetryPolicy.delays()
        # in their own loop; each attempt that outlives the per-attempt
        # timeout goes to the cancellation fence, so the fence counts them.
        def count_timeout(args, kwargs, outcome) -> None:
            self._count("retry.timeouts")

        self._wrap(Session, "_fence_slow_call", None, count_timeout)

    # -- report -------------------------------------------------------------------

    def _ratio(self, key: str) -> float:
        hits = self.counts[f"{key}.hits"]
        lookups = hits + self.counts[f"{key}.misses"]
        return hits / lookups if lookups else 0.0

    def engine_layers(self, results) -> dict[str, float]:
        """Engine-layer metrics; ``results`` are the MonitorResults of the
        traced computation (segment reports give the fold's shape)."""
        calls = self.calls["progression.progress"]
        reports = [report for result in results for report in result.segment_reports]
        return {
            "distributed.hb_s": self.self_s["distributed.hb"],
            "distributed.hb_calls": self.calls["distributed.hb"],
            "encoding.traces": self.counts["encoding.traces"],
            "encoding.enumerate_s": self.self_s["encoding.enumerate"],
            "encoding.build_trace_s": self.self_s["encoding.build_trace"],
            "encoding.truncated_segments": self.counts["encoding.truncated_segments"],
            "encoding.trace_cache_hit_ratio": self._ratio("trace_cache"),
            "encoding.merge_s": self.self_s["encoding.merge"],
            "progression.progress_s": self.self_s["progression.progress"],
            "progression.calls": calls,
            "progression.pairs_out": self.counts["progression.pairs_out"],
            "progression.plan_cache_hit_ratio": self._ratio("plan_cache"),
            "progression.raw_repeat_share": 1 - len(self._raw_keys) / calls if calls else 0.0,
            "progression.word_repeat_share": 1 - len(self._word_keys) / calls if calls else 0.0,
            "monitor.fold_s": self.self_s["monitor.fold"],
            "monitor.segments": len(reports),
            "monitor.peak_carried": max((r.distinct_residuals for r in reports), default=0),
        }

    def client_layers(self) -> dict[str, float]:
        return {
            "service.open_s": self.total_s["service.open"],
            "service.observe_s": self.total_s["service.observe"],
            "service.advance_s": self.total_s["service.advance"],
            "service.finish_s": self.total_s["service.finish"],
            "transport.encode_s": self.self_s["transport.encode"],
            "transport.decode_s": self.self_s["transport.decode"],
            "transport.frames": self.counts["transport.frames"],
            "transport.bytes_out": self.counts["transport.bytes_out"],
            "transport.bytes_in": self.counts["transport.bytes_in"],
            "retry.attempts": self.counts["retry.attempts"],
            "retry.timeouts": self.counts["retry.timeouts"],
            "service.quarantined": self.counts["service.quarantined"],
        }

    def start_wall(self) -> None:
        """Mark the start of the timed region: spans before it (session
        opens, part of set-up) are not part of its wall time."""
        self.main_spans_s = 0.0

    def unaccounted(self, wall: float) -> float:
        """Wall time of the driving thread that no layer span covers."""
        return wall - self.main_spans_s
