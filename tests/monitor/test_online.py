"""Tests for the online (streaming) monitor."""

import pytest

from repro.distributed.computation import DistributedComputation
from repro.errors import MonitorError
from repro.monitor.online import OnlineMonitor
from repro.monitor.smt_monitor import SmtMonitor
from repro.mtl import parse


class TestStreaming:
    def test_single_flush_matches_offline(self):
        spec = parse("a U[0,6) b")
        online = OnlineMonitor(spec, epsilon=2)
        for process, t, props in [
            ("P1", 1, "a"), ("P1", 4, ()), ("P2", 2, "a"), ("P2", 5, "b")
        ]:
            online.observe(process, t, props)
        result = online.finish()

        comp = DistributedComputation.from_event_lists(
            2, {"P1": [(1, "a"), (4, ())], "P2": [(2, "a"), (5, "b")]}
        )
        offline = SmtMonitor(spec, saturate=False).run(comp)
        assert result.verdicts == offline.verdicts

    def test_incremental_advancing(self):
        spec = parse("F[0,100) done")
        online = OnlineMonitor(spec, epsilon=1)
        online.observe("P1", 5, "start")
        verdicts = online.advance_to(10)
        assert not verdicts  # still pending
        assert online.undecided_residuals >= 1
        online.observe("P1", 50, "done")
        online.advance_to(60)
        result = online.finish()
        assert result.definitely_satisfied

    def test_violation_detected_at_finish(self):
        spec = parse("G[0,100) !bad")
        online = OnlineMonitor(spec, epsilon=1)
        online.observe("P1", 5, ())
        online.observe("P1", 20, "bad")
        result = online.finish()
        assert result.definitely_violated

    def test_pending_counter(self):
        online = OnlineMonitor(parse("F p"), epsilon=1)
        online.observe("P1", 5, "p")
        online.observe("P1", 50, ())
        assert online.pending == 2
        online.advance_to(10)
        assert online.pending == 1

    def test_late_event_rejected(self):
        online = OnlineMonitor(parse("F p"), epsilon=1)
        online.advance_to(100)
        with pytest.raises(MonitorError):
            online.observe("P1", 5, "p")

    def test_backwards_advance_rejected(self):
        online = OnlineMonitor(parse("F p"), epsilon=1)
        online.advance_to(10)
        with pytest.raises(MonitorError):
            online.advance_to(5)

    def test_observe_after_finish_rejected(self):
        online = OnlineMonitor(parse("F p"), epsilon=1)
        online.observe("P1", 1, "p")
        online.finish()
        with pytest.raises(MonitorError):
            online.observe("P1", 2, "p")

    def test_finish_idempotent(self):
        online = OnlineMonitor(parse("F p"), epsilon=1)
        online.observe("P1", 1, "p")
        first = online.finish()
        second = online.finish()
        assert first is second

    def test_empty_stream(self):
        online = OnlineMonitor(parse("F[0,5) p"), epsilon=1)
        result = online.finish()
        assert result.definitely_violated

    def test_multi_segment_verdict_set(self):
        """Both verdicts can emerge across separately flushed segments."""
        spec = parse("F[0,4) b")
        online = OnlineMonitor(spec, epsilon=3)
        online.observe("P1", 1, "a")
        online.observe("P2", 3, "b")
        result = online.finish()
        # b's admissible time ranges over [1,5]; relative to a's time the
        # offset can fall inside or outside [0,4).
        assert result.verdicts == frozenset({True, False})


class TestEdgeCases:
    """Out-of-order observation, empty segments, double finish, and the
    message-edge rejection path (the streaming API's corner cases)."""

    def test_out_of_order_observe_after_advance(self):
        online = OnlineMonitor(parse("F[0,100) p"), epsilon=1)
        online.observe("P1", 5, ())
        online.advance_to(10)
        with pytest.raises(MonitorError, match="advanced past"):
            online.observe("P1", 9, "p")
        # exactly at the frontier is still admissible...
        online.observe("P1", 10, "p")
        # ...and a rejected event must not corrupt the stream
        result = online.finish()
        assert result.definitely_satisfied

    def test_out_of_order_between_processes(self):
        """The frontier applies to every process, not just the one that
        triggered the advance."""
        online = OnlineMonitor(parse("F[0,100) p"), epsilon=2)
        online.observe("P1", 20, ())
        online.advance_to(15)
        with pytest.raises(MonitorError, match="advanced past"):
            online.observe("P2", 3, "p")

    def test_empty_segment_advances(self):
        """Advancing over a window with no buffered events consumes no
        segment and decides nothing new."""
        spec = parse("F[0,100) done")
        online = OnlineMonitor(spec, epsilon=1)
        online.observe("P1", 5, "start")
        online.advance_to(10)
        reports_after_first = len(online._result.segment_reports)
        online.advance_to(20)  # empty window: nothing buffered below 20
        online.advance_to(30)  # and again
        assert len(online._result.segment_reports) == reports_after_first
        assert online.pending == 0
        assert online.undecided_residuals >= 1
        online.observe("P1", 50, "done")
        result = online.finish()
        assert result.definitely_satisfied

    def test_leading_empty_advance(self):
        """An empty advance before the first event must not anchor the
        formula early: verdicts match the unadvanced stream."""
        spec = parse("F[0,8) b")
        plain = OnlineMonitor(spec, epsilon=2)
        plain.observe("P1", 6, "b")
        expected = plain.finish()

        advanced = OnlineMonitor(spec, epsilon=2)
        advanced.advance_to(3)  # nothing observed yet
        advanced.observe("P1", 6, "b")
        assert advanced.finish().verdict_counts == expected.verdict_counts

    def test_empty_stream_with_empty_advances(self):
        online = OnlineMonitor(parse("G[0,5) p"), epsilon=1)
        online.advance_to(10)
        online.advance_to(20)
        result = online.finish()
        # weak G over no observations closes to True
        assert result.definitely_satisfied

    def test_double_finish_returns_same_object(self):
        online = OnlineMonitor(parse("F[0,10) p"), epsilon=1)
        online.observe("P1", 2, "p")
        first = online.finish()
        second = online.finish()
        assert second is first
        assert online.finished
        assert online.current_verdicts == first.verdicts

    def test_advance_after_finish_rejected(self):
        online = OnlineMonitor(parse("F p"), epsilon=1)
        online.finish()
        with pytest.raises(MonitorError, match="finished"):
            online.advance_to(10)

    def test_default_budget_tames_the_roadmap_blowup(self):
        """ROADMAP's blowup case: ``F[0,30) b``, epsilon 2, 16 events on
        one process, no intervening advance.  With the old unbounded
        default (``max_traces_per_segment=None``) the final segment's
        enumeration effectively never terminated; the finite default
        budget must finish in seconds with a truncation report instead.
        """
        monitor = OnlineMonitor(parse("F[0,30) b"), epsilon=2)
        for t in range(16):
            monitor.observe("P1", t, {"b"} if t == 7 else ())
        result = monitor.finish()
        assert result.truncated
        assert not result.exhaustive
        assert result.segment_reports[0].truncated
        assert result.may_be_satisfied  # the witness at t=7 is found
        # The budget, not exhaustion, stopped enumeration.
        from repro.encoding.verdict_enumerator import DEFAULT_TRACE_BUDGET

        assert result.segment_reports[0].traces_enumerated == DEFAULT_TRACE_BUDGET

    def test_explicit_none_budget_is_unbounded(self):
        """``max_traces_per_segment=None`` still opts out of the budget
        (small case, exhaustively enumerable)."""
        monitor = OnlineMonitor(parse("F[0,8) b"), epsilon=1, max_traces_per_segment=None)
        monitor.observe("P1", 2, "b")
        result = monitor.finish()
        assert result.exhaustive
        assert not result.truncated

    def test_run_rejects_message_edges(self):
        """Dropping message edges would enlarge the admissible-trace set
        and return unsound verdicts, so run() must refuse them."""
        computation = DistributedComputation(2)
        send = computation.add_event("P1", 1, "a")
        recv = computation.add_event("P2", 3, "b")
        computation.add_message(send, recv)
        online = OnlineMonitor(parse("a U[0,6) b"), epsilon=2)
        with pytest.raises(MonitorError, match="message edges"):
            online.run(computation)
        # the failed run leaves the streaming instance untouched
        online.observe("P1", 1, "a")
        assert online.pending == 1


class TestSnapshotRestore:
    """Migration support: a restored monitor continues bit-identically."""

    def _feed_first_half(self, monitor: OnlineMonitor) -> None:
        monitor.observe("P1", 1, "a")
        monitor.observe("P2", 2, "a")
        monitor.observe("P1", 5, "a")
        monitor.advance_to(4)
        monitor.observe("P2", 6, "a")  # buffered beyond the frontier

    def _feed_second_half(self, monitor: OnlineMonitor) -> None:
        monitor.observe("P1", 8, "b")
        monitor.observe("P2", 11, ())

    def test_restore_continues_bit_identically(self):
        spec = parse("a U[0,20) b")
        reference = OnlineMonitor(spec, epsilon=2)
        self._feed_first_half(reference)
        self._feed_second_half(reference)
        expected = reference.finish()

        origin = OnlineMonitor(spec, epsilon=2)
        self._feed_first_half(origin)
        restored = OnlineMonitor.restore(origin.snapshot())
        self._feed_second_half(restored)
        result = restored.finish()
        assert result.verdict_counts == expected.verdict_counts
        assert result.verdicts == expected.verdicts

    def test_snapshot_round_trips_through_pickle(self):
        """The payload must cross the wire codec (migration is remote)."""
        import pickle

        spec = parse("F[0,30) b")
        origin = OnlineMonitor(spec, epsilon=1)
        origin.observe("P1", 2, "a")
        origin.advance_to(5)
        origin.observe("P1", 7, "b")
        snapshot = pickle.loads(pickle.dumps(origin.snapshot()))
        restored = OnlineMonitor.restore(snapshot)
        assert restored.pending == origin.pending
        assert restored.undecided_residuals == origin.undecided_residuals
        assert restored.finish().verdict_counts == origin.finish().verdict_counts

    def test_restore_preserves_frontier_validation(self):
        origin = OnlineMonitor(parse("F p"), epsilon=1)
        origin.advance_to(10)
        restored = OnlineMonitor.restore(origin.snapshot())
        with pytest.raises(MonitorError, match="advanced past"):
            restored.observe("P1", 3, "p")

    def test_restore_rejects_bad_snapshots(self):
        with pytest.raises(MonitorError, match="malformed"):
            OnlineMonitor.restore({"no": "version"})
        origin = OnlineMonitor(parse("F p"), epsilon=1)
        snapshot = origin.snapshot()
        snapshot["version"] = 99
        with pytest.raises(MonitorError, match="version 99"):
            OnlineMonitor.restore(snapshot)


#: A computation whose single segment has far more than five admissible
#: traces: two processes, six events each, epsilon 3.
TRUNCATING_SPEC = parse("G(a -> F[0,30) b)")
TRUNCATING_EVENTS = [
    (process, 2 * i + offset, "a" if i % 2 else "b")
    for process, offset in (("P1", 0), ("P2", 1))
    for i in range(6)
]


def _truncating_computation() -> DistributedComputation:
    lists: dict = {}
    for process, t, props in TRUNCATING_EVENTS:
        lists.setdefault(process, []).append((t, props))
    return DistributedComputation.from_event_lists(3, lists)


class TestTruncation:
    """A trace budget that stops enumeration leaves the verdict *set*
    unproven: the online monitor must say so, like the offline fold."""

    def _assert_incomplete(self, result) -> None:
        assert result.truncated
        assert not result.exhaustive
        assert not result.verdict_set_complete

    def test_run_reports_incomplete_verdict_set(self):
        computation = _truncating_computation()
        offline = SmtMonitor(TRUNCATING_SPEC, max_traces_per_segment=5).run(computation)
        self._assert_incomplete(offline)
        online = OnlineMonitor(TRUNCATING_SPEC, epsilon=3, max_traces_per_segment=5)
        self._assert_incomplete(online.run(computation))

    def test_finish_after_advance_reports_incomplete_verdict_set(self):
        monitor = OnlineMonitor(TRUNCATING_SPEC, epsilon=3, max_traces_per_segment=5)
        for process, t, props in sorted(TRUNCATING_EVENTS, key=lambda e: e[1]):
            monitor.observe(process, t, props)
        monitor.advance_to(6)
        self._assert_incomplete(monitor.finish())
