"""Tests for the MonitorService session surface.

The acceptance bar: >= 32 concurrent sessions driven through the service
finish with results identical to the same streams replayed one-at-a-time
through an in-process OnlineMonitor.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import MonitorError
from repro.monitor.online import OnlineMonitor
from repro.mtl import parse
from repro.service import MonitorService, SessionStatus

SPECS = [
    parse("a U[0,6) b"),
    parse("F[0,8) b"),
    parse("G[0,4) (a | b)"),
    parse("F[0,12) (a & b)"),
]


def _stream(seed: int) -> tuple[object, int, list[tuple[str, int, frozenset[str]]], int]:
    """One deterministic random stream: (formula, epsilon, events, boundary).

    Events are in observation order (per-process monotone local clocks);
    ``boundary`` is a mid-stream ``advance_to`` point.
    """
    rng = random.Random(seed)
    spec = SPECS[seed % len(SPECS)]
    epsilon = rng.randint(1, 3)
    events: list[tuple[str, int, frozenset[str]]] = []
    clocks = {"P1": rng.randint(0, 2), "P2": rng.randint(0, 2)}
    for _ in range(rng.randint(3, 7)):
        process = rng.choice(("P1", "P2"))
        clocks[process] += rng.randint(0, 3)
        props = frozenset(p for p in ("a", "b") if rng.random() < 0.5)
        events.append((process, clocks[process], props))
    boundary = max(t for _, t, _ in events) // 2
    return spec, epsilon, events, boundary


def _serial_replay(seed: int):
    """The same stream through a plain in-process OnlineMonitor."""
    spec, epsilon, events, boundary = _stream(seed)
    monitor = OnlineMonitor(spec, epsilon)
    advanced = False
    for process, local_time, props in events:
        if not advanced and local_time >= boundary > 0:
            monitor.advance_to(boundary)
            advanced = True
        if local_time >= boundary or not advanced:
            monitor.observe(process, local_time, props)
    return monitor.finish()


class TestManySessions:
    SESSIONS = 32

    def test_concurrent_sessions_match_serial_replay(self):
        """Acceptance: >= 32 sessions, interleaved, identical to serial."""
        with MonitorService(workers=4) as service:
            sessions = {}
            for seed in range(self.SESSIONS):
                spec, epsilon, _, _ = _stream(seed)
                sessions[seed] = service.open_session(spec, epsilon)
            # Interleave: feed event i of every stream before event i+1 of
            # any stream, advancing each session at its own boundary.
            advanced: set[int] = set()
            index = 0
            while True:
                fed = False
                for seed, session in sessions.items():
                    _, _, events, boundary = _stream(seed)
                    if index >= len(events):
                        continue
                    process, local_time, props = events[index]
                    if seed not in advanced and local_time >= boundary > 0:
                        session.advance_to(boundary)
                        advanced.add(seed)
                    if local_time >= boundary or seed not in advanced:
                        session.observe(process, local_time, props)
                    fed = True
                if not fed:
                    break
                index += 1
            results = {seed: session.finish() for seed, session in sessions.items()}
        for seed, result in results.items():
            serial = _serial_replay(seed)
            assert result.verdict_counts == serial.verdict_counts, f"stream {seed}"
            assert result.verdicts == serial.verdicts

    def test_sessions_shard_across_all_workers(self):
        with MonitorService(workers=3) as service:
            sessions = [
                service.open_session(parse("F[0,5) a"), epsilon=1) for _ in range(6)
            ]
            workers = {session.worker_index for session in sessions}
            assert workers == {0, 1, 2}
            for session in sessions:
                session.close()

    def test_affinity_key_pins_to_one_worker(self):
        with MonitorService(workers=3) as service:
            first = service.open_session(parse("F[0,5) a"), epsilon=1, key="feed-7")
            second = service.open_session(parse("F[0,8) b"), epsilon=1, key="feed-7")
            assert first.worker_index == second.worker_index


class TestSessionSemantics:
    def test_single_session_matches_online_monitor(self):
        spec = parse("a U[0,6) b")
        with MonitorService(workers=2) as service:
            session = service.open_session(spec, epsilon=2)
            for process, t, props in [
                ("P1", 1, "a"), ("P1", 4, ()), ("P2", 2, "a"), ("P2", 5, "b")
            ]:
                session.observe(process, t, props)
            result = session.finish()
        reference = OnlineMonitor(spec, epsilon=2)
        for process, t, props in [
            ("P1", 1, "a"), ("P1", 4, ()), ("P2", 2, "a"), ("P2", 5, "b")
        ]:
            reference.observe(process, t, props)
        assert result.verdict_counts == reference.finish().verdict_counts

    def test_poll_reports_progress(self):
        spec = parse("F[0,100) done")
        with MonitorService(workers=1) as service:
            session = service.open_session(spec, epsilon=1)
            session.observe("P1", 5, "start")
            status = session.poll()
            assert isinstance(status, SessionStatus)
            assert status.pending == 1
            assert not status.finished
            assert status.verdicts == frozenset()
            verdicts = session.advance_to(10)
            assert verdicts == frozenset()
            session.observe("P1", 50, "done")
            session.finish()
            status = session.poll()
            assert status.finished
            assert status.verdicts == frozenset({True})

    def test_late_observe_surfaces_monitor_error(self):
        """Worker-side rejection re-raises client-side as MonitorError at
        the next synchronising call (observe itself is asynchronous)."""
        with MonitorService(workers=1) as service:
            session = service.open_session(parse("F p"), epsilon=1)
            session.advance_to(100)
            session.observe("P1", 5, "p")
            with pytest.raises(MonitorError, match="advanced past"):
                session.advance_to(200)
            session.close()

    def test_session_survives_rejected_observe(self):
        """A rejected event raises once, then the stream keeps working —
        mirroring the in-process OnlineMonitor's recovery contract."""
        with MonitorService(workers=1) as service:
            session = service.open_session(parse("F[0,300) p"), epsilon=1)
            session.advance_to(100)
            session.observe("P1", 5, "p")  # behind the frontier: rejected
            with pytest.raises(MonitorError, match="rejected"):
                session.advance_to(150)
            # the error does not repeat, and the session still accepts work
            session.observe("P1", 200, "p")
            result = session.finish()
            assert result.definitely_satisfied

    def test_rejected_event_does_not_drop_batched_tail(self):
        """One bad event inside a flushed batch must not swallow the
        valid events batched after it."""
        with MonitorService(workers=1) as service:
            session = service.open_session(parse("F[0,300) p"), epsilon=1)
            session.advance_to(100)
            # both events flush in ONE batch at the next sync point:
            session.observe("P1", 5, ())     # behind the frontier: rejected
            session.observe("P1", 200, "p")  # valid: must survive
            with pytest.raises(MonitorError, match="1/2 observed"):
                session.poll()
            result = session.finish()
            assert result.definitely_satisfied  # the valid event was kept

    def test_finish_after_close_raises(self):
        with MonitorService(workers=1) as service:
            session = service.open_session(parse("F p"), epsilon=1)
            session.close()
            with pytest.raises(MonitorError, match="closed without"):
                session.finish()

    def test_finish_idempotent_and_seals_session(self):
        with MonitorService(workers=1) as service:
            session = service.open_session(parse("F p"), epsilon=1)
            session.observe("P1", 1, "p")
            first = session.finish()
            assert session.finish() is first
            assert session.finished
            with pytest.raises(MonitorError, match="finished"):
                session.observe("P1", 2, "p")
            assert service.open_sessions == 0

    def test_close_discards_without_verdicts(self):
        with MonitorService(workers=1) as service:
            session = service.open_session(parse("F p"), epsilon=1)
            session.observe("P1", 1, "p")
            session.close()
            assert service.open_sessions == 0
            # pool still serves new sessions afterwards
            replacement = service.open_session(parse("F p"), epsilon=1)
            replacement.observe("P1", 1, "p")
            assert replacement.finish().definitely_satisfied

    def test_sessions_and_batches_share_the_pool(self):
        from repro.distributed.computation import DistributedComputation

        spec = parse("a U[0,6) b")
        comp = DistributedComputation.from_event_lists(
            2, {"P1": [(1, "a"), (4, ())], "P2": [(2, "a"), (5, "b")]}
        )
        with MonitorService(workers=2, formula=spec, saturate=False) as service:
            session = service.open_session(spec, epsilon=2)
            session.observe("P1", 1, "a")
            report = service.map([comp, comp])
            session.observe("P2", 2, "a")
            session.observe("P1", 4, ())
            session.observe("P2", 5, "b")
            result = session.finish()
        assert not report.errors
        assert result.verdicts == report.items[0].result.verdicts


class TestSessionLifecycleFixes:
    """Regression bar for the session-lifecycle bugfixes: the heat signal
    counts only events that actually reached a worker, and close()
    cancels queued observe batches instead of abandoning them."""

    def test_events_observed_counts_flushed_not_buffered(self):
        with MonitorService(workers=1) as service:
            session = service.open_session(parse("F[0,50) p"), epsilon=1)
            for t in range(1, 6):
                session.observe("P1", t, "p")
            assert session.events_observed == 0  # buffered, not yet carried
            session.poll()  # flushes
            assert session.events_observed == 5
            session.finish()

    def test_failed_flush_does_not_inflate_the_count(self):
        import time

        from repro.errors import ServiceError

        with MonitorService(workers=2) as service:
            session = service.open_session(parse("F[0,50) p"), epsilon=1)
            session.observe("P1", 1, "p")
            service._connections[session.worker_index].kill()
            deadline = time.monotonic() + 15
            while not service.dead_endpoints()[session.worker_index]:
                assert time.monotonic() < deadline, "worker death never detected"
                time.sleep(0.05)
            with pytest.raises(ServiceError, match="buffered observe event"):
                session.poll()
            assert session.events_observed == 0  # the batch never landed

    def test_close_cancels_inflight_observe_batches(self):
        """A closed session's queued batches are dropped worker-side (the
        cancel's drop frame overtakes the backlog), not left to burn the
        pool — and their rejections can never surface afterwards."""
        from repro.service.session import OBSERVE_FLUSH_THRESHOLD

        with MonitorService(workers=1) as service:
            session = service.open_session(parse("F[0,100000) p"), epsilon=1)
            service._send(0, "sleep", 1.0)  # park the worker
            for t in range(1, OBSERVE_FLUSH_THRESHOLD + 1):
                session.observe("P1", t, "p")
            inflight = list(session._inflight)
            assert inflight  # the auto-flush queued behind the parked worker
            session.close()
            assert all(future.cancelled for future in inflight)
            assert service.outstanding() == [0]  # drop acks settled the books


class TestBufferedEventLoss:
    """Satellite bar: events buffered client-side (below the flush
    threshold) must never vanish silently when the worker dies — the
    next synchronising call raises ServiceError naming the count."""

    def _await_death(self, service, worker_index):
        import time

        deadline = time.monotonic() + 15
        while not service.dead_endpoints()[worker_index]:
            assert time.monotonic() < deadline, "worker death never detected"
            time.sleep(0.05)

    def test_unflushed_events_surface_with_count_on_worker_death(self):
        from repro.errors import ServiceError

        with MonitorService(workers=2) as service:
            session = service.open_session(parse("F[0,50) p"), epsilon=1)
            session.observe("P1", 1, "p")
            session.observe("P2", 2, "p")
            session.observe("P1", 3, "p")
            service._connections[session.worker_index].kill()
            self._await_death(service, session.worker_index)
            with pytest.raises(ServiceError, match="3 buffered observe event"):
                session.advance_to(10)

    def test_failed_flush_keeps_buffer_for_diagnosis(self):
        """The buffer survives the failed flush — repeated sync calls
        keep reporting the same count instead of silently dropping it."""
        from repro.errors import ServiceError

        with MonitorService(workers=2) as service:
            session = service.open_session(parse("F[0,50) p"), epsilon=1)
            session.observe("P1", 1, "p")
            service._connections[session.worker_index].kill()
            self._await_death(service, session.worker_index)
            for _ in range(2):
                with pytest.raises(ServiceError, match="1 buffered observe event"):
                    session.poll()

    def test_migration_drains_buffer_before_the_hop(self):
        """Migration flushes buffered events to the origin first, so the
        snapshot carries them — nothing is lost across the hop."""
        spec = parse("F[0,50) p")
        with MonitorService(workers=2) as service:
            session = service.open_session(spec, epsilon=1)
            session.observe("P1", 1, "p")  # buffered, below the threshold
            session.migrate(1 - session.worker_index)
            status = session.poll()
            assert status.pending == 1  # the event crossed with the snapshot
            assert session.finish().definitely_satisfied


class TestTruncatedSession:
    def test_finish_reports_incomplete_verdict_set(self):
        """A truncated session's verdict set is not proven complete, and
        that flag survives the worker's finish acknowledgement."""
        spec = parse("G(a -> F[0,30) b)")
        events = sorted(
            (
                (process, 2 * i + offset, "a" if i % 2 else "b")
                for process, offset in (("P1", 0), ("P2", 1))
                for i in range(6)
            ),
            key=lambda e: e[1],
        )
        with MonitorService(workers=1) as service:
            session = service.open_session(spec, epsilon=3, max_traces_per_segment=5)
            for process, t, props in events:
                session.observe(process, t, props)
            result = session.finish()
        assert result.truncated
        assert not result.exhaustive
        assert not result.verdict_set_complete
