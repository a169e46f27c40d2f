"""The four benchmark workloads: seeded input generators and one timed pass each.

Every pass runs in a fresh interpreter (see ``run.py``), so this module
imports nothing from ``repro`` at import time: the offline workload's
set-up time is the cold import of the monitor package, and no pass
inherits the caches, memos or intern arena of an earlier one.

Why these four (README.md has the full reasoning and the per-layer
predictions):

* ``offline_carried`` -- the only workload where the carry merge and the
  fold do real work (thousands of distinct carried residuals).
* ``session_dense`` -- progression-bound through the live session path.
* ``session_fanout`` -- service-bound: one event per session per advance.
* ``session_lossy`` -- the failure-detection layer under a lossy link.

The seed changes the inputs but not their shape: event counts, advance
boundaries and segment layout are fixed per workload, so the cost of a
run does not depend on which seed it got and the frame sequence of every
connection (which the fault schedule keys its drops on) is the same for
every seed.
"""

from __future__ import annotations

import random
import resource
import time

WORKLOADS = ("offline_carried", "session_dense", "session_fanout", "session_lossy")

# -- offline_carried ----------------------------------------------------------------

#: Fischer mutual exclusion, 3 processes, 2 s at 10 ev/s, epsilon 15 ms,
#: phi4 with a 400 ms window, 6 segments, at most 200 traces per segment:
#: 5,800 distinct carried residuals in the largest segment.  At 400 a pass
#: took 2.5 s, which mixes the host's fast and slow spells within one
#: pass, and a run held only eight passes (README.md, "Noise").
OFFLINE_PROCESSES = 3
OFFLINE_TICKS = 20
OFFLINE_EPSILON_MS = 15
OFFLINE_WINDOW_MS = 400
OFFLINE_SEGMENTS = 6
OFFLINE_TRACE_BUDGET = 200
#: The seed moves the computation's time origin (by at least epsilon,
#: so no timestamp window is cut at zero).  Anything stronger changes the
#: work: the enumeration is truncated, so a different clock draw or
#: simulation visits different traces and costs up to 40% more or less.
#: Verdicts are invariant under the shift, so one pinned multiset checks
#: every seed; it was produced by the columnar engine, matches the
#: object-path progressor (REPRO_COLUMNAR=0) and does not depend on
#: PYTHONHASHSEED.
OFFLINE_PINNED = {"False": "464028400"}


def offline_computation(seed: int):
    from repro.distributed.computation import DistributedComputation
    from repro.timed_automata import fischer
    from repro.timed_automata.trace_gen import computation_from_network

    network = fischer.build_network(OFFLINE_PROCESSES, seed=0)
    network.run(OFFLINE_TICKS)
    base = computation_from_network(
        network, OFFLINE_EPSILON_MS, events_per_second=10.0, clock_model="fixed"
    )
    shift = random.Random(f"offline_carried:{seed}").randrange(OFFLINE_EPSILON_MS, 100_000)
    computation = DistributedComputation(OFFLINE_EPSILON_MS)
    made = {}
    for event in base.events:
        made[event.key] = computation.add_event(
            event.process, event.local_time + shift, event.props, dict(event.deltas) or None
        )
    for send, recv in base.messages:
        computation.add_message(made[send.key], made[recv.key])
    return computation


def _attempt(calls: list[int], fn, *args):
    """Call ``fn``; count it, and count it as failed if it raises."""
    calls[0] += 1
    try:
        return fn(*args)
    except Exception:  # noqa: BLE001 -- a failed call is counted, then reported
        calls[1] += 1
        return None


def _offline_pass(seed: int, tracer, setup_only: bool) -> dict:
    # Set-up: what a user waits for in a fresh process before the first
    # event can be monitored -- importing the engine and building it.
    started = time.perf_counter()
    from repro.monitor import make_monitor
    from repro.specs.uppaal_specs import phi4

    engine = make_monitor(
        phi4(OFFLINE_PROCESSES, OFFLINE_WINDOW_MS),
        "smt",
        segments=OFFLINE_SEGMENTS,
        saturate=False,
        max_traces_per_segment=OFFLINE_TRACE_BUDGET,
    )
    setup = time.perf_counter() - started
    if setup_only:
        return {"setup_s": setup}
    computation = offline_computation(seed)

    # One "advance" of the offline fold is one segment step: a segment is
    # closed and its decided verdicts recorded.  Six calls per pass, so
    # timing them costs nothing measurable.
    latencies: list[float] = []
    step = engine.step

    def timed_step(*args, **kwargs):
        step_started = time.perf_counter()
        try:
            return step(*args, **kwargs)
        finally:
            latencies.append(time.perf_counter() - step_started)

    engine.step = timed_step
    if tracer is not None:
        tracer.install_engine()
    calls = [0, 0]  # attempted, raised
    started = time.perf_counter()
    result = _attempt(calls, engine.run, computation)
    wall = time.perf_counter() - started
    out = {
        "setup_s": setup,
        "wall_s": wall,
        "advance_s": latencies,
        "attempted": calls[0],
        "failed": calls[1],
        "verdicts": [verdict_counts(result)] if result is not None else [],
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.engine_layers([result] if result is not None else [])
        out["layers"]["trace.unaccounted_s"] = tracer.unaccounted(wall)
    return out


# -- session workloads --------------------------------------------------------------

#: session_dense: the bench_hotpath ``session_service`` stream --
#: G(req -> F[0,30) ack) over 3 processes, one event per ms, an ack every
#: 4th event, epsilon 2, an advance every 4 events.
DENSE_EVENTS = 400
DENSE_EPSILON = 2

SESSION_SPEC = "a U[0,600) b"
SESSION_EPSILON = 2
SESSION_RATE = 10.0
FANOUT_SESSIONS = 32
FANOUT_LENGTH_MS = 2000
FANOUT_ADVANCE_MS = 100
FANOUT_WORKERS = 2
#: The 8-session lossy-link point of bench_service_sessions.py --faults.
LOSSY_SESSIONS = 8
LOSSY_LENGTH_MS = 600
LOSSY_ADVANCE_MS = 200
LOSSY_WORKERS = 2
LOSSY_FAULT_SEED = "bench-lossy-link"
LOSSY_FAULTS = dict(
    drop=0.02, latency=0.001, jitter=0.002, delay=0.03, delay_seconds=0.2, grace=8
)
LOSSY_CHECKPOINT_EVERY = 8


def dense_plan(seed: int) -> dict:
    """One stream; the seed picks the process names, which process
    starts the round-robin, and the time origin.  The req/ack pattern and
    the advance points are the fixed ones the workload is about."""
    rng = random.Random(f"session_dense:{seed}")
    names = [f"proc{n}" for n in rng.sample(range(100, 1000), 3)]
    rotation = rng.randrange(3)
    base = 4 * rng.randrange(1, 250)
    events = []
    boundaries: list[tuple[int, int]] = []  # (events observed before it, boundary)
    for i in range(DENSE_EVENTS):
        props = ("req",) if i % 4 else ("ack",)
        events.append((names[(i + rotation) % 3], base + i, props))
        if i and i % 4 == 0:
            boundaries.append((i + 1, base + i))
    return {
        "spec": "G(req -> F[0,30) ack)",
        "epsilon": DENSE_EPSILON,
        "streams": [events],
        "schedule": [[(0, count, boundary)] for count, boundary in boundaries],
    }


def _session_stream(index: int, props: random.Random, length_ms: int) -> list[tuple]:
    """Session ``index`` of bench_service_sessions.py's generator.

    Which process steps and when are drawn exactly as there, from
    ``Random(index)``, so every seed gives the same event times, the
    same advance rounds and the same frame sequence on every connection
    (the fault schedule keys its drops on frame indices).  The
    propositions come from the run's seed.
    """
    shape = random.Random(index)
    period_ms = max(1, round(1000.0 / SESSION_RATE))
    clocks = {"P1": shape.randrange(0, 3), "P2": shape.randrange(0, 3)}
    events = []
    while min(clocks.values()) < length_ms:
        process = shape.choice(("P1", "P2"))
        clocks[process] += period_ms + shape.randrange(0, 3)
        shape.random(), shape.random()  # that generator's proposition draws
        drawn = tuple(p for p in ("a", "b") if props.random() < 0.4)
        events.append((process, clocks[process], drawn))
    events.sort(key=lambda e: e[1])
    return events


def _windowed_plan(seed: int, name: str, sessions: int, length_ms: int, advance_ms: int) -> dict:
    props = random.Random(f"{name}:{seed}")
    streams = [_session_stream(index, props, length_ms) for index in range(sessions)]
    horizon = max(e[1] for events in streams for e in events)
    schedule = []
    cursors = [0] * sessions
    for boundary in range(advance_ms, horizon + advance_ms + 1, advance_ms):
        rounds = []
        for index, events in enumerate(streams):
            cursor = cursors[index]
            while cursor < len(events) and events[cursor][1] < boundary:
                cursor += 1
            cursors[index] = cursor
            rounds.append((index, cursor, boundary))
        schedule.append(rounds)
    return {
        "spec": SESSION_SPEC,
        "epsilon": SESSION_EPSILON,
        "streams": streams,
        "schedule": schedule,
    }


def session_plan(workload: str, seed: int) -> dict:
    """Streams plus the closed-loop schedule: a list of rounds, each a
    list of ``(session index, events observed before, boundary)``."""
    if workload == "session_dense":
        return dense_plan(seed)
    if workload == "session_fanout":
        return _windowed_plan(
            seed, workload, FANOUT_SESSIONS, FANOUT_LENGTH_MS, FANOUT_ADVANCE_MS
        )
    if workload == "session_lossy":
        return _windowed_plan(
            seed, workload, LOSSY_SESSIONS, LOSSY_LENGTH_MS, LOSSY_ADVANCE_MS
        )
    raise ValueError(f"not a session workload: {workload}")


def _service_config(workload: str, clean: bool):
    """``(MonitorService kwargs, open_session kwargs, fault transports)``."""
    if workload == "session_dense":
        return {"workers": 1}, {}, []
    if workload == "session_fanout":
        return {"workers": FANOUT_WORKERS}, {}, []
    if clean:
        return {"workers": LOSSY_WORKERS}, {}, []
    from repro.retry import RetryPolicy
    from repro.transport import FaultSchedule, FaultyTransport, LocalTransport

    schedule = FaultSchedule(seed=LOSSY_FAULT_SEED, **LOSSY_FAULTS)
    endpoints = [
        FaultyTransport(LocalTransport(), schedule) for _ in range(LOSSY_WORKERS)
    ]
    session_kwargs = {
        "checkpoint": {"every_events": LOSSY_CHECKPOINT_EVERY},
        "call_policy": RetryPolicy(attempts=4, timeout=2.0, base_delay=0.05),
    }
    return {"endpoints": endpoints}, session_kwargs, endpoints


def _session_pass(workload: str, seed: int, tracer, clean: bool, setup_only: bool) -> dict:
    from repro.mtl import parse
    from repro.service import MonitorService

    plan = session_plan(workload, seed)
    spec = parse(plan["spec"])
    streams = plan["streams"]
    pool, session_kwargs, faulty = _service_config(workload, clean)
    calls = [0, 0]  # attempted, raised
    latencies: list[float] = []
    results: list = [None] * len(streams)

    started = time.perf_counter()
    service = MonitorService(**pool)
    try:
        if tracer is not None:
            # After the pool is up: forked workers must not inherit wrappers.
            tracer.install_client()
        sessions = [
            service.open_session(
                spec, plan["epsilon"], key=f"stream-{index}", **session_kwargs
            )
            for index in range(len(streams))
        ]
        setup = time.perf_counter() - started
        if setup_only:
            return {"setup_s": setup}

        cursors = [0] * len(streams)
        if tracer is not None:
            tracer.start_wall()
        started = time.perf_counter()
        for rounds in plan["schedule"]:
            for index, upto, boundary in rounds:
                session = sessions[index]
                events = streams[index]
                for cursor in range(cursors[index], upto):
                    _attempt(calls, session.observe, *events[cursor])
                cursors[index] = upto
                call_started = time.perf_counter()
                _attempt(calls, session.advance_to, boundary)
                latencies.append(time.perf_counter() - call_started)
        for index, session in enumerate(sessions):
            for cursor in range(cursors[index], len(streams[index])):
                _attempt(calls, session.observe, *streams[index][cursor])
            results[index] = _attempt(calls, session.finish)
        wall = time.perf_counter() - started
        if tracer is not None:
            tracer.uninstall()
        outstanding = service.outstanding()
        counters = {
            "steals": service.steals,
            "recoveries": sum(s.recoveries for s in sessions),
            "checkpoints": sum(s.checkpoints for s in sessions),
        }
    finally:
        service.close()
    fault_stats = {"sent": 0, "dropped": 0}
    for endpoint in faulty:
        stats = endpoint.stats()
        for key in fault_stats:
            fault_stats[key] += stats[key]
    out = {
        "setup_s": setup,
        "wall_s": wall,
        "advance_s": latencies,
        "attempted": calls[0],
        "failed": calls[1],
        "verdicts": [verdict_counts(r) if r is not None else None for r in results],
        "outstanding": outstanding,
    }
    if tracer is not None:
        layers = tracer.client_layers()
        layers.update(
            {
                "service.steals": counters["steals"],
                "session.recoveries": counters["recoveries"],
                "session.checkpoints": counters["checkpoints"],
                "faults.frames_sent": fault_stats["sent"],
                "faults.frames_dropped": fault_stats["dropped"],
                "trace.unaccounted_s": tracer.unaccounted(wall),
            }
        )
        out["layers"] = layers
    return out


def replay_session_plan(workload: str, seed: int, tracer=None) -> tuple[list, float]:
    """The in-process reference: each stream through its own
    ``OnlineMonitor`` with the same events and boundaries.  Returns the
    verdict multisets and the time spent in ``advance_to``/``finish``
    (the compute a worker does for the same streams)."""
    from repro.monitor.online import OnlineMonitor
    from repro.mtl import parse

    plan = session_plan(workload, seed)
    spec = parse(plan["spec"])
    streams = plan["streams"]
    monitors = [OnlineMonitor(spec, plan["epsilon"]) for _ in streams]
    cursors = [0] * len(streams)
    compute = 0.0
    if tracer is not None:
        tracer.install_engine()
    for rounds in plan["schedule"]:
        for index, upto, boundary in rounds:
            for cursor in range(cursors[index], upto):
                monitors[index].observe(*streams[index][cursor])
            cursors[index] = upto
            started = time.perf_counter()
            monitors[index].advance_to(boundary)
            compute += time.perf_counter() - started
    results = []
    for index, monitor in enumerate(monitors):
        for cursor in range(cursors[index], len(streams[index])):
            monitor.observe(*streams[index][cursor])
        started = time.perf_counter()
        results.append(monitor.finish())
        compute += time.perf_counter() - started
    if tracer is not None:
        tracer.uninstall()
    return results, compute


def verdict_counts(result) -> dict[str, str]:
    """A MonitorResult's verdict multiset, in the form passes report it."""
    return {str(k): str(v) for k, v in sorted(result.verdict_counts.items())}


def _peak_rss_mb() -> float:
    """The larger of this process's peak RSS and that of its largest
    reaped child (the service closes and joins its workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


#: What a pass does: ``plain`` is the timed pass, ``traced`` the same
#: with the layer wrappers in, ``clean`` a session_lossy pass without
#: faults, ``setup`` only the set-up.
MODES = ("plain", "traced", "clean", "setup")


def run_pass(workload: str, seed: int, mode: str) -> dict:
    """One pass of ``workload`` in ``mode`` (the body of a fresh process)."""
    from layertrace import Tracer

    tracer = Tracer() if mode == "traced" else None
    if workload == "offline_carried":
        out = _offline_pass(seed, tracer, setup_only=mode == "setup")
    else:
        out = _session_pass(
            workload, seed, tracer, clean=mode == "clean", setup_only=mode == "setup"
        )
    out["peak_rss_mb"] = _peak_rss_mb()
    return out


if __name__ == "__main__":
    # One pass in this fresh interpreter: ``workloads.py WORKLOAD SEED
    # MODE``; the result is the last line of standard output.
    import json
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    workload, seed, mode = sys.argv[1:4]
    if workload not in WORKLOADS or mode not in MODES:
        sys.exit(f"usage: workloads.py {{{','.join(WORKLOADS)}}} SEED {{{','.join(MODES)}}}")
    print(json.dumps(run_pass(workload, int(seed), mode)))
