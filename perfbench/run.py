"""The repository benchmark: one command, four workloads, end-to-end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload session_dense --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload session_dense --seed 1 --seconds 25 --trace 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
table of a traced run.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A run repeats
passes of the workload for ``--seconds``; every pass runs in a fresh
interpreter; the verdicts of every pass are checked
(session workloads against an in-process ``OnlineMonitor`` replay of the
same streams and boundaries, ``offline_carried`` against its pinned
multiset) and a mismatch, or an outstanding-request counter left nonzero,
exits 1.  README.md says why each workload exists and which layer each
per-layer metric should move on which workload.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402 -- needs the path set above
    OFFLINE_PINNED,
    WORKLOADS,
    replay_session_plan,
    verdict_counts,
)

DEFAULT_SEED = 1
#: The seed later changes must also check a claimed gain on, after
#: tuning on DEFAULT_SEED and others.
HELD_OUT_SEED = 7
PASS_TIMEOUT = 150.0
#: The tail percentile of a pass's advances.  A higher one with ten
#: samples beyond it (p99.97 on session_fanout) is set by a handful of
#: scheduler hiccups; p90 sits on the edge of session_lossy's delayed
#: advances (4 of every 40), where one stray slow advance moved it from
#: 256 ms to 406 ms.
TAIL_Q = 0.85
#: Set-ups a run measures at least; when it makes fewer timed passes
#: (session_lossy makes two), it adds passes that only set up.
MIN_SETUPS = 7
#: The dominant layer each workload was chosen for (README.md, "Which
#: layer should dominate").
DOMINANT = {
    "offline_carried": "progression + merge",
    "session_dense": "progression",
    "session_fanout": "service overhead",
    "session_lossy": "drop stalls",
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "advance_p50_ms": "ms",
    "advance_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "distributed.hb_s": "s",
    "distributed.hb_calls": "count",
    "encoding.traces": "count",
    "encoding.enumerate_s": "s",
    "encoding.build_trace_s": "s",
    "encoding.truncated_segments": "count",
    "encoding.trace_cache_hit_ratio": "1",
    "encoding.merge_s": "s",
    "progression.progress_s": "s",
    "progression.calls": "count",
    "progression.pairs_out": "count",
    "progression.plan_cache_hit_ratio": "1",
    "progression.raw_repeat_share": "1",
    "progression.word_repeat_share": "1",
    "monitor.fold_s": "s",
    "monitor.segments": "count",
    "monitor.peak_carried": "count",
    "service.open_s": "s",
    "service.observe_s": "s",
    "service.advance_s": "s",
    "service.finish_s": "s",
    "service.worker_compute_s": "s",
    "service.overhead_s": "s",
    "service.steals": "count",
    "transport.encode_s": "s",
    "transport.decode_s": "s",
    "transport.frames": "count",
    "transport.bytes_out": "B",
    "transport.bytes_in": "B",
    "faults.frames_sent": "count",
    "faults.frames_dropped": "count",
    "retry.attempts": "count",
    "retry.timeouts": "count",
    "session.recoveries": "count",
    "session.checkpoints": "count",
    "service.quarantined": "count",
    "faults.stall_per_drop_s": "s",
    "trace.unaccounted_s": "s",
    "trace.overhead_ratio": "1",
}
ENGINE_LAYERS = (
    "distributed.", "encoding.", "progression.", "monitor.",
)


def log(message: str) -> None:
    print(message, flush=True)


def spawn_pass(workload: str, seed: int, mode: str) -> dict:
    """Run one pass in a fresh interpreter and return its result."""
    command = [sys.executable, str(HERE / "workloads.py"), workload, str(seed), mode]
    done = subprocess.run(command, capture_output=True, text=True, timeout=PASS_TIMEOUT)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} pass failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def nearest_rank(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def reference(workload: str, seed: int) -> tuple[list[dict], float | None]:
    """The expected verdict multisets, one per session (or the pinned one),
    and for session workloads the in-process compute time of the replay."""
    if workload == "offline_carried":
        return [OFFLINE_PINNED], None
    results, compute = replay_session_plan(workload, seed)
    return [verdict_counts(r) for r in results], compute


def check_verdicts(expected: list[dict], passes: list[dict]) -> list[str]:
    problems: list[str] = []
    for number, result in enumerate(passes):
        if result["verdicts"] != expected:
            bad = [
                i for i, (got, want) in enumerate(zip(result["verdicts"], expected))
                if got != want
            ] or "all"
            problems.append(f"pass {number}: verdict multiset mismatch (sessions {bad})")
        if any(result.get("outstanding", ())):
            problems.append(
                f"pass {number}: outstanding counters leaked: {result['outstanding']}"
            )
    return problems


def end_to_end(passes: list[dict], setups: list[float]) -> tuple[dict, str]:
    """Set-up is the median over set-ups and memory the peak.  The other
    timings are taken per pass, and the run reports its slowest pass's.

    The host's cores switch between full speed and about 0.6 of it for
    seconds to minutes at a time, and the share of time spent slow drifts
    over tens of minutes.  The median pass flips between the two speeds
    as that share crosses a half; the fastest pass is lost when a run
    gets no fast spell.  Nearly every run has a slow pass, and the slow
    speed is steady, so the slowest pass moved least from run to run
    (README.md, "Noise")."""
    advances = len(passes[0]["advance_s"])
    beyond = advances - math.ceil(TAIL_Q * advances)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": max(p["wall_s"] for p in passes),
        "advance_p50_ms": 1000.0 * max(nearest_rank(p["advance_s"], 0.5) for p in passes),
        "advance_tail_ms": 1000.0 * max(nearest_rank(p["advance_s"], TAIL_Q) for p in passes),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    note = (
        f"advance_tail_ms is p{100 * TAIL_Q:.0f} of {advances} advances per pass "
        f"({beyond} beyond it), {len(passes)} passes; setup_s over {len(setups)} set-ups"
    )
    return metrics, note


def traced_layers(
    workload: str, seed: int, untraced: list[dict], traced: list[dict], compute: float | None
) -> dict:
    layers = {name: 0.0 for name in PER_LAYER}
    for name in PER_LAYER:
        values = [p["layers"][name] for p in traced if name in p["layers"]]
        if values:
            layers[name] = statistics.median(values)
    untraced_wall = max(p["wall_s"] for p in untraced)
    traced_wall = max(p["wall_s"] for p in traced)
    layers["trace.overhead_ratio"] = traced_wall / untraced_wall
    if workload != "offline_carried":
        # The workers' share of the live path, measured in-process: the
        # same streams and boundaries through OnlineMonitor, once plain
        # (the reference run: worker compute) and once traced (the engine
        # layers).
        from layertrace import Tracer

        tracer = Tracer()
        results, traced_compute = replay_session_plan(workload, seed, tracer)
        for name, value in tracer.engine_layers(results).items():
            layers[name] = value
        layers["service.worker_compute_s"] = compute
        layers["service.overhead_s"] = (
            layers["service.advance_s"] + layers["service.finish_s"] - compute
        )
        log(
            f"  in-process replay: {compute:.4f} s plain, {traced_compute:.4f} s traced, "
            f"unaccounted {tracer.unaccounted(traced_compute):.4f} s"
        )
    return layers


def shares(workload: str, layers: dict, lossy_walls: tuple[float, float] | None) -> tuple[float, str]:
    """The dominant layer's share of its path, and whether it dominates."""
    engine = sum(v for k, v in layers.items() if k.endswith("_s") and k.startswith(ENGINE_LAYERS))
    if workload == "offline_carried":
        part = layers["progression.progress_s"] + layers["encoding.merge_s"]
        whole = engine
    elif workload == "session_dense":
        part, whole = layers["progression.progress_s"], engine
    elif workload == "session_fanout":
        part = layers["service.overhead_s"]
        whole = layers["service.advance_s"] + layers["service.finish_s"]
    else:
        lossy, clean = lossy_walls
        part, whole = lossy - clean, lossy
    share = part / whole if whole else 0.0
    return share, DOMINANT[workload]


def run(workload: str, seed: int, seconds: int, trace: bool) -> int:
    log(
        f"workload {workload}, seed {seed} (held-out seed {HELD_OUT_SEED}), "
        f"{seconds} s, 1 client thread, {os.cpu_count()} cpu(s), trace={int(trace)}"
    )
    untraced: list[dict] = []
    traced: list[dict] = []
    deadline = time.monotonic() + seconds
    while not untraced or time.monotonic() < deadline:
        untraced.append(spawn_pass(workload, seed, "plain"))
        if trace:
            traced.append(spawn_pass(workload, seed, "traced"))
        log(
            f"  pass {len(untraced) - 1}: wall {untraced[-1]['wall_s']:.4f} s, "
            f"setup {untraced[-1]['setup_s']:.4f} s"
        )
    setups = [p["setup_s"] for p in untraced]
    while not trace and len(setups) < MIN_SETUPS:
        setups.append(spawn_pass(workload, seed, "setup")["setup_s"])
    clean_wall = None
    if trace and workload == "session_lossy":
        clean_wall = spawn_pass(workload, seed, "clean")["wall_s"]
    e2e, note = end_to_end(untraced, setups)
    every = untraced + traced
    attempted = sum(p["attempted"] for p in every)
    failed = sum(p["failed"] for p in every)
    expected, compute = reference(workload, seed)
    problems = check_verdicts(expected, every)
    for problem in problems:
        log(f"  MISMATCH {problem}")
    log(f"  {note}; failed_ratio {failed / attempted:.6f} ({failed} of {attempted} calls)")

    if trace:
        layers = traced_layers(workload, seed, untraced, traced, compute)
        if clean_wall is not None:
            drops = layers["faults.frames_dropped"]
            stall = e2e["wall_s"] - clean_wall
            layers["faults.stall_per_drop_s"] = stall / drops if drops else 0.0
            log(f"  lossy wall {e2e['wall_s']:.3f} s vs clean {clean_wall:.3f} s")
        share, dominant = shares(
            workload, layers, (e2e["wall_s"], clean_wall) if clean_wall is not None else None
        )
        verdict = "agrees" if share > 0.5 else f"DISAGREES on {workload}"
        log(f"  dominant layer ({dominant}) share {share:.1%}: {verdict} with README")
        for name, unit in PER_LAYER.items():
            log(f"  {name:<34} {layers[name]:>14.6g} {unit}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        for name, unit in END_TO_END.items():
            log(f"  {name:<16} {e2e[name]:>12.6g} {unit}")
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}

    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (HERE.parent / "src" / "repro").is_dir():
        print(f"no program to measure: {HERE.parent / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
