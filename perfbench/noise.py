"""How steady is each way of summing up a run's passes on this host?

    python3 perfbench/noise.py WORKLOAD SECONDS

Runs untraced passes of WORKLOAD (seed 1) back to back for SECONDS,
cuts them into 20 s windows, each standing for one benchmark run, and
prints the spread (interquartile range / median over the windows) of
each statistic of the windows' pass wall times and advance latencies.
README.md, "Noise", has the figures this gave when the benchmark was
built.
"""

from __future__ import annotations

import statistics
import sys
import time

from run import nearest_rank, spawn_pass

WINDOW_S = 20.0


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    workload, seconds = sys.argv[1], float(sys.argv[2])
    windows: list[list[dict]] = [[]]
    started = window_started = time.monotonic()
    while time.monotonic() - started < seconds:
        if time.monotonic() - window_started >= WINDOW_S:
            windows.append([])
            window_started = time.monotonic()
        windows[-1].append(spawn_pass(workload, 1, "plain"))
    windows.pop()  # cut short by the end of the series
    if len(windows) < 4:
        print("need at least four windows; give more seconds", file=sys.stderr)
        return 2

    def walls(passes):
        return [p["wall_s"] for p in passes]

    def medians(passes):
        return [nearest_rank(p["advance_s"], 0.5) for p in passes]

    statistics_of_a_run = {
        "fastest pass": lambda ps: min(walls(ps)),
        "median pass": lambda ps: statistics.median(walls(ps)),
        "mean pass": lambda ps: statistics.mean(walls(ps)),
        "slowest pass": lambda ps: max(walls(ps)),
        "largest per-pass median advance": lambda ps: max(medians(ps)),
        "pooled median advance": lambda ps: nearest_rank(
            [s for p in ps for s in p["advance_s"]], 0.5
        ),
        "pooled p90 advance": lambda ps: nearest_rank(
            [s for p in ps for s in p["advance_s"]], 0.9
        ),
        "median setup": lambda ps: statistics.median(p["setup_s"] for p in ps),
    }
    print(f"{workload}: {len(windows)} windows of {WINDOW_S:.0f} s, "
          f"{sum(map(len, windows))} passes")
    for name, statistic in statistics_of_a_run.items():
        print(f"  {name:<32} spread {spread([statistic(w) for w in windows]):.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
