"""Warm vs fresh backend throughput on a 64-scenario analytic grid.

The FEU turns a requested minimum fidelity into generation parameters
through a hardware-model table that depends only on the hardware scenario
and the alpha grid.  Every backend instance keeps the tables it built in
``feu_table_cache``, and named backends are per-process singletons
(``repro.backends.get_backend``), so a sweep builds each table once per
distinct hardware config instead of once per scenario.

This benchmark runs the same 64-scenario analytic grid two ways in one
process:

* **fresh** — every scenario on its own newly built ``AnalyticBackend()``,
  so every run rebuilds its FEU tables;
* **warm** — every scenario on the shared named ``"analytic"`` backend.

Both sides must produce equal summaries, request counts and event counts.
After one untimed warm pass (reported as ``warm_first_pass_seconds``, the
set-up a sweep pays once per process), the two sides alternate for
``SAMPLES`` timed passes; the record holds each side's median
scenarios/sec and their ratio in ``BENCH_bench_vectorized_grid.json``.
CI's perf guard fails when a fresh run's ratio drops below half of the
committed baseline's (a same-machine ratio, so absolute host speed does
not matter).
"""

from __future__ import annotations

import statistics
import time

from benchmarks.conftest import print_table, record_perf, scaled

#: Grid width — 64 scenarios in one process.
GRID = 64
#: Timed passes per side.
SAMPLES = 3


def _grid():
    from repro.runtime.scenarios import single_kind_scenarios

    specs = (single_kind_scenarios("Lab", backend="analytic")
             + single_kind_scenarios("QL2020", backend="analytic"))
    assert len(specs) >= GRID
    return specs[:GRID]


def _timed_pass(specs, seeds, duration, fresh):
    """Run the grid once; returns (wall seconds, per-scenario digests)."""
    from repro.backends import AnalyticBackend

    started = time.perf_counter()
    results = [spec.run(duration, seed=seed,
                        backend=AnalyticBackend() if fresh else None)
               for spec, seed in zip(specs, seeds)]
    wall = time.perf_counter() - started
    digests = [(result.summary, result.requests_issued,
                result.events_processed) for result in results]
    return wall, digests


def test_warm_backend_grid_speedup():
    specs = _grid()
    duration = scaled(0.5)
    seeds = [31_000 + index for index in range(len(specs))]

    first_wall, reference = _timed_pass(specs, seeds, duration, fresh=False)
    fresh_walls, warm_walls = [], []
    for _ in range(SAMPLES):
        wall, digests = _timed_pass(specs, seeds, duration, fresh=True)
        assert digests == reference
        fresh_walls.append(wall)
        wall, digests = _timed_pass(specs, seeds, duration, fresh=False)
        assert digests == reference
        warm_walls.append(wall)

    fresh_wall = statistics.median(fresh_walls)
    warm_wall = statistics.median(warm_walls)
    fresh_rate = len(specs) / fresh_wall
    warm_rate = len(specs) / warm_wall
    speedup = fresh_wall / warm_wall

    print_table(
        f"Warm vs fresh backend ({len(specs)} analytic scenarios, "
        f"{duration:.2f}s simulated each, median of {SAMPLES} passes)",
        ["path", "wall (s)", "scenarios/sec"],
        [["fresh backend per scenario", f"{fresh_wall:.2f}",
          f"{fresh_rate:.1f}"],
         ["warm shared backend", f"{warm_wall:.2f}", f"{warm_rate:.1f}"],
         ["first warm pass (builds tables)", f"{first_wall:.2f}", ""],
         ["speedup", "", f"{speedup:.2f}x"]])

    record_perf("bench_vectorized_grid", "test_warm_backend_grid_speedup",
                backend="analytic",
                grid_scenarios=len(specs),
                simulated_seconds=duration,
                samples=SAMPLES,
                fresh_scenarios_per_second=round(fresh_rate, 1),
                warm_scenarios_per_second=round(warm_rate, 1),
                fresh_pass_seconds=[round(w, 3) for w in fresh_walls],
                warm_pass_seconds=[round(w, 3) for w in warm_walls],
                warm_first_pass_seconds=round(first_wall, 3),
                speedup=round(speedup, 2))

    # Sanity floor only — the real regression guard is CI's ratio check
    # against the committed baseline.
    assert speedup > 1.5
