"""The benchmark's three workloads.

Each workload is set up once per process (:meth:`__init__`, plus
:meth:`prepare` for untimed preparation) and then runs identical *passes*;
the benchmark reports medians over passes.  Everything runs serially in
this process: no pool, no worker subprocesses, no sockets.

The simulated inputs are fixed panels (:data:`PANEL_SEED`): a scenario's
seed never depends on ``--seed``.  Between seeds, the event counts of the
lossy robustness scenarios and of the 4- and 5-node chains differ by 2-5x,
and the chains deliver only about one end-to-end pair per host second, so
seed-driven panels would make every per-pass time and per-pair ratio vary
far more than the changes the benchmark must resolve.  ``--seed`` instead
sets the order in which a pass executes its scenarios (``paper_grid``,
``chain_storm``) or the home shard of the resuming worker, and so the
order in which it claims scenarios (``grid_resume``).  Results never
depend on order, which the correctness gate checks.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

from perfbench.hostspeed import Stopwatch
from repro.runtime import (
    chain_grid,
    derive_scenario_seeds,
    execute_scenario,
    paper_grid,
    run_sweep,
)

#: Master seed of every simulated panel (the repository's default seed).
PANEL_SEED = 12345


@dataclass(frozen=True)
class Scale:
    """How much work one pass does.  :data:`FULL` is the benchmark; tests
    use :data:`TINY`."""

    grid_size: Optional[int]      # first N paper-grid scenarios; None = 169
    grid_duration: float          # simulated seconds per grid scenario
    chain_lengths: tuple[int, ...]
    chain_duration: float


FULL = Scale(grid_size=None, grid_duration=0.2, chain_lengths=(3, 4, 5),
             chain_duration=1.0)
TINY = Scale(grid_size=4, grid_duration=0.02, chain_lengths=(3,),
             chain_duration=0.5)


@dataclass
class Pass:
    """One timed (or traced) pass over a workload's inputs.

    Times in ``scenario_s`` and ``other_s`` are rescaled to the reference
    host speed (see ``perfbench/hostspeed.py``); ``wall_s`` is raw.
    """

    #: Raw host seconds of the pass, probes excluded.
    wall_s: float
    #: Outcomes in the workload's canonical (scenario-name) order, so passes
    #: that ran in different orders compare element by element.
    outcomes: list
    #: Seconds per scenario name, from consecutive completion stamps.
    scenario_s: dict[str, float]
    #: Seconds of the pass outside any scenario.
    other_s: float
    #: Median host-speed probe during the pass.
    probe_s: float
    #: Raw seconds spent in the cluster calls the benchmark makes itself.
    cluster_s: dict = field(default_factory=dict)
    #: Correctness problems found by the workload itself.
    problems: list[str] = field(default_factory=list)

    @property
    def reference_s(self) -> float:
        """The pass's seconds at the reference host speed."""
        return sum(self.scenario_s.values()) + self.other_s


def _grid_specs(scale: Scale) -> list:
    specs = paper_grid(backend="analytic")
    return specs if scale.grid_size is None else specs[:scale.grid_size]


def _finish(watch: Stopwatch, outcomes, **extra) -> Pass:
    wall, scenario_s, other_s, probe_s = watch.finish()
    return Pass(wall, sorted(outcomes, key=lambda outcome:
                             outcome.scenario_name),
                scenario_s, other_s, probe_s, **extra)


class PaperGrid:
    """The 169-scenario paper grid through ``run_sweep(..., workers=1)``."""

    name = "paper_grid"

    def __init__(self, seed: int, scale: Scale, work_dir: Path) -> None:
        self.specs = _grid_specs(scale)
        random.Random(seed).shuffle(self.specs)
        self.duration = scale.grid_duration

    def prepare(self) -> None:
        pass

    def run_pass(self) -> Pass:
        watch = Stopwatch()
        # Seeds keyed by scenario name, not grid index, so the shuffled
        # order simulates exactly the same panel.
        result = run_sweep(self.specs, self.duration, master_seed=PANEL_SEED,
                           workers=1, seed_key=lambda spec: spec.name,
                           on_outcome=watch.stamp)
        return _finish(watch, result.outcomes)


class ChainStorm:
    """Swap-ASAP repeater chains through ``execute_scenario``."""

    name = "chain_storm"

    def __init__(self, seed: int, scale: Scale, work_dir: Path) -> None:
        specs = chain_grid(lengths=scale.chain_lengths, backend="analytic")
        seeds = derive_scenario_seeds(PANEL_SEED, len(specs))
        self.runs = list(zip(specs, seeds))
        random.Random(seed).shuffle(self.runs)
        self.duration = scale.chain_duration

    def prepare(self) -> None:
        pass

    def run_pass(self) -> Pass:
        outcomes = []
        watch = Stopwatch()
        for spec, seed in self.runs:
            outcomes.append(execute_scenario(spec, seed, self.duration))
            watch.stamp(outcomes[-1])
        run = _finish(watch, outcomes)
        if sum(delivered_pairs(outcome) for outcome in outcomes) == 0:
            run.problems.append("chain_storm delivered no end-to-end pair")
        return run


class GridResume:
    """The paper grid resumed from a full cache through the cluster path.

    A coordinator plans the grid into a fresh cluster directory and one
    in-process worker on the filesystem transport serves every scenario
    from the resume cache, writing leases, done markers and jsonl sink
    records; the pass ends with the coordinator's merge.
    """

    name = "grid_resume"
    #: Shards of the plan; the lone worker starts on its home shard and
    #: steals the rest.
    SHARDS = 3

    def __init__(self, seed: int, scale: Scale, work_dir: Path) -> None:
        from repro import cluster

        self.cluster = cluster
        self.specs = _grid_specs(scale)
        self.duration = scale.grid_duration
        self.work_dir = work_dir
        self.cache_dir = work_dir / "cache"
        self.home_shard = seed % self.SHARDS
        self.passes = 0
        self.reference = None

    def prepare(self) -> None:
        """Fill the resume cache (untimed; counts in no metric)."""
        self.reference = run_sweep(self.specs, self.duration,
                                   master_seed=PANEL_SEED, workers=1,
                                   cache_dir=self.cache_dir)

    def open(self, directory: Path, on_outcome=None):
        """Write the plan into ``directory`` and register a worker.

        Returns ``(coordinator, worker, seconds)`` with the seconds spent
        writing the plan (``plan``) and loading it (``plan_load``).
        """
        coordinator = self.cluster.ClusterCoordinator(
            self.specs, self.duration, directory, master_seed=PANEL_SEED,
            num_shards=self.SHARDS, cache_dir=self.cache_dir)
        started = perf_counter()
        coordinator.write_plan()
        planned = perf_counter()
        transport = self.cluster.FilesystemTransport(directory)
        loaded = perf_counter()
        worker = self.cluster.ClusterWorker(transport, worker_id="bench",
                                            shard=self.home_shard,
                                            on_outcome=on_outcome)
        return coordinator, worker, {"plan": planned - started,
                                     "plan_load": loaded - planned}

    def run_pass(self) -> Pass:
        directory = self.work_dir / f"cluster-{self.passes}"
        self.passes += 1
        watch = Stopwatch()
        coordinator, worker, seconds = self.open(directory,
                                                 on_outcome=watch.stamp)
        # Plan writing and registration belong to the pass, not to the
        # first scenario.
        watch.skip()
        worker.run()
        merging = perf_counter()
        merged = coordinator.merge()
        seconds["merge"] = perf_counter() - merging
        run = _finish(watch, merged.outcomes, cluster_s=seconds)
        if merged != self.reference:
            run.problems.append("grid_resume merged result differs from the "
                                "result that filled the cache")
        if len(worker.cache_report.hits) != len(self.specs):
            run.problems.append("grid_resume recomputed a cached scenario")
        shutil.rmtree(directory)
        return run


WORKLOADS = {workload.name: workload
             for workload in (PaperGrid, ChainStorm, GridResume)}


def delivered_pairs(outcome) -> int:
    """Pairs an outcome delivered: end-to-end pairs for a topology run,
    pairs over all request classes for a single link."""
    if outcome.end_to_end is not None:
        return int(outcome.end_to_end.get("pairs", 0))
    if outcome.summary is None:
        return 0
    return sum(outcome.summary.pairs_delivered.values())
