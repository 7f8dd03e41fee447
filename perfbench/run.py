"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 20 --trace 0

``--trace 0`` runs timed passes with no instrumentation until ``--seconds``
have passed and reports the end-to-end metrics.  ``--trace 1`` runs one
pass without probes and one traced pass over the same inputs and reports
the per-layer metrics (see ``perfbench/layers.py``).  Either way the
correctness gate runs, a provenance record is printed, and the last line of
standard output is one JSON object::

    {"correct": true, "attempted": 338, "failed": 0, "metrics": {...}}

The exit code is 0 when the gate passes and 1 when it fails; 2 means the
benchmark could not run at all (for example, no ``src/repro`` checkout).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for caches and cluster directories, removed after a run.
WORK = ".perfbench_work"
#: Fresh processes that time the set-up; ``setup_s`` is their median.
SETUP_SAMPLES = 5
READY = "perfbench-setup-ready"

#: End-to-end metric units, in the order they are printed.
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "scenarios_per_s": "1/s",
    "scenario_p50_s": "s",
    "scenario_p94_s": "s",
    "s_per_pair": "s",
    "events_per_pair": "count",
    "peak_rss_mb": "MiB",
}


def ensure_importable() -> bool:
    """Put the checkout's ``src`` and root on ``sys.path``; ``False`` when
    the checkout holds no ``src/repro`` package."""
    if not (ROOT / "src" / "repro" / "runtime" / "__init__.py").is_file():
        return False
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    return True


# ---------------------------------------------------------------------- #
# Provenance
# ---------------------------------------------------------------------- #
def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git;
    ``"unknown"`` outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over every ``src/repro`` Python file (path and content), so a
    record identifies the code even where ``.git`` is absent."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, backends: list[str], probe_s: float) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "backends_run": backends,
        "host.probe_s": probe_s,
    }


# ---------------------------------------------------------------------- #
# Set-up timing
# ---------------------------------------------------------------------- #
def remove_work_dir(work_dir: Path) -> None:
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        work_dir.parent.rmdir()
    except OSError:
        pass  # another run still uses it


def make_workload(name: str, seed: int, scale, work_dir: Path):
    from perfbench import workloads

    return workloads.WORKLOADS[name](seed, scale, work_dir)


def setup_only(args) -> int:
    """Child mode: set the workload up, say so, clean up and exit."""
    from perfbench.workloads import FULL, GridResume

    work_dir = ROOT / WORK / f"setup-{os.getpid()}"
    try:
        workload = make_workload(args.workload, args.seed, FULL, work_dir)
        if isinstance(workload, GridResume):
            workload.open(work_dir / "cluster")
        print(READY, flush=True)
    finally:
        remove_work_dir(work_dir)
    return 0


def measure_setup(args) -> list[float]:
    """Raw host seconds from spawning a fresh interpreter to the workload
    being set up, over :data:`SETUP_SAMPLES` sequential processes."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as child:
            line = child.stdout.readline()
            ready = perf_counter()
            child.stdout.read()
            code = child.wait()
        if line.strip() != READY or code != 0:
            raise RuntimeError(f"set-up process exited with code {code}")
        samples.append(ready - started)
    return samples


# ---------------------------------------------------------------------- #
# Correctness gate
# ---------------------------------------------------------------------- #
def outcome_problems(outcome) -> list[str]:
    """Why ``outcome`` fails the gate: not ``ok``, or rejected by
    ``validate_outcome``."""
    from repro.runtime.guard import validate_outcome

    if not outcome.ok:
        return [f"status {outcome.status}: {outcome.error}"]
    return validate_outcome(outcome)


def gate(passes) -> tuple[int, int, list[str]]:
    """Check every pass; returns ``(attempted, failed, problems)``.

    Each pass must hold only valid ``ok`` outcomes and equal the first
    pass field for field: the passes simulate identical inputs, and in a
    traced run the second pass is the traced one.
    """
    attempted = failed = 0
    problems: list[str] = []
    for number, run in enumerate(passes):
        attempted += len(run.outcomes)
        for outcome in run.outcomes:
            bad = outcome_problems(outcome)
            failed += bool(bad)
            problems.extend(f"{outcome.scenario_name}: {problem}"
                            for problem in bad)
        problems.extend(run.problems)
        if run.outcomes != passes[0].outcomes:
            differing = [mine.scenario_name for mine, theirs
                         in zip(run.outcomes, passes[0].outcomes)
                         if mine != theirs]
            problems.append(f"pass {number} differs from pass 0 in "
                            f"{differing or 'its scenario list'}")
    return attempted, failed, problems


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #
def tail_percentile(samples: list[float]) -> float:
    """The highest order statistic with at least ten samples beyond it
    (the 159th of 169: p94); the maximum when there are fewer than 11."""
    ordered = sorted(samples)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def end_to_end_metrics(passes, setup_samples, probe_s: float) -> dict:
    """End-to-end metrics over identical timed passes.

    Host noise also comes in bursts of a few seconds, so every time is
    composed of medians: each scenario's time is its median over the
    passes, ``wall_s`` is the sum of those medians plus the median time
    the passes spent outside any scenario, and the percentiles are taken
    over the per-scenario medians.  All times are at the reference host
    speed (``perfbench/hostspeed.py``).  Set-up runs in other processes,
    so its median is rescaled by ``probe_s``, the median probe of the
    passes that follow it: probes in the waiting parent, or in a child
    before its imports, tracked the child's speed worse than that.
    """
    from perfbench.hostspeed import REFERENCE_PROBE_S
    from perfbench.workloads import delivered_pairs

    scenario_s = {name: statistics.median(run.scenario_s[name]
                                          for run in passes)
                  for name in passes[0].scenario_s}
    wall = sum(scenario_s.values()) + statistics.median(
        run.other_s for run in passes)
    outcomes = passes[0].outcomes
    # A chain pass without pairs already fails the gate; elsewhere a tiny
    # test-scale pass may deliver none.
    pairs = max(sum(delivered_pairs(outcome) for outcome in outcomes), 1)
    events = sum(outcome.events_processed for outcome in outcomes)
    values = {
        "wall_s": wall,
        "setup_s": (statistics.median(setup_samples) * REFERENCE_PROBE_S
                    / probe_s),
        "scenarios_per_s": len(outcomes) / wall,
        "scenario_p50_s": statistics.median(scenario_s.values()),
        "scenario_p94_s": tail_percentile(list(scenario_s.values())),
        "s_per_pair": wall / pairs,
        "events_per_pair": events / pairs,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def timed_passes(workload, seconds: float) -> list:
    passes = []
    started = perf_counter()
    while not passes or perf_counter() - started < seconds:
        passes.append(workload.run_pass())
    return passes


def main(argv=None, scale=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not ensure_importable():
        print(f"perfbench: no src/repro package under {ROOT}",
              file=sys.stderr)
        return 2
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    if args.setup_only:
        return setup_only(args)
    scale = workloads.FULL if scale is None else scale

    setup_samples = [] if args.trace else measure_setup(args)
    work_dir = ROOT / WORK / str(os.getpid())
    try:
        workload = make_workload(args.workload, args.seed, scale, work_dir)
        workload.prepare()
        if args.trace:
            from perfbench import layers

            untraced = workload.run_pass()
            traced, probes = layers.traced_pass(workload)
            passes = [untraced, traced]
        else:
            passes = timed_passes(workload, args.seconds)
    finally:
        remove_work_dir(work_dir)
    probe_s = statistics.median(run.probe_s for run in passes)
    if args.trace:
        metrics = layers.per_layer_metrics(probes, traced, untraced, probe_s)
    else:
        metrics = end_to_end_metrics(passes, setup_samples, probe_s)
    attempted, failed, problems = gate(passes)
    for problem in problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    backends = sorted({outcome.backend for outcome in passes[0].outcomes})
    print(json.dumps({"provenance": provenance(args, backends, probe_s)}))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
