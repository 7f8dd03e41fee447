"""Warm process backend vs fresh backend: bit-identical outcomes.

Named backends are per-process singletons (``repro.backends.get_backend``)
and every backend instance keeps the FEU tables it built in its
``feu_table_cache``.  The contract under test: a scenario run on a warmed
singleton — tables built by earlier scenarios — is field-for-field equal to
the same ``(spec, seed)`` on a freshly built backend, for both physics
backends, for a repeater chain, and regardless of the order a sweep visits
its scenarios in.

Outcomes and cost models written while sweeps could run scenarios in
batched "cohorts" carry a ``cohort`` field or ``analytic#cohort`` rates;
those records must still load unchanged.
"""

from __future__ import annotations

import json
import random

import pytest

import repro.backends as backends
from repro.backends import AnalyticBackend, DensityMatrixBackend, get_backend
from repro.cluster.planner import RecordedCostModel, plan_shards
from repro.cluster.sinks import ColumnarResultSink, JsonlResultSink, load_results
from repro.core.feu import FidelityEstimationUnit
from repro.core.messages import Priority
from repro.hardware.parameters import lab_scenario
from repro.runtime import ScenarioSpec, SweepRunner, WorkloadSpec, chain_grid
from repro.runtime.cache import ResumeCache
from repro.runtime.scenarios import single_kind_scenarios
from repro.runtime.sweep import ScenarioOutcome, execute_scenario

DURATION = 0.2


def mixed_grid(backend: str) -> list:
    """A small grid over both hardware setups and all three request kinds."""
    common = dict(loads=("High",), max_pairs_options=(1,), origins=("A",),
                  include_md_k255=False, backend=backend)
    return (single_kind_scenarios("Lab", kinds=("NL", "CK", "MD"), **common)
            + single_kind_scenarios("QL2020", kinds=("CK", "MD"), **common))


def analytic_grid(count: int) -> list:
    """First ``count`` scenarios of the analytic long-run grid (both
    hardware setups, so counts beyond one setup's 63 are available)."""
    specs = (single_kind_scenarios("Lab", backend="analytic")
             + single_kind_scenarios("QL2020", backend="analytic"))
    assert len(specs) >= count
    return specs[:count]


def assert_run_equals(result, reference):
    assert result.summary == reference.summary
    assert result.events_processed == reference.events_processed
    assert result.requests_issued == reference.requests_issued


def fresh_outcome(monkeypatch, spec, seed, duration=DURATION):
    """``execute_scenario`` on a backend instance built just for this run."""
    with monkeypatch.context() as patch:
        patch.setattr(backends, "_INSTANCES", {})
        return execute_scenario(spec, seed, duration)


def assert_identical(warm, fresh):
    assert warm.ok and fresh.ok
    # Dataclass equality covers summary, seed, backend, event count, hops
    # and end-to-end stats; elided events are provenance, checked apart.
    assert warm == fresh
    assert warm.events_elided == fresh.events_elided


class TestFeuTableCache:
    def test_cache_is_per_instance(self):
        for cls in (AnalyticBackend, DensityMatrixBackend):
            assert "feu_table_cache" not in vars(cls)
            assert cls().feu_table_cache is not cls().feu_table_cache
        assert (get_backend("analytic").feu_table_cache
                is not get_backend("density").feu_table_cache)

    def test_feus_share_one_table_per_backend(self):
        backend = AnalyticBackend()
        first = FidelityEstimationUnit(lab_scenario(), backend=backend)
        second = FidelityEstimationUnit(lab_scenario(), backend=backend)
        assert second._table is first._table
        assert len(backend.feu_table_cache) == 1
        other = FidelityEstimationUnit(lab_scenario(),
                                       backend=AnalyticBackend())
        assert other._table is not first._table
        assert other._table == first._table


class TestWarmEqualsFresh:
    @pytest.mark.parametrize("backend", ["analytic", "density"])
    def test_grid_on_warm_singleton_equals_fresh_backend(self, backend,
                                                         monkeypatch):
        specs = mixed_grid(backend)
        seeds = [500 + index for index in range(len(specs))]
        # Warm the process singleton on the whole grid first, so every
        # compared run reuses tables some other scenario built.
        for spec, seed in zip(specs, seeds):
            execute_scenario(spec, seed + 1000, DURATION)
        cache = get_backend(backend).feu_table_cache
        assert {spec.scenario for spec in specs} <= \
            {scenario for scenario, _ in cache}
        for spec, seed in zip(specs, seeds):
            warm = execute_scenario(spec, seed, DURATION)
            assert_identical(warm, fresh_outcome(monkeypatch, spec, seed))

    def test_chain_on_warm_singleton_equals_fresh_backend(self, monkeypatch):
        (spec,) = chain_grid(lengths=(3,), loads=("Ultra",),
                             backend="analytic")
        execute_scenario(spec, 8, 0.4)
        warm = execute_scenario(spec, 9, 0.4)
        fresh = fresh_outcome(monkeypatch, spec, 9, duration=0.4)
        assert_identical(warm, fresh)
        assert warm.end_to_end is not None and warm.hops

    @pytest.mark.parametrize("size", [1, 7, 64])
    def test_grid_prefix_on_warm_singleton_equals_fresh_runs(self, size):
        specs = analytic_grid(size)
        seeds = [9000 + index for index in range(size)]
        warm = [spec.run(DURATION, seed=seed)
                for spec, seed in zip(specs, seeds)]
        for spec, seed, result in zip(specs, seeds, warm):
            assert_run_equals(result, spec.run(DURATION, seed=seed,
                                               backend=AnalyticBackend()))

    def test_same_seed_repeats_and_other_seed_differs(self):
        # The warm cache holds tables only, never random state: a repeated
        # (spec, seed) reproduces itself and a new seed draws new physics.
        spec = analytic_grid(1)[0]
        twin_a = spec.run(DURATION, seed=42)
        twin_b = spec.run(DURATION, seed=42)
        other = spec.run(DURATION, seed=43)
        assert_run_equals(twin_a, twin_b)
        assert (other.summary != twin_a.summary
                or other.events_processed != twin_a.events_processed)

    def test_mixed_durations_on_warm_singleton_equal_fresh_runs(self):
        specs = analytic_grid(3)
        for spec, seed, duration in zip(specs, (1, 2, 3), (0.07, 0.31, 0.2)):
            assert_run_equals(spec.run(duration, seed=seed),
                              spec.run(duration, seed=seed,
                                       backend=AnalyticBackend()))

    def test_explicit_backend_instance_reuse_is_exact(self):
        # A caller-owned instance passed to consecutive runs warms up just
        # like the named singleton does.
        specs = analytic_grid(2)
        backend = AnalyticBackend()
        for spec, seed in zip(specs, (5, 6)):
            spec.run(DURATION, seed=seed, backend=backend)
        assert len(backend.feu_table_cache) == 1
        for spec, seed in zip(specs, (5, 6)):
            assert_run_equals(spec.run(DURATION, seed=seed, backend=backend),
                              spec.run(DURATION, seed=seed,
                                       backend=AnalyticBackend()))


class TestFailureIsolation:
    def test_failing_scenario_leaves_warm_backend_intact(self, monkeypatch):
        good = analytic_grid(2)
        broken = ScenarioSpec(
            name="broken", scenario=lab_scenario(),
            workload=(WorkloadSpec(priority=Priority.MD, load_fraction=0.9),),
            scheduler="NoSuchScheduler", backend="analytic")
        first = execute_scenario(good[0], 11, DURATION)
        failed = execute_scenario(broken, 12, DURATION)
        second = execute_scenario(good[1], 13, DURATION)
        assert failed.status == "error"
        assert "NoSuchScheduler" in failed.error
        assert_identical(first, fresh_outcome(monkeypatch, good[0], 11))
        assert_identical(second, fresh_outcome(monkeypatch, good[1], 13))

    def test_interrupted_table_build_caches_nothing(self, monkeypatch):
        backend = AnalyticBackend()
        real = backend.attempt_model
        calls = []

        def flaky(scenario, alpha):
            calls.append(alpha)
            if len(calls) == 3:
                raise MemoryError("injected")
            return real(scenario, alpha)

        monkeypatch.setattr(backend, "attempt_model", flaky)
        with pytest.raises(MemoryError):
            FidelityEstimationUnit(lab_scenario(), backend=backend)
        assert backend.feu_table_cache == {}
        # The next FEU builds the whole table from scratch, equal to one
        # built on an untouched backend.
        rebuilt = FidelityEstimationUnit(lab_scenario(), backend=backend)
        reference = FidelityEstimationUnit(lab_scenario(),
                                           backend=AnalyticBackend())
        assert rebuilt._table == reference._table
        assert list(backend.feu_table_cache.values()) == [rebuilt._table]


class TestSweepOrder:
    def test_shuffled_and_sorted_grids_agree(self, monkeypatch):
        specs = sorted(mixed_grid("analytic"), key=lambda spec: spec.name)
        shuffled = list(specs)
        random.Random(4).shuffle(shuffled)
        assert shuffled != specs

        def sweep(grid):
            # A fresh singleton per sweep: the visiting order decides which
            # scenario builds each table.
            with monkeypatch.context() as patch:
                patch.setattr(backends, "_INSTANCES", {})
                result = SweepRunner(grid, DURATION, master_seed=13,
                                     seed_key=lambda spec: spec.name).run()
            return {outcome.scenario_name: outcome
                    for outcome in result.outcomes}

        in_order, out_of_order = sweep(specs), sweep(shuffled)
        assert in_order == out_of_order
        assert all(outcome.ok for outcome in in_order.values())


class TestWarmSweeps:
    def grid(self):
        specs = analytic_grid(6)
        # A density scenario on the same hardware: its tables live in the
        # density singleton and never mix with the analytic ones.
        density = ScenarioSpec(name="density_straggler",
                               scenario=specs[0].scenario,
                               workload=specs[0].workload, backend="density")
        return specs + [density]

    def test_mixed_backend_sweep_equals_fresh_runs(self, monkeypatch):
        result = SweepRunner(self.grid(), DURATION, master_seed=77).run()
        for spec, outcome in zip(self.grid(), result.outcomes):
            assert_identical(outcome, fresh_outcome(monkeypatch, spec,
                                                    outcome.seed))
        assert result.outcomes[-1].backend == "density"

    def test_pool_sweep_equals_serial_sweep(self):
        # Each pool process warms its own singletons.
        specs = self.grid()
        serial = SweepRunner(specs, DURATION, master_seed=77).run()
        pooled = SweepRunner(specs, DURATION, master_seed=77,
                             workers=2).run()
        assert pooled.outcomes == serial.outcomes

    def test_sweep_resumes_from_cache(self, tmp_path):
        specs = analytic_grid(4)
        first = SweepRunner(specs, DURATION, master_seed=3,
                            cache_dir=tmp_path).run()
        rerun = SweepRunner(specs, DURATION, master_seed=3,
                            cache_dir=tmp_path)
        second = rerun.run()
        assert all(outcome.from_cache for outcome in second.outcomes)
        assert second.outcomes == first.outcomes
        assert rerun.cache_report().counts()["hits"] == 4

    def test_cluster_workers_match_serial_sweep(self, tmp_path, monkeypatch):
        from repro.cluster import ClusterCoordinator, ClusterWorker

        specs = analytic_grid(12)
        serial = SweepRunner(specs, DURATION, master_seed=77).run()
        # Both in-process workers share one fresh singleton.
        monkeypatch.setattr(backends, "_INSTANCES", {})
        coordinator = ClusterCoordinator(
            specs, DURATION, tmp_path / "cluster", master_seed=77,
            num_shards=2, lease_timeout=120.0)
        coordinator.write_plan()
        workers = [ClusterWorker(coordinator.cluster_dir, "w0", shard=0),
                   ClusterWorker(coordinator.cluster_dir, "w1", shard=1)]
        for _ in range(100):
            if all(worker.step() is None for worker in workers):
                break
        for worker in workers:
            worker.close()
        assert coordinator.is_complete()
        assert coordinator.merge().outcomes == serial.outcomes
        assert get_backend("analytic").feu_table_cache


class TestLegacyCohortRecords:
    @pytest.fixture(scope="class")
    def run(self):
        spec = mixed_grid("analytic")[0]
        outcome = execute_scenario(spec, 3, DURATION)
        assert outcome.ok
        return spec, outcome

    def test_resume_cache_entry_with_cohort_loads(self, run, tmp_path):
        spec, outcome = run
        cache = ResumeCache(tmp_path)
        cache.store(spec, outcome, DURATION)
        path = cache.path(spec, 3, DURATION)
        data = json.loads(path.read_text())
        data["outcome"]["cohort"] = 4
        path.write_text(json.dumps(data))
        loaded, reason = cache.load(spec, 3, DURATION)
        assert reason is None
        assert loaded == outcome and loaded.from_cache

    def test_jsonl_record_with_cohort_loads(self, run, tmp_path):
        _, outcome = run
        path = tmp_path / "part.jsonl"
        sink = JsonlResultSink(path)
        sink.write(0, outcome)
        sink.close()
        header, line = path.read_text().splitlines()
        record = json.loads(line)
        record["outcome"]["cohort"] = 4
        path.write_text(header + "\n" + json.dumps(record) + "\n")
        assert load_results(path) == [(0, outcome)]

    def test_columnar_segment_with_cohort_column_loads(self, run, tmp_path):
        _, outcome = run
        path = tmp_path / "part.columnar"
        sink = ColumnarResultSink(path)
        sink.write(0, outcome)
        sink.close()
        (path / "seg-000000" / "cohort.json").write_text(json.dumps([4]))
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["columns"] = sorted(manifest["columns"] + ["cohort"])
        (path / "manifest.json").write_text(json.dumps(manifest))
        assert load_results(path) == [(0, outcome)]

    def test_cost_model_with_cohort_rates_keeps_solo_estimates(self, run,
                                                                tmp_path):
        spec, outcome = run
        specs = mixed_grid("analytic")
        model = RecordedCostModel()
        assert model.observe(outcome)
        data = model.to_dict()
        data["rates"].append({"scenario": spec.name,
                              "backend": "analytic#cohort",
                              "rates": [outcome.wall_time / DURATION / 8]})
        path = tmp_path / "cost_model.json"
        path.write_text(json.dumps(data))
        loaded = RecordedCostModel.load(path)
        for other in specs:
            assert loaded.estimate(other, 1.0) == model.estimate(other, 1.0)
        assert (plan_shards(specs, 2, 1.0, cost_model=loaded)
                == plan_shards(specs, 2, 1.0, cost_model=model))

    def test_legacy_cohort_outcome_is_observed_as_solo(self, run):
        spec, outcome = run
        data = outcome.to_dict()
        data["cohort"] = 8
        legacy = ScenarioOutcome.from_dict(data)
        assert legacy == outcome
        model = RecordedCostModel()
        assert model.observe(legacy)
        assert model.recorded_rate(spec) == pytest.approx(
            outcome.wall_time / DURATION)
