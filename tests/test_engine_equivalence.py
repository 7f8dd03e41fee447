"""Queue-configuration and timer-elision equivalence.

Every queue configuration of ``conftest.QUEUE_FACTORIES`` must drive the
same simulation as the default heap: for a given scenario, seed and
physics backend the executed ``(time, name)`` sequence is identical, so
compaction timing and a caller's wrapper around the queue cannot change a
result.

Reply-watchdog elision is bit-identical — the watchdog never fires at zero
frame loss, so the executed ``(time, name)`` sequence is unchanged — and
GEN/REPLY timer elision preserves every delivered outcome while strictly
shrinking the event count.
"""

from __future__ import annotations

import pytest

from repro.core.messages import Priority
from repro.hardware.parameters import lab_scenario, ql2020_scenario
from repro.runtime.runner import SimulationRun
from repro.runtime.workload import WorkloadSpec

MIXED_WORKLOAD = [
    WorkloadSpec(priority=Priority.CK, load_fraction=0.99, max_pairs=1,
                 min_fidelity=0.6),
    WorkloadSpec(priority=Priority.MD, load_fraction=0.6, max_pairs=3,
                 min_fidelity=0.55),
]


def mixed_run(duration, *, backend, attach=None, seed=12345, batch=40,
              **kwargs):
    """Run the QL2020 mixed workload; ``attach(engine)`` (for example the
    ``log_executed`` fixture) may hook the engine before the run starts.
    Returns the result and whatever ``attach`` returned."""
    run = SimulationRun(ql2020_scenario(), MIXED_WORKLOAD, seed=seed,
                        attempt_batch_size=batch, backend=backend, **kwargs)
    hooked = attach(run.network.engine) if attach is not None else None
    return run.run(duration), hooked


def traced_run(scenario, workload, duration, log_executed, *, backend,
               seed=12345, batch=40, **kwargs):
    """Run one simulation recording the executed-event trace."""
    run = SimulationRun(scenario, workload, seed=seed,
                        attempt_batch_size=batch, backend=backend, **kwargs)
    trace = log_executed(run.network.engine)
    return run.run(duration), trace


#: The configurations compared against the default heap.
ALTERNATIVE_QUEUES = pytest.mark.parametrize(
    "queue_factory", ["eager-compaction", "contract-proxy"], indirect=True)


@ALTERNATIVE_QUEUES
class TestTraceEquivalence:
    """Event-for-event identical traces on every queue configuration."""

    @pytest.mark.parametrize("backend", ["analytic", "density"])
    def test_smoke_ql2020_mixed_traces_identical(self, backend,
                                                 queue_factory,
                                                 log_executed):
        duration = 0.6 if backend == "analytic" else 0.2
        reference, ref_trace = traced_run(
            ql2020_scenario(), MIXED_WORKLOAD, duration, log_executed,
            backend=backend)
        assert ref_trace, "reference run executed no events"
        result, trace = traced_run(
            ql2020_scenario(), MIXED_WORKLOAD, duration, log_executed,
            backend=backend, engine=queue_factory())
        assert trace == ref_trace
        assert result.events_processed == reference.events_processed
        assert result.summary == reference.summary

    def test_lab_single_kind_traces_identical(self, queue_factory,
                                              log_executed):
        workload = [WorkloadSpec(priority=Priority.CK, load_fraction=0.99,
                                 max_pairs=3, min_fidelity=0.6)]
        _, ref_trace = traced_run(lab_scenario(), workload, 1.0,
                                  log_executed, backend="analytic")
        assert ref_trace
        _, trace = traced_run(lab_scenario(), workload, 1.0, log_executed,
                              backend="analytic", engine=queue_factory())
        assert trace == ref_trace

    def test_traces_identical_with_reference_scheduling(self, queue_factory,
                                                        log_executed):
        """Equivalence holds for the un-elided reference pattern too."""
        _, ref_trace = traced_run(
            ql2020_scenario(), MIXED_WORKLOAD, 0.5, log_executed,
            backend="analytic", elide_watchdog=False, timer_elision=False)
        assert ref_trace
        _, trace = traced_run(
            ql2020_scenario(), MIXED_WORKLOAD, 0.5, log_executed,
            backend="analytic", elide_watchdog=False, timer_elision=False,
            engine=queue_factory())
        assert trace == ref_trace

    def test_frame_loss_traces_identical(self, queue_factory, log_executed):
        """The robustness path (loss > 0, watchdogs active) is equivalent
        as well."""
        scenario = lab_scenario().with_frame_loss(1e-3)
        workload = [WorkloadSpec(priority=Priority.MD, load_fraction=0.99,
                                 max_pairs=3, min_fidelity=0.6)]
        _, ref_trace = traced_run(scenario, workload, 1.0, log_executed,
                                  backend="analytic", batch=1)
        assert ref_trace
        _, trace = traced_run(scenario, workload, 1.0, log_executed,
                              backend="analytic", batch=1,
                              engine=queue_factory())
        assert trace == ref_trace


class TestWatchdogElision:
    """Satellite: at zero frame loss the REPLY provably arrives, so the
    watchdog may be skipped with bit-identical outcomes."""

    @pytest.mark.parametrize("backend", ["analytic", "density"])
    def test_bit_identical_with_and_without_watchdog(self, backend,
                                                     log_executed):
        duration = 0.6 if backend == "analytic" else 0.2
        with_wd, log_with = mixed_run(duration, backend=backend,
                                      attach=log_executed,
                                      elide_watchdog=False)
        without_wd, log_without = mixed_run(duration, backend=backend,
                                            attach=log_executed,
                                            elide_watchdog=True)
        # The watchdog is always cancelled before firing, so the *executed*
        # events are identical: same times and names in the same order.
        assert log_with
        assert log_with == log_without
        assert with_wd.events_processed == without_wd.events_processed
        assert with_wd.summary == without_wd.summary
        assert with_wd.requests_issued == without_wd.requests_issued

    def test_watchdog_still_fires_under_frame_loss(self):
        """The elision must auto-disable when frames can be lost."""
        scenario = lab_scenario().with_frame_loss(0.2)
        workload = [WorkloadSpec(priority=Priority.CK, load_fraction=0.99,
                                 max_pairs=1, min_fidelity=0.6)]
        run = SimulationRun(scenario, workload, seed=7, backend="analytic")
        egp = run.network.node_a.egp
        assert egp.elide_watchdog is False
        run.run(2.0)
        recoveries = (run.network.node_a.egp.statistics["lost_reply_recoveries"]
                      + run.network.node_b.egp.statistics["lost_reply_recoveries"])
        assert recoveries > 0  # the watchdog did its job


class TestTimerElision:
    """Satellite/tentpole: GEN/REPLY timer elision preserves outcomes while
    strictly reducing the event count."""

    @pytest.mark.parametrize("backend", ["analytic", "density"])
    def test_outcomes_preserved_and_events_reduced(self, backend):
        duration = 0.6 if backend == "analytic" else 0.2
        reference, _ = mixed_run(duration, backend=backend,
                                 elide_watchdog=False, timer_elision=False)
        elided, _ = mixed_run(duration, backend=backend)
        assert elided.summary == reference.summary
        assert elided.requests_issued == reference.requests_issued
        assert elided.events_processed < reference.events_processed
