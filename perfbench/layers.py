"""Per-layer instrumentation for the traced benchmark run.

Every layer is timed from outside, at calls into its public API, so no file
under ``src/`` knows it is being measured:

* ``sim`` — a timing proxy around each run's :class:`EventQueue`, passed to
  the scenario as ``engine=``, plus a wrapper around
  :meth:`SimulationEngine.run`;
* ``backends`` — a timing proxy around the :class:`PhysicsBackend`, passed
  as ``backend=``; the attempt models it hands out are wrapped too, because
  the midpoint resolves attempts through them;
* ``runtime`` — wrappers around the two network constructors
  (:class:`SimulationRun` and :class:`TopologyRun`);
* ``core`` — a wrapper around ``FidelityEstimationUnit.__init__`` (the FEU
  tables) and the per-kind executed counts of a ``repro.obs`` Tracer;
* ``runtime.cache`` / ``cluster.sinks`` — wrappers around
  ``ResumeCache.load``/``store`` and the jsonl sink's ``write``;
* ``cluster`` — a timing proxy around every :class:`FilesystemTransport`
  built through ``repro.cluster``; the worker accepts any ``Transport``.

:class:`Layers` holds the accumulated numbers; :func:`instrument` installs
the wrappers for the duration of a ``with`` block and removes them after.
All times are host seconds from :func:`time.perf_counter`.
"""

from __future__ import annotations

import contextlib
import functools
from time import perf_counter

import repro.cluster
import repro.obs
from repro.backends import PhysicsBackend, get_backend
from repro.cluster.sinks import JsonlResultSink
from repro.cluster.transport import Transport
from repro.core.feu import FidelityEstimationUnit
from repro.runtime.cache import ResumeCache
from repro.runtime.runner import SimulationRun
from repro.runtime.scenarios import ScenarioSpec
from repro.sim.engine import SimulationEngine
from repro.sim.queues import EventQueue, make_event_queue
from repro.topology.run import TopologyRun

#: Physics-backend methods reported one by one (``sample``/``resolve`` are
#: the attempt-model calls the midpoint makes once per herald).
BACKEND_METHODS = ("attempt_model", "granted_batch", "apply_t1t2",
                   "apply_depolarizing", "apply_dephasing",
                   "apply_correction", "measure_pair", "sample", "resolve")


class Layers:
    """Accumulated per-layer times (seconds) and counts of one traced pass."""

    def __init__(self) -> None:
        # Phase flags: backend calls made while a network is being built
        # count as set-up, all others as run time.
        self.building = 0
        self.build_s = 0.0
        self.builds = 0
        self.feu_build_s = 0.0
        self.feu_builds = 0
        self.run_s = 0.0
        self.queue_s = 0.0
        self.queue_pushes = 0
        self.queue_pops = 0
        self.peak_pending = 0
        self.backend_setup_s = 0.0
        self.backend_setup_calls = 0
        self.backend_s = dict.fromkeys(BACKEND_METHODS, 0.0)
        self.backend_calls = dict.fromkeys(BACKEND_METHODS, 0)
        self.executed: dict[str, int] = {}
        self.elided: dict[str, int] = {}
        self.transport_s: dict[str, float] = {}
        self.transport_calls: dict[str, int] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_read_s = 0.0
        self.cache_write_s = 0.0
        self.cache_writes = 0
        self.sink_records = 0
        self.sink_write_s = 0.0

    def backend_call(self, method: str, seconds: float) -> None:
        if self.building:
            self.backend_setup_s += seconds
            self.backend_setup_calls += 1
        else:
            self.backend_s[method] += seconds
            self.backend_calls[method] += 1

    def transport_call(self, op: str, seconds: float) -> None:
        self.transport_s[op] = self.transport_s.get(op, 0.0) + seconds
        self.transport_calls[op] = self.transport_calls.get(op, 0) + 1


class TimedQueue(EventQueue):
    """Event-queue proxy: times and counts every push and pop."""

    def __init__(self, inner: EventQueue, layers: Layers) -> None:
        self._inner = inner
        self._layers = layers
        self.name = inner.name

    def push(self, event) -> None:
        started = perf_counter()
        self._inner.push(event)
        layers = self._layers
        layers.queue_s += perf_counter() - started
        layers.queue_pushes += 1
        live = self._inner.live_count
        if live > layers.peak_pending:
            layers.peak_pending = live

    def _timed_pop(self, pop, *args):
        started = perf_counter()
        event = pop(*args)
        self._layers.queue_s += perf_counter() - started
        if event is not None:
            self._layers.queue_pops += 1
        return event

    def peek(self):
        started = perf_counter()
        event = self._inner.peek()
        self._layers.queue_s += perf_counter() - started
        return event

    def pop(self):
        return self._timed_pop(self._inner.pop)

    def pop_due(self, until):
        return self._timed_pop(self._inner.pop_due, until)

    def note_cancelled(self, event) -> None:
        started = perf_counter()
        self._inner.note_cancelled(event)
        self._layers.queue_s += perf_counter() - started

    def clear(self, floor_time: float = 0.0) -> None:
        self._inner.clear(floor_time)

    def __len__(self) -> int:
        return len(self._inner)

    @property
    def live_count(self) -> int:
        return self._inner.live_count


def _timed(method: str, call, layers: Layers, *args):
    started = perf_counter()
    try:
        return call(*args)
    finally:
        layers.backend_call(method, perf_counter() - started)


class TimedAttemptModel:
    """Attempt-model proxy: times ``sample``/``resolve``, forwards the rest."""

    def __init__(self, inner, layers: Layers) -> None:
        self._inner = inner
        self._layers = layers

    def sample(self, rng):
        return _timed("sample", self._inner.sample, self._layers, rng)

    def resolve(self, rng, max_attempts):
        return _timed("resolve", self._inner.resolve, self._layers, rng,
                      max_attempts)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TimedBackend(PhysicsBackend):
    """Physics-backend proxy: times every call, by method and phase.

    Unknown attributes (such as a cohort backend's ``feu_table_cache``)
    are forwarded, so callers probing for optional features see exactly
    what the wrapped backend offers.
    """

    def __init__(self, inner: PhysicsBackend, layers: Layers) -> None:
        self._inner = inner
        self._layers = layers
        self.name = inner.name

    def attempt_model(self, scenario, alpha):
        model = _timed("attempt_model", self._inner.attempt_model,
                       self._layers, scenario, alpha)
        return TimedAttemptModel(model, self._layers)

    def granted_batch(self, *args, **kwargs):
        return _timed("granted_batch",
                      functools.partial(self._inner.granted_batch, *args,
                                        **kwargs), self._layers)

    def apply_t1t2(self, *args):
        return _timed("apply_t1t2", self._inner.apply_t1t2, self._layers,
                      *args)

    def apply_depolarizing(self, *args):
        return _timed("apply_depolarizing", self._inner.apply_depolarizing,
                      self._layers, *args)

    def apply_dephasing(self, *args):
        return _timed("apply_dephasing", self._inner.apply_dephasing,
                      self._layers, *args)

    def apply_correction(self, *args):
        return _timed("apply_correction", self._inner.apply_correction,
                      self._layers, *args)

    def measure_pair(self, *args):
        return _timed("measure_pair", self._inner.measure_pair, self._layers,
                      *args)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TimedTransport(Transport):
    """Cluster-transport proxy: times and counts every protocol operation."""

    def __init__(self, inner: Transport, layers: Layers) -> None:
        self._inner = inner
        self._layers = layers
        self.kind = inner.kind
        self.plan = inner.plan

    def _op(self, op: str, *args, **kwargs):
        started = perf_counter()
        try:
            return getattr(self._inner, op)(*args, **kwargs)
        finally:
            self._layers.transport_call(op, perf_counter() - started)

    def register_worker(self, worker_id, shard):
        return self._op("register_worker", worker_id, shard)

    def snapshot(self):
        return self._op("snapshot")

    def try_claim(self, index, worker_id):
        return self._op("try_claim", index, worker_id)

    def heartbeat(self, index, worker_id):
        return self._op("heartbeat", index, worker_id)

    def submit_result(self, worker_id, index, outcome, attempt=0):
        return self._op("submit_result", worker_id, index, outcome,
                        attempt=attempt)

    def record_failure(self, worker_id, index, outcome, attempt=0):
        return self._op("record_failure", worker_id, index, outcome,
                        attempt=attempt)

    def send_telemetry(self, worker_id, metrics):
        return self._op("send_telemetry", worker_id, metrics)

    def close(self):
        return self._op("close")


def _wrap(stack: contextlib.ExitStack, owner, name: str, make) -> None:
    """Replace ``owner.name`` by ``make(original)`` until ``stack`` closes."""
    original = owner.__dict__[name]
    stack.callback(setattr, owner, name, original)
    setattr(owner, name, make(original))


def _timed_method(add):
    """Wrapper factory: ``add(seconds, result)`` after every call."""
    def make(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            started = perf_counter()
            result = original(*args, **kwargs)
            add(perf_counter() - started, result)
            return result
        return wrapper
    return make


@contextlib.contextmanager
def instrument(layers: Layers):
    """Install every layer probe for the duration of the block."""
    backends: dict[str, TimedBackend] = {}

    def timed_backend(spec: ScenarioSpec) -> TimedBackend:
        # Named backends are process-wide singletons; one proxy per
        # singleton keeps its warm caches exactly as an untraced run sees
        # them.
        inner = get_backend(spec.backend)
        proxy = backends.get(inner.name)
        if proxy is None:
            proxy = backends[inner.name] = TimedBackend(inner, layers)
        return proxy

    def make_spec_run(original):
        @functools.wraps(original)
        def run(spec, *args, **kwargs):
            kwargs.setdefault("backend", timed_backend(spec))
            kwargs.setdefault("engine", TimedQueue(
                make_event_queue(spec.engine), layers))
            return original(spec, *args, **kwargs)
        return run

    def make_build(original):
        @functools.wraps(original)
        def build(*args, **kwargs):
            layers.building += 1
            started = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                layers.build_s += perf_counter() - started
                layers.builds += 1
                layers.building -= 1
        return build

    def add_run(seconds, _):
        layers.run_s += seconds

    def add_feu(seconds, _):
        layers.feu_build_s += seconds
        layers.feu_builds += 1

    def add_load(seconds, result):
        layers.cache_read_s += seconds
        if result[0] is not None:
            layers.cache_hits += 1
        else:
            layers.cache_misses += 1

    def add_store(seconds, _):
        layers.cache_write_s += seconds
        layers.cache_writes += 1

    def add_sink(seconds, _):
        layers.sink_write_s += seconds
        layers.sink_records += 1

    class CountingSession(repro.obs.ObsSession):
        """A trace-only session that folds its per-kind executed counts
        into ``layers`` when the run finishes and keeps no records."""

        def finish_run(self, result) -> None:
            super().finish_run(result)
            for totals, counts in ((layers.executed, self.tracer.executed),
                                   (layers.elided, self.tracer.elided)):
                for kind, count in counts.items():
                    totals[kind] = totals.get(kind, 0) + count
            self.tracer = None

    config = repro.obs.ObsConfig(trace=True)

    with contextlib.ExitStack() as stack:
        _wrap(stack, ScenarioSpec, "run", make_spec_run)
        _wrap(stack, SimulationRun, "__init__", make_build)
        _wrap(stack, TopologyRun, "__init__", make_build)
        _wrap(stack, SimulationEngine, "run", _timed_method(add_run))
        _wrap(stack, FidelityEstimationUnit, "__init__",
              _timed_method(add_feu))
        _wrap(stack, ResumeCache, "load", _timed_method(add_load))
        _wrap(stack, ResumeCache, "store", _timed_method(add_store))
        _wrap(stack, JsonlResultSink, "write", _timed_method(add_sink))
        _wrap(stack, repro.obs, "session_from_env",
              lambda _: lambda: CountingSession(config))
        _wrap(stack, repro.cluster, "FilesystemTransport",
              lambda cls: lambda *args, **kwargs: TimedTransport(
                  cls(*args, **kwargs), layers))
        yield layers


def traced_pass(workload):
    """One pass of ``workload`` with every probe installed.

    Returns ``(pass, layers)``.
    """
    layers = Layers()
    with instrument(layers):
        run = workload.run_pass()
    return run, layers


#: Per-layer metric units, in the order they are printed.
PER_LAYER_UNITS = {
    "runtime.build_s": "s",
    "runtime.builds": "count",
    "core.feu_build_s": "s",
    "core.feu_builds": "count",
    "backends.setup_s": "s",
    "backends.setup_calls": "count",
    "sim.run_s": "s",
    "sim.queue_s": "s",
    "sim.queue_pushes": "count",
    "sim.queue_pops": "count",
    "sim.events": "count",
    "sim.elided": "count",
    "sim.peak_pending": "count",
    "core.self_s": "s",
    "core.mhp_polls": "count",
    "core.match_timeouts": "count",
    "backends.s": "s",
    "backends.calls": "count",
    **{f"backends.{method}.{kind}": unit for method in BACKEND_METHODS
       for kind, unit in (("s", "s"), ("calls", "count"))},
    "topology.swaps": "count",
    "topology.hop_pairs": "count",
    "topology.e2e_pairs": "count",
    "topology.e2e_per_hop_pair": "ratio",
    "cluster.plan_s": "s",
    "cluster.plan_load_s": "s",
    "cluster.snapshot_s": "s",
    "cluster.snapshots": "count",
    "cluster.claim_s": "s",
    "cluster.claims": "count",
    "cluster.submit_s": "s",
    "cluster.submits": "count",
    "cluster.merge_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.read_s": "s",
    "cache.write_s": "s",
    "cache.writes": "count",
    "sink.records": "count",
    "sink.write_s": "s",
    "trace.overhead": "ratio",
    "trace.wall_s": "s",
    "host.probe_s": "s",
}


def _executed(layers: Layers, match) -> int:
    return sum(count for kind, count in layers.executed.items()
               if match(kind))


def per_layer_metrics(layers: Layers, traced, untraced,
                      probe_s: float) -> dict:
    """The per-layer metrics of a traced pass; ``untraced`` is the same
    pass without layer probes, for the tracing overhead.

    Layer times are raw host seconds, so their shares of ``trace.wall_s``
    are exact; ``trace.overhead`` compares the two passes at the
    reference host speed, and ``host.probe_s`` tells how fast the host
    ran.
    """
    backend_s = sum(layers.backend_s.values())
    hop_pairs = e2e_pairs = swaps = 0
    for outcome in traced.outcomes:
        if outcome.end_to_end is not None:
            e2e_pairs += outcome.end_to_end.get("pairs", 0)
            swaps += outcome.end_to_end.get("swaps", 0)
            hop_pairs += sum(hop["pairs"] for hop in outcome.hops or ())
    values = {
        "runtime.build_s": layers.build_s,
        "runtime.builds": layers.builds,
        "core.feu_build_s": layers.feu_build_s,
        "core.feu_builds": layers.feu_builds,
        "backends.setup_s": layers.backend_setup_s,
        "backends.setup_calls": layers.backend_setup_calls,
        "sim.run_s": layers.run_s,
        "sim.queue_s": layers.queue_s,
        "sim.queue_pushes": layers.queue_pushes,
        "sim.queue_pops": layers.queue_pops,
        "sim.events": sum(layers.executed.values()),
        "sim.elided": sum(layers.elided.values()),
        "sim.peak_pending": layers.peak_pending,
        "core.self_s": layers.run_s - layers.queue_s - backend_s,
        "core.mhp_polls": _executed(
            layers, lambda kind: kind.startswith("MHP")
            and kind.endswith("poll")),
        "core.match_timeouts": _executed(
            layers, lambda kind: kind.endswith("match_timeout")),
        "backends.s": backend_s,
        "backends.calls": sum(layers.backend_calls.values()),
        "topology.swaps": swaps,
        "topology.hop_pairs": hop_pairs,
        "topology.e2e_pairs": e2e_pairs,
        "topology.e2e_per_hop_pair": e2e_pairs / hop_pairs if hop_pairs
        else 0.0,
        "cluster.plan_s": traced.cluster_s.get("plan", 0.0),
        "cluster.plan_load_s": traced.cluster_s.get("plan_load", 0.0),
        "cluster.snapshot_s": layers.transport_s.get("snapshot", 0.0),
        "cluster.snapshots": layers.transport_calls.get("snapshot", 0),
        "cluster.claim_s": layers.transport_s.get("try_claim", 0.0),
        "cluster.claims": layers.transport_calls.get("try_claim", 0),
        "cluster.submit_s": layers.transport_s.get("submit_result", 0.0),
        "cluster.submits": layers.transport_calls.get("submit_result", 0),
        "cluster.merge_s": traced.cluster_s.get("merge", 0.0),
        "cache.hits": layers.cache_hits,
        "cache.misses": layers.cache_misses,
        "cache.read_s": layers.cache_read_s,
        "cache.write_s": layers.cache_write_s,
        "cache.writes": layers.cache_writes,
        "sink.records": layers.sink_records,
        "sink.write_s": layers.sink_write_s,
        "trace.overhead": traced.reference_s / untraced.reference_s,
        "trace.wall_s": traced.wall_s,
        "host.probe_s": probe_s,
    }
    for method in BACKEND_METHODS:
        values[f"backends.{method}.s"] = layers.backend_s[method]
        values[f"backends.{method}.calls"] = layers.backend_calls[method]
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}
