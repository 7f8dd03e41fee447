"""Shared pytest fixtures for the reproduction test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.hardware.parameters import lab_scenario, ql2020_scenario
from repro.obs import Tracer
from repro.sim.engine import SimulationEngine
from repro.sim.queues import EventQueue, HeapEventQueue


@pytest.fixture(autouse=True)
def _isolate_repro_selectors():
    """Fail any test that leaks a ``REPRO_BACKEND`` change to its
    neighbours.

    The whole suite is run once per backend in CI, so a test that mutates
    the selector without restoring it silently changes the physics of every
    later test.  ``monkeypatch.setenv`` is fine (it restores before this
    fixture's teardown runs); bare ``os.environ`` writes are the bug this
    guards against.  The original value is restored either way so one
    offender cannot cascade.
    """
    before = {var: os.environ.get(var) for var in ("REPRO_BACKEND",)}
    yield
    leaks = []
    for var, value in before.items():
        after = os.environ.get(var)
        if after != value:
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value
            leaks.append(f"{var}: {value!r} -> {after!r}")
    if leaks:
        # Every variable is restored *before* failing, so one offender
        # cannot cascade into later tests.
        pytest.fail(f"test leaked {'; '.join(leaks)} "
                    f"(use monkeypatch.setenv, which restores itself)")


@pytest.fixture
def engine() -> SimulationEngine:
    """A fresh simulation engine."""
    return SimulationEngine()


class EagerCompactionHeap(HeapEventQueue):
    """The heap, rebuilt without its cancelled residents on every
    cancellation, so compaction interleaves with every test's
    operations."""

    def note_cancelled(self, event) -> None:
        self._cancelled += 1
        self._compact()


class ContractProxyQueue(EventQueue):
    """A wrapper that reaches the heap through the abstract
    :class:`EventQueue` contract only, the way a caller's timing proxy
    would.  It inherits the base-class ``pop_due`` (peek, then pop)."""

    name = "proxy"

    def __init__(self) -> None:
        self._inner = HeapEventQueue()

    def push(self, event) -> None:
        self._inner.push(event)

    def peek(self):
        return self._inner.peek()

    def pop(self):
        return self._inner.pop()

    def note_cancelled(self, event) -> None:
        self._inner.note_cancelled(event)

    def clear(self, floor_time: float = 0.0) -> None:
        self._inner.clear(floor_time)

    def __len__(self) -> int:
        return len(self._inner)

    @property
    def live_count(self) -> int:
        return self._inner.live_count


#: Queue configurations the engine must behave identically under.
QUEUE_FACTORIES = {
    "heap": HeapEventQueue,
    "eager-compaction": EagerCompactionHeap,
    "contract-proxy": ContractProxyQueue,
}


@pytest.fixture(params=sorted(QUEUE_FACTORIES))
def queue_factory(request):
    """A zero-argument callable returning a fresh :class:`EventQueue`, one
    per entry of :data:`QUEUE_FACTORIES` (select a subset with indirect
    parametrization by name)."""
    return QUEUE_FACTORIES[request.param]


class ExecutedLog(Tracer):
    """A tracer that also logs ``(engine.now, name)`` per executed event."""

    __slots__ = ("engine", "log")

    def __init__(self, engine: SimulationEngine) -> None:
        super().__init__()
        self.engine = engine
        self.log: list[tuple[float, str]] = []

    def on_executed(self, name: str) -> None:
        super().on_executed(name)
        self.log.append((self.engine.now, name))


@pytest.fixture
def log_executed():
    """Attach an :class:`ExecutedLog` to an engine; returns its log list."""
    def attach(engine: SimulationEngine) -> list[tuple[float, str]]:
        engine.tracer = ExecutedLog(engine)
        return engine.tracer.log
    return attach


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator."""
    return np.random.default_rng(42)


@pytest.fixture(scope="session")
def lab():
    """The Lab hardware scenario (cached for the whole test session)."""
    return lab_scenario()


@pytest.fixture(scope="session")
def ql2020():
    """The QL2020 hardware scenario (cached for the whole test session)."""
    return ql2020_scenario()
