"""Pluggable physics backends for the link-layer simulation.

The protocol stack (MHP, EGP, FEU, device model) talks to the physics through
the :class:`~repro.backends.base.PhysicsBackend` interface; this package
provides the registry that maps backend names to shared instances.

Backends
--------
``"density"`` (default)
    Exact density-matrix model — the reference physics.
``"analytic"``
    Closed-form probabilities/fidelities with geometric fast-forward of
    failed attempt cycles; equivalent in distribution, O(1) events per
    herald.
``"analytic-exact"``
    The analytic model without fast-forward: same event granularity and
    random-number consumption as ``"density"``, used by the cross-backend
    equivalence tests.

Selection
---------
Every entry point (``SimulationRun``, ``ScenarioSpec``, benchmarks,
examples) accepts a backend name or instance; when none is given the
``REPRO_BACKEND`` environment variable decides, falling back to
``"density"``.
"""

from __future__ import annotations

import os
from typing import Optional, Union

from repro.backends.analytic import AnalyticAttemptModel, AnalyticBackend
from repro.backends.base import (
    AttemptModel,
    BatchGrant,
    HeraldSample,
    PhysicsBackend,
)
from repro.backends.density import DensityAttemptModel, DensityMatrixBackend

#: Environment variable consulted when no backend is passed explicitly.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Name of the reference backend.
DEFAULT_BACKEND = "density"

_FACTORIES = {
    "density": DensityMatrixBackend,
    "analytic": AnalyticBackend,
    "analytic-exact": lambda: AnalyticBackend(fast_forward=False),
}
_INSTANCES: dict[str, PhysicsBackend] = {}


def available_backends() -> list[str]:
    """Names accepted by :func:`get_backend`."""
    return sorted(_FACTORIES)


def default_backend_name() -> str:
    """Backend name selected by the environment (``REPRO_BACKEND``)."""
    return os.environ.get(BACKEND_ENV_VAR, DEFAULT_BACKEND).strip() or \
        DEFAULT_BACKEND


def resolve_backend_name(
        backend: Union[None, str, PhysicsBackend]) -> str:
    """The concrete backend name ``backend`` resolves to.

    Used wherever the name must be recorded (sweep cache keys, results)
    before/without instantiating the backend.
    """
    if backend is None:
        name = default_backend_name()
    elif isinstance(backend, PhysicsBackend):
        return backend.name
    else:
        name = str(backend)
    if name not in _FACTORIES:
        raise ValueError(f"unknown physics backend {name!r}; "
                         f"available: {available_backends()}")
    return name


def get_backend(
        backend: Union[None, str, PhysicsBackend] = None) -> PhysicsBackend:
    """Resolve a backend name (or pass through an instance).

    Named backends are per-process singletons, so their FEU table caches
    (and the attempt models behind them) stay warm across every run in one
    process: serial sweeps, pool tasks and cluster workers alike.
    """
    if isinstance(backend, PhysicsBackend):
        return backend
    name = resolve_backend_name(backend)
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = _FACTORIES[name]()
        _INSTANCES[name] = instance
    return instance


__all__ = [
    "AnalyticAttemptModel",
    "AnalyticBackend",
    "AttemptModel",
    "BACKEND_ENV_VAR",
    "BatchGrant",
    "DEFAULT_BACKEND",
    "DensityAttemptModel",
    "DensityMatrixBackend",
    "HeraldSample",
    "PhysicsBackend",
    "available_backends",
    "default_backend_name",
    "get_backend",
    "resolve_backend_name",
]
