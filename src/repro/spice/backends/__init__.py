"""Pluggable solver backends for the reduced transient hot loop.

Selection (first match wins):

1. An explicit ``backend=`` argument (a name or a
   :class:`~repro.spice.backends.base.SolverBackend` instance) given to
   ``run_cell``/``run_cells``/``run_grid``/``run_transient`` or the
   testbench;
2. the ``REPRO_BACKEND`` environment variable;
3. the default: ``compiled``.

``numpy`` (``REPRO_BACKEND=numpy``, ``--backend numpy`` or
``backend="numpy"``) is the bitwise reference the ``compiled`` backend
is measured against.

The resolved backend's :meth:`~repro.spice.backends.base.SolverBackend.
cache_token` is salted into the content-addressed result-cache key, so
cached results never mix backends.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Union

from .base import SolverBackend, StepKernel
from .compiled import CompiledBackend
from .numpy_backend import NumpyBackend

__all__ = ["SolverBackend", "StepKernel", "NumpyBackend", "CompiledBackend",
           "BACKEND_ENV", "available_backends",
           "get_backend", "resolve_backend", "backend_host_info"]

#: Environment variable naming the default backend.
BACKEND_ENV = "REPRO_BACKEND"

_REGISTRY = {"numpy": NumpyBackend, "compiled": CompiledBackend}
_INSTANCES: Dict[str, SolverBackend] = {}


def available_backends() -> List[str]:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


def get_backend(name: str) -> SolverBackend:
    """The (shared) backend instance registered under ``name``."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown solver backend {name!r}; available: "
            f"{', '.join(available_backends())}") from None
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = _INSTANCES[name] = cls()
    return instance


def resolve_backend(backend: Union[SolverBackend, str, None] = None
                    ) -> SolverBackend:
    """Resolve a backend argument/environment to a backend instance.

    ``backend`` may be ``None`` (environment/default resolution), a
    registered name, or an already-resolved instance (returned as is).
    """
    if isinstance(backend, SolverBackend):
        return backend
    name = backend
    if name is None:
        name = os.environ.get(BACKEND_ENV) or "compiled"
    return get_backend(name)


def backend_host_info(backend: Union[SolverBackend, str, None] = None
                      ) -> dict:
    """Backend identity and runtime facts (kernel flavor, compiler
    flags, CPU slots) for host metadata, e.g. the ``perfbench/`` run
    stamp."""
    return resolve_backend(backend).describe()
