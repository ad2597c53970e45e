"""Job model of the characterisation service.

A *job* is one unit of requested work: a serialisable request (what to
compute), plus lifecycle bookkeeping (state, attempts, timestamps,
result row).  Jobs are identified by the content-addressed
:mod:`~repro.core.cache` key of their request, so two submissions of
the same work *are* the same job — dedup is identity, not a lookup
table bolted on the side.

Each request class is the whole definition of its job kind, and
:data:`KINDS` maps wire names to the classes.  A kind carries five
parts, and the service calls them without asking which kind it holds:

* wire schema — ``to_dict`` / ``from_dict`` (``kind`` names the class;
  a document without one is a cell);
* identity — ``cache_key`` over the physics only, and ``signature``
  (requests with equal signatures may share one batch);
* executor — the classmethod ``execute(batch, cache, pool_workers,
  timeout, cancel)``, returning one result row per job;
* result loader — ``load_result(cache, job)``;
* ``/metrics`` block — ``metrics_block(perf)``, ``None`` for none.

States move ``pending -> running -> done | failed | cancelled``; a
retried job goes back to ``pending`` with a backoff gate
(:attr:`Job.not_before`).  Every mutation bumps :attr:`Job.rev`, which
lets the journal replay of :mod:`~repro.service.store` apply records
idempotently in any snapshot/journal interleaving.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, Optional, Tuple, Union

from ..validation import require_bool, require_finite, require_int

#: Job lifecycle states.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a job can never leave.
TERMINAL = (DONE, FAILED, CANCELLED)

#: Every valid state (for validation at the API boundary).
STATES = (PENDING, RUNNING, DONE, FAILED, CANCELLED)


@dataclasses.dataclass(frozen=True)
class JobRequest:
    """One cell characterisation, in wire-format primitives.

    Mirrors the knobs of :func:`repro.core.experiment.run_cell` using
    only JSON-representable fields so requests journal, POST and hash
    cleanly.  ``workload`` is a paper workload *name* (``"80r0"``);
    ``None`` (with ``time_s=0``) is the fresh population.  ``backend``
    is a solver-backend *name* (``"numpy"``/``"compiled"``); ``None``
    resolves from the worker's environment, exactly like a direct
    ``run_cell`` call.
    """

    scheme: str = "nssa"
    workload: Optional[str] = None
    time_s: float = 0.0
    temp_c: float = 25.0
    vdd: float = 1.0
    mc: int = 100
    seed: int = 2017
    dt: float = 1e-12
    offset_iterations: int = 14
    measure_offset: bool = True
    measure_delay: bool = True
    chunk_size: Optional[int] = None
    timeout_s: Optional[float] = None
    backend: Optional[str] = None

    KIND = "cell"

    def validate(self) -> None:
        """Raise ``ValueError`` for any field the worker cannot honour."""
        require_finite(self, "time_s", "temp_c", "vdd", "dt", "timeout_s")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        from ..core.offset import MAX_ITERATIONS
        require_int(self, "mc", "offset_iterations")
        require_int(self, "chunk_size", optional=True)
        require_int(self, "seed", minimum=0)
        require_bool(self, "measure_offset", "measure_delay")
        self._validate_steps()
        if self.workload is not None and not isinstance(self.workload,
                                                        str):
            raise ValueError(
                f"workload must be a name, got {self.workload!r}")
        if self.offset_iterations > MAX_ITERATIONS:
            raise ValueError(
                f"offset_iterations must be at most {MAX_ITERATIONS}")
        self.to_cell()

    def _validate_steps(self) -> None:
        """Refuse a ``dt`` the transient cannot resolve or hold.

        ``ReadTiming`` refuses a step too coarse for the enable rise;
        :func:`~repro.core.testbench.check_batch_steps` refuses a
        chunk past the sample-step ceiling.
        """
        from ..circuits.sense_amp import ReadTiming
        from ..core.testbench import check_batch_steps
        batch = self.mc if self.chunk_size is None else min(
            self.mc, self.chunk_size)
        check_batch_steps(batch, ReadTiming(dt=self.dt))

    def to_cell(self):
        """The :class:`~repro.core.experiment.ExperimentCell` to run.

        Validates the request as a side effect: unknown schemes,
        workload names and solver-backend names raise ``ValueError``
        here, which the submit paths surface as a client error.
        """
        from ..core.experiment import ExperimentCell
        from ..models.temperature import Environment
        from ..spice.backends import available_backends
        from ..workloads import paper_workload
        if (self.backend is not None
                and self.backend not in available_backends()):
            raise ValueError(
                f"unknown solver backend {self.backend!r}; available: "
                f"{', '.join(available_backends())}")
        workload = (paper_workload(self.workload)
                    if self.workload is not None else None)
        return ExperimentCell(self.scheme, workload, self.time_s,
                              Environment.from_celsius(self.temp_c,
                                                       self.vdd))

    def run_kwargs(self) -> Dict[str, Any]:
        """Keyword arguments for ``run_cell``/``run_cells``."""
        from ..circuits.sense_amp import ReadTiming
        from ..core.calibration import default_mc_settings
        return dict(settings=default_mc_settings(size=self.mc,
                                                 seed=self.seed),
                    timing=ReadTiming(dt=self.dt),
                    offset_iterations=self.offset_iterations,
                    measure_offset=self.measure_offset,
                    measure_delay=self.measure_delay,
                    chunk_size=self.chunk_size,
                    backend=self.backend)

    def signature(self) -> Tuple:
        """Batch-compatibility signature.

        Requests that differ only in *what cell* they characterise
        (scheme, workload, time, corner) share a signature and may be
        coalesced into one ``run_cells`` invocation; everything that
        changes the per-cell configuration keeps them apart.
        """
        return (self.mc, self.seed, self.dt, self.offset_iterations,
                self.measure_offset, self.measure_delay,
                self.chunk_size, self.timeout_s, self.backend)

    def cache_key(self, cache) -> str:
        """Content-addressed identity shared with ``run_cell``."""
        kwargs = self.run_kwargs()
        kwargs.pop("chunk_size")  # memory knob; excluded from the key
        return cache.key_for_cell(self.to_cell(), **kwargs)

    def cached_result_row(self, cache, key: str) -> Optional[Dict]:
        """The result row if the cache already holds this request."""
        from ..constants import FAILURE_RATE_TARGET
        if not cache.contains(key):
            return None
        cached = cache.load(key, self.to_cell(),
                            failure_rate=FAILURE_RATE_TARGET)
        return cached.row() if cached is not None else None

    @classmethod
    def execute(cls, batch, cache, pool_workers, timeout, cancel):
        """Run a coalesced batch through one ``run_cells`` call.

        Results persist through ``cache`` under the job ids.
        """
        from ..core.parallel import run_cells
        kwargs = batch[0].request.run_kwargs()
        results = run_cells([job.request.to_cell() for job in batch],
                            cache=cache, workers=pool_workers,
                            timeout=timeout, cancel=cancel, **kwargs)
        return [result.row() for result in results]

    @staticmethod
    def load_result(cache, job):
        """The cached :class:`~repro.core.experiment.CellResult`.

        Falls back to a row-only result when the entry was evicted (or
        the work ran on a remote worker without a shared cache).
        """
        from ..constants import FAILURE_RATE_TARGET
        from ..core.experiment import CellResult
        cell = job.request.to_cell()
        cached = cache.load(job.id, cell,
                            failure_rate=FAILURE_RATE_TARGET)
        if cached is not None:
            return cached
        row = job.result_row or {}
        return CellResult(cell=cell, offset=None,
                          delay_s=row.get("delay_ps", float("nan"))
                          * 1e-12)

    @staticmethod
    def metrics_block(perf) -> None:
        """Cell work reports through the perf counters alone."""
        return None

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "JobRequest":
        return _from_fields(cls, doc)


@dataclasses.dataclass(frozen=True)
class EngineRequest:
    """One whole-spec engine comparison (the fleet and array kinds).

    The wire shape of an engine's ``compare`` call: a spec document
    plus the tuple named by ``ITEMS`` (the first entry is the
    comparison baseline).  ``chunk_size`` (fleet: devices per chunk;
    array: columns per packed testbench) and ``workers`` only shape
    *how* the engine walks the work — results are bitwise invariant
    to them — so they stay out of the dedup identity, exactly like
    :attr:`JobRequest.chunk_size`.  Identical requests are the *same
    job* by dedup and the signature never matches another request, so
    an engine batch is always a singleton.

    A subclass names its ``KIND``, its ``ITEMS`` field and that
    field's element type ``ITEM``, and implements ``_parse`` (spec
    and items into engine inputs) and ``_engine`` (the engine class).
    """

    spec: Dict[str, Any] = dataclasses.field(default_factory=dict)
    chunk_size: Optional[int] = None
    workers: Optional[int] = 1
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        # JSON round-trips deliver lists; normalise so signatures and
        # equality behave.
        object.__setattr__(self, self.ITEMS, tuple(
            self.ITEM(item) for item in getattr(self, self.ITEMS)))

    def validate(self):
        """Parse into engine inputs; raises ``ValueError`` when bad.

        Returns ``(spec, items)`` so the executor validates and
        constructs in one step.
        """
        require_finite(self, "timeout_s")
        require_int(self, "chunk_size", "workers", optional=True)
        return self._parse()

    def _physics(self) -> Dict[str, Any]:
        return {"spec": self.spec,
                self.ITEMS: list(getattr(self, self.ITEMS))}

    def signature(self) -> Tuple:
        """Unique to this request, so it never joins another's batch."""
        return (self.KIND,
                json.dumps(self._physics(), sort_keys=True,
                           separators=(",", ":")),
                self.chunk_size, self.workers, self.timeout_s)

    def cache_key(self, cache) -> str:
        """Content-addressed identity over the physics, not the knobs."""
        return cache.key_for_doc(dict(self._physics(), kind=self.KIND))

    def cached_result_row(self, cache, key: str) -> Optional[Dict]:
        """The comparison document if the doc cache already holds it."""
        if not cache.contains_doc(key):
            return None
        return cache.load_doc(key)

    @classmethod
    def execute(cls, batch, cache, pool_workers, timeout, cancel):
        """Run each job's engine; the document persists under the id.

        ``workers`` is capped at this host's usable CPUs, so a remote
        submission cannot fan a worker host out past them.
        """
        from ..core.parallel import default_workers
        cap = default_workers()
        rows = []
        for job in batch:
            request = job.request
            spec, items = request.validate()
            engine = cls._engine()(
                spec, workers=min(request.workers or cap, cap),
                chunk_size=request.chunk_size)
            summary = engine.compare(items, timeout=timeout,
                                     cancel=cancel)
            if cache is not None:
                cache.store_doc(job.id, summary)
            rows.append(summary)
        return rows

    @staticmethod
    def load_result(cache, job) -> Dict[str, Any]:
        """The stored comparison document, else the job's row."""
        document = cache.load_doc(job.id)
        return document if document is not None \
            else (job.result_row or {})

    def to_dict(self) -> Dict[str, Any]:
        doc = dataclasses.asdict(self)
        return {"spec": doc["spec"],
                self.ITEMS: list(doc[self.ITEMS]),
                "chunk_size": self.chunk_size, "workers": self.workers,
                "timeout_s": self.timeout_s, "kind": self.KIND}

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "EngineRequest":
        return _from_fields(cls, doc)


@dataclasses.dataclass(frozen=True)
class FleetRequest(EngineRequest):
    """A fleet lifetime-distribution / policy comparison.

    :meth:`repro.fleet.engine.FleetEngine.compare` over a
    :class:`~repro.fleet.spec.FleetSpec` document and one or more
    :class:`~repro.fleet.spec.MitigationPolicy` documents.
    """

    KIND, ITEMS, ITEM = "fleet", "policies", dict
    policies: Tuple[Dict[str, Any], ...] = ()

    def _parse(self):
        from ..fleet.spec import FleetSpec, MitigationPolicy
        if not self.policies:
            raise ValueError("fleet request needs at least one policy")
        return (FleetSpec.from_dict(self.spec),
                [MitigationPolicy.from_dict(doc)
                 for doc in self.policies])

    @staticmethod
    def _engine():
        from ..fleet import FleetEngine
        return FleetEngine

    @staticmethod
    def metrics_block(perf) -> Dict[str, Any]:
        counters = perf["counters"]
        return {
            "devices": counters.get("fleet.devices", 0),
            "blocks": counters.get("fleet.blocks", 0),
            "chunks": counters.get("fleet.chunks", 0),
            "policies": counters.get("fleet.policies", 0),
            "devices_per_sec":
                perf["gauges"].get("fleet.devices_per_sec", 0.0),
        }


@dataclasses.dataclass(frozen=True)
class ArrayRequest(EngineRequest):
    """A bank-level array characterisation / scheme comparison.

    :meth:`repro.array.engine.ArrayEngine.compare` over an
    :class:`~repro.array.spec.ArraySpec` document and a scheme tuple.
    """

    KIND, ITEMS, ITEM = "array", "schemes", str
    schemes: Tuple[str, ...] = ("nssa", "issa")

    def _parse(self):
        from ..array.engine import group_columns
        from ..array.spec import ArraySpec, validate_schemes
        spec = ArraySpec.from_dict(self.spec)
        group_columns(spec, self.chunk_size)
        return spec, validate_schemes(self.schemes)

    @staticmethod
    def _engine():
        from ..array import ArrayEngine
        return ArrayEngine

    @staticmethod
    def metrics_block(perf) -> Dict[str, Any]:
        counters, gauges = perf["counters"], perf["gauges"]
        return {
            "columns": counters.get("array.columns", 0),
            "banks": counters.get("array.banks", 0),
            "tasks": counters.get("array.tasks", 0),
            "compares": counters.get("array.compares", 0),
            "columns_per_sec": gauges.get("array.columns_per_sec", 0.0),
            "geometry": {
                name: gauges.get(f"array.{name}", 0)
                for name in ("rows", "columns", "words_per_row",
                             "mux_factor", "bitline_pairs", "cells")
            },
        }


def _from_fields(cls, doc: Dict[str, Any]):
    """Build ``cls`` from a wire document, refusing foreign fields."""
    doc = dict(doc)
    kind = doc.pop("kind", cls.KIND)
    if kind != cls.KIND:
        raise ValueError(f"{cls.__name__} cannot hold kind={kind!r}")
    unknown = set(doc) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(
            f"unknown request field(s): {', '.join(sorted(unknown))}")
    return cls(**doc)


#: Every job kind, by wire ``kind``; a document without one is a cell.
KINDS = {"cell": JobRequest, "fleet": FleetRequest,
         "array": ArrayRequest}

#: Any request the service accepts.
Request = Union[JobRequest, FleetRequest, ArrayRequest]


def request_from_dict(doc: Dict[str, Any]) -> Request:
    """Build the right request class from a wire/journal document.

    Documents without a ``kind`` field are cell characterisations —
    the only request type earlier journals could hold — so old job
    stores replay unchanged.
    """
    kind = doc.get("kind", "cell")
    if kind not in KINDS:
        raise ValueError(
            f"unknown request kind {kind!r}; expected one of "
            f"{', '.join(KINDS)}")
    return KINDS[kind].from_dict(doc)


@dataclasses.dataclass
class Job:
    """One tracked characterisation with its lifecycle state.

    ``worker`` / ``lease_expires_at`` implement the multi-consumer
    claim protocol: a claim leases the job to one named worker until
    the expiry timestamp; heartbeats extend the lease, and the lease
    sweeper requeues expired ``running`` jobs (the attempt is refunded
    — a dead worker is not the job's fault).  Both fields default to
    ``None`` so journals written before leases existed replay
    unchanged.
    """

    id: str
    request: Request
    seq: int = 0
    priority: int = 0
    state: str = PENDING
    rev: int = 0
    attempts: int = 0
    max_attempts: int = 3
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    not_before: float = 0.0
    batchable: bool = True
    from_cache: bool = False
    error: Optional[str] = None
    result_row: Optional[Dict[str, Any]] = None
    worker: Optional[str] = None
    lease_expires_at: Optional[float] = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL

    def sort_key(self) -> Tuple[int, int]:
        """Claim order: highest priority first, then submission order."""
        return (-self.priority, self.seq)

    def touch(self) -> None:
        """Bump the revision; call once per recorded mutation."""
        self.rev += 1

    def to_dict(self) -> Dict[str, Any]:
        doc = dataclasses.asdict(self)
        doc["request"] = self.request.to_dict()
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "Job":
        doc = dict(doc)
        doc["request"] = request_from_dict(doc["request"])
        if doc.get("state") not in STATES:
            raise ValueError(f"unknown job state {doc.get('state')!r}")
        return cls(**doc)
