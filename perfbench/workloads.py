"""The four benchmark workloads.

Every workload draws its inputs from a finite *pool* whose expected
outputs are stored in ``reference.json`` (see ``reference.py``); the
``--seed`` only chooses which pool items run and in which order, so any
seed can be checked against the stored reference.  The program is
driven through public entry points only:

- ``paper-table2``: ``run_cell`` on Table-II cells at paper settings;
- ``bank-256x16``: ``ArrayEngine.compare`` on a 256x16 bank;
- ``fleet-mixed``: ``FleetEngine.compare`` on the mixed-corner fleet;
- ``service-http``: ``python -m repro serve`` driven over HTTP.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import pathlib
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import stats
from spans import Tracer, accounting, covered, layer_self

# -- workload settings (part of the settings fingerprint) -------------------

#: Monte-Carlo seeds of the Table-II pool (10 cells each).
PAPER_MC_SEEDS = (2017, 2018, 2019, 2020)
#: Bank geometry and per-column Monte-Carlo size.
BANK = {"rows": 256, "columns": 16, "mc": 24, "workers": 2}
BANK_SEEDS = (2017, 2018, 2019, 2020, 2021, 2022)
#: Fleet size per compare: two 4096-device sampling blocks.
FLEET = {"n_devices": 8192, "workers": 1}
FLEET_SEEDS = tuple(range(2017, 2029))
#: Service load: open loop at a fixed rate, a fixed share of repeats.
SERVICE = {"mc": 16, "rate_per_s": 2.0, "repeat_share": 0.25,
           "repeat_min_age_s": 3.0, "workers": 1, "shards": 2}
SERVICE_SEEDS = (2017, 2018, 2019, 2020, 2021, 2022)
#: Per-operation latency limit [s] behind ``in_limit_frac``.
LIMIT_S = {"paper-table2": 15.0, "bank-256x16": 60.0,
           "fleet-mixed": 20.0, "service-http": 5.0}
#: Set-ups timed per run; the median is ``setup_s``.
SETUP_REPEATS = 3

SETTINGS = {"paper_mc_seeds": PAPER_MC_SEEDS, "bank": BANK,
            "bank_seeds": BANK_SEEDS, "fleet": FLEET,
            "fleet_seeds": FLEET_SEEDS, "service": SERVICE,
            "service_seeds": SERVICE_SEEDS, "limit_s": LIMIT_S,
            "setup_repeats": SETUP_REPEATS}

#: Modules each in-process workload's set-up imports.
SETUP_IMPORTS = {
    "paper-table2": ("repro.core.experiment", "repro.core.paper",
                     "repro.core.cache"),
    "bank-256x16": ("repro.array.engine", "repro.array.spec"),
    "fleet-mixed": ("repro.fleet.engine", "repro.fleet.spec"),
}


class Run:
    """One benchmark run: pinned environment, counters and results."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 root: str, workdir: str, env: Dict[str, str],
                 tracer: Optional[Tracer], reference: Dict[str, Any]):
        self.workload = workload
        self.seconds = seconds
        self.root = root
        self.workdir = workdir
        self.env = env
        self.tracer = tracer
        self.reference = reference
        self.rng = random.Random(f"{workload}:{seed}")
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.latencies: List[float] = []
        self.in_limit = 0
        self.work = 0.0
        self.busy_s = 0.0
        self.setup_s: List[float] = []
        self.peak_rss_mb = 0.0
        self.layer: Dict[str, float] = {}
        self.notes: List[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def span(self, name: str):
        """A span context when tracing, else a no-op context."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)


# -- shared helpers -----------------------------------------------------------

def self_rss_mb() -> float:
    """Peak resident set [MB] of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextlib.contextmanager
def worker_rss(run: Run):
    """Collect the peak resident set [MB] of every process-pool worker.

    Wraps the pool's task entry point where ``run_tasks`` looks it up
    (keeping its name, so the pool pickles it by reference); after each
    task a worker writes its own peak to ``<workdir>/rss/<pid>``.  Yields
    a list that holds one value per worker once the block ends.  Only
    the workers are read, not other children (set-up probes, the kernel
    build), so the figure is the pool's.
    """
    import repro.core.parallel as parallel
    spool = os.path.join(run.workdir, "rss")
    os.makedirs(spool, exist_ok=True)
    original = parallel._run_task
    parent = os.getpid()

    @functools.wraps(original)
    def entry(*args, **kwargs):
        try:
            return original(*args, **kwargs)
        finally:
            if os.getpid() != parent:
                with open(os.path.join(spool, str(os.getpid())), "w",
                          encoding="ascii") as fh:
                    fh.write(str(self_rss_mb()))

    peaks: List[float] = []
    parallel._run_task = entry
    try:
        yield peaks
    finally:
        parallel._run_task = original
        for name in os.listdir(spool):
            with open(os.path.join(spool, name), encoding="ascii") as fh:
                peaks.append(float(fh.read()))


def time_setup_probe(run: Run) -> None:
    """Time fresh interpreters importing the workload and loading the kernel."""
    imports = "; ".join(f"import {name}"
                        for name in SETUP_IMPORTS[run.workload])
    code = (f"{imports}; from repro.spice.backends import "
            f"backend_host_info; backend_host_info()")
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=run.env,
                       cwd=run.root, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        run.setup_s.append(time.perf_counter() - start)


def op_loop(run: Run, items: Iterable[Any], op: Callable[[Any], float],
            cost: Callable[[Any], float] = lambda item: 1.0) -> float:
    """Run operations until ``--seconds`` is used; returns elapsed time.

    Another operation starts while the projected end (elapsed plus the
    median operation so far) stays within ``--seconds``; the first one
    always runs.  ``op`` returns the work units it completed; it raises on a
    failed operation, which counts as attempted, failed and out of the
    latency limit.  A successful operation's latency is its time over
    its relative ``cost``.
    """
    limit = LIMIT_S[run.workload]
    start = time.perf_counter()
    durations: List[float] = []
    for item in items:
        t0 = time.perf_counter()
        run.attempted += 1
        try:
            units = op(item)
        except Exception as exc:  # noqa: BLE001 — a failed op is a metric
            run.fail(f"{item!r}: {exc!r}")
            units = 0.0
        else:
            run.work += units
        elapsed_op = time.perf_counter() - t0
        durations.append(elapsed_op)
        if units:
            run.latencies.append(elapsed_op / cost(item))
            run.in_limit += elapsed_op <= limit
        elapsed = time.perf_counter() - start
        median = statistics.median(durations)
        if elapsed + median > run.seconds:
            break
    else:
        run.notes.append("input pool exhausted before --seconds")
    return time.perf_counter() - start


def measure(run: Run, items: Iterable[Any], op: Callable[[Any], float],
            pool_workers: bool = False,
            cost: Callable[[Any], float] = lambda item: 1.0) -> None:
    """Time the operation loop of an in-process workload.

    Peak RSS covers the pool workers too when the workload forks them;
    the ``PERF`` counters (merged back from workers by the pool) give
    the per-operation counts of the per-layer metrics.
    """
    from repro.analysis.perf import PERF
    PERF.reset()
    with (worker_rss(run) if pool_workers
          else contextlib.nullcontext([])) as worker_mb:
        with run.span("run"):
            run.busy_s = op_loop(run, items, op, cost)
    run.peak_rss_mb = max([self_rss_mb()] + worker_mb)
    run.layer.update(perf_layer(PERF.snapshot(), len(run.latencies)))


# -- paper-table2 -------------------------------------------------------------

def paper_pool() -> List[Tuple[int, int]]:
    """``(mc_seed, cell_index)`` pairs of the Table-II pool."""
    from repro.core.paper import grid_cells
    n = len(grid_cells("2"))
    return [(mc_seed, index) for mc_seed in PAPER_MC_SEEDS
            for index in range(n)]


#: Relative cost of one Table-II cell at paper settings by scheme, with
#: the Table-II mean (7 NSSA + 3 ISSA cells) at 1.  Measured at 400 MC
#: on a 2-CPU x86 host: ISSA cells cost 1.17x NSSA cells at the same
#: solver iteration count; cells of one scheme agree within the host's
#: timing noise.  A run weighs each cell by its cost, so its throughput
#: and latency do not depend on which cells the seed picks.
PAPER_COST = {"nssa": 0.95, "issa": 1.11}
SETTINGS["paper_cost"] = PAPER_COST


def paper_cost(item: Tuple[int, int]) -> float:
    from repro.core.paper import grid_cells
    return PAPER_COST[grid_cells("2")[item[1]].scheme]


def paper_items(run: Run) -> List[Tuple[int, int]]:
    """Seeded order of the whole pool; no cell repeats, so every run
    misses the cache."""
    items = paper_pool()
    run.rng.shuffle(items)
    return items


def paper_key(mc_seed: int, index: int) -> str:
    return f"{mc_seed}/{index}"


def run_paper_cell(mc_seed: int, index: int, cache=None):
    from repro.core.calibration import default_mc_settings
    from repro.core.experiment import run_cell
    from repro.core.paper import grid_cells
    cell = grid_cells("2")[index]
    return run_cell(cell, settings=default_mc_settings(seed=mc_seed),
                    cache=cache)


def paper_fingerprint(result) -> Dict[str, Any]:
    return {"digest": stats.cell_digest(result.offset.offsets,
                                        result.offset.spec),
            "delay_s": result.delay_s, "row": result.row()}


def paper_table2(run: Run) -> None:
    from repro.core.cache import ResultCache
    time_setup_probe(run)
    cache = ResultCache(pathlib.Path(run.workdir, "results"))
    expected = run.reference["paper-table2"]

    def op(item: Tuple[int, int]) -> float:
        mc_seed, index = item
        with run.span("experiment.run_cell"):
            result = run_paper_cell(mc_seed, index, cache=cache)
        got = paper_fingerprint(result)
        want = expected[paper_key(mc_seed, index)]
        if got["digest"] != want["digest"] or not stats.delays_match(
                [got["delay_s"]], [want["delay_s"]]):
            raise AssertionError(f"cell {item} differs from reference: "
                                 f"{got['row']} vs {want['row']}")
        return paper_cost(item)

    measure(run, paper_items(run), op, cost=paper_cost)


# -- bank-256x16 --------------------------------------------------------------

def bank_spec(seed: int):
    from repro.array.spec import ArraySpec
    return ArraySpec(rows=BANK["rows"], columns=BANK["columns"],
                     mc=BANK["mc"], seed=seed)


def run_bank(seed: int) -> Dict[str, Any]:
    from repro.array.engine import ArrayEngine
    return ArrayEngine(bank_spec(seed),
                       workers=BANK["workers"]).compare(("nssa", "issa"))


def bank_columns(seed: int) -> int:
    spec = bank_spec(seed)
    return 2 * len(spec.times_s) * spec.columns


def bank_256x16(run: Run) -> None:
    time_setup_probe(run)
    expected = run.reference["bank-256x16"]
    seeds = list(BANK_SEEDS)
    run.rng.shuffle(seeds)

    def op(seed: int) -> float:
        with run.span("array.compare"):
            doc = run_bank(seed)
        if not stats.bank_matches(stats.bank_fingerprint(doc),
                                  expected[str(seed)]):
            raise AssertionError(f"bank seed {seed} differs from reference")
        return float(bank_columns(seed))

    measure(run, seeds, op, pool_workers=True)


# -- fleet-mixed --------------------------------------------------------------

def run_fleet(seed: int) -> Dict[str, Any]:
    from repro.fleet.engine import FleetEngine
    from repro.fleet.spec import FleetSpec, MitigationPolicy
    spec = FleetSpec(n_devices=FLEET["n_devices"], seed=seed)
    engine = FleetEngine(spec, workers=FLEET["workers"])
    return engine.compare([MitigationPolicy("nssa"),
                           MitigationPolicy("issa")])


def fleet_mixed(run: Run) -> None:
    time_setup_probe(run)
    expected = run.reference["fleet-mixed"]
    seeds = list(FLEET_SEEDS)
    run.rng.shuffle(seeds)

    def op(seed: int) -> float:
        with run.span("fleet.compare"):
            doc = run_fleet(seed)
        if stats.doc_digest(doc) != expected[str(seed)]:
            raise AssertionError(f"fleet seed {seed} differs from "
                                 f"reference")
        return 2.0 * FLEET["n_devices"]

    measure(run, seeds, op)


# -- service-http -------------------------------------------------------------

def service_request(cell: Tuple, seed: int) -> Dict[str, Any]:
    scheme, workload, time_s, temp_c, vdd = cell
    return {"scheme": scheme, "workload": workload, "time_s": time_s,
            "temp_c": temp_c, "vdd": vdd, "mc": SERVICE["mc"],
            "seed": seed}


def service_pool() -> List[Dict[str, Any]]:
    """Distinct cell-job requests (wire dicts) the load draws from."""
    from repro.core.paper import TABLE2_GRID
    return [service_request(cell, seed) for seed in SERVICE_SEEDS
            for cell in TABLE2_GRID]


def service_fresh(run: Run, n: int) -> List[Dict[str, Any]]:
    """``n`` distinct new requests, the Table-II cells in equal shares.

    Round ``k`` holds every cell once, each with its own Monte-Carlo
    seed, so the mix of cell costs is the same in every run and the
    seed changes populations and order only.
    """
    from repro.core.paper import TABLE2_GRID
    seeds = {cell: run.rng.sample(SERVICE_SEEDS, len(SERVICE_SEEDS))
             for cell in TABLE2_GRID}
    out = []
    for k in range(min(len(SERVICE_SEEDS),
                       -(-n // len(TABLE2_GRID)))):
        out += [service_request(cell, seeds[cell][k])
                for cell in TABLE2_GRID]
    out = out[:n]
    run.rng.shuffle(out)
    return out


def request_key(request: Dict[str, Any]) -> str:
    return ("{scheme}/{workload}/{time_s:g}/{temp_c:g}/{vdd:g}/"
            "{mc}/{seed}".format(**request))


def direct_row(request: Dict[str, Any]) -> Dict[str, Any]:
    """The row a direct ``run_cell`` gives for a service request."""
    from repro.core.experiment import run_cell
    from repro.service.jobs import JobRequest
    job = JobRequest(**request)
    return run_cell(job.to_cell(), **job.run_kwargs()).row()


def rows_match(got: Dict[str, Any], want: Dict[str, Any]) -> bool:
    """Rows equal; ``delay_ps`` is rounded to 0.01 ps, so allow one step
    for a sub-femtosecond kernel-flavor difference on a rounding edge."""
    if set(got) != set(want):
        return False
    return all(abs(got[k] - want[k]) <= 0.0100001 if k == "delay_ps"
               else got[k] == want[k] for k in got)


def service_schedule(run: Run) -> List[Tuple[float, Dict[str, Any], bool]]:
    """``(due offset [s], request, is_repeat)`` for an open loop.

    Slots are evenly spaced at ``rate_per_s``.  A fixed share of the
    slots repeats a request first due at least ``repeat_min_age_s``
    earlier (done by then below the knee); the rest are distinct new
    requests (see :func:`service_fresh`).
    """
    rate = SERVICE["rate_per_s"]
    n = max(2, int(run.seconds * rate))
    min_gap = math.ceil(SERVICE["repeat_min_age_s"] * rate)
    eligible = list(range(min_gap, n))
    n_repeat = min(len(eligible), round(n * SERVICE["repeat_share"]))
    repeats = set(run.rng.sample(eligible, n_repeat))
    fresh = service_fresh(run, n - n_repeat)
    if len(fresh) < n - n_repeat:
        raise ValueError("service pool too small for --seconds")
    schedule: List[Tuple[float, Dict[str, Any], bool]] = []
    first_due: List[int] = []
    for slot in range(n):
        due = slot / rate
        if slot in repeats:
            old = [i for i in first_due if i <= slot - min_gap]
            schedule.append((due, schedule[run.rng.choice(old)][1], True))
        else:
            schedule.append((due, fresh.pop(), False))
            first_due.append(slot)
    return schedule


def start_server(run: Run, tag: str) -> Tuple[subprocess.Popen, str, float]:
    """Start ``repro serve`` on a free port; time it until ``/healthz``."""
    from repro.service.client import HttpClient
    base = os.path.join(run.workdir, f"service-{tag}")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", str(SERVICE["workers"]),
         "--shards", str(SERVICE["shards"]),
         "--service-dir", os.path.join(base, "jobs"),
         "--cache-dir", os.path.join(base, "results")],
        env=run.env, cwd=run.root, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True)
    try:
        line = proc.stdout.readline()
        match = re.search(r"http://[\d.]+:\d+", line)
        if match is None:
            raise RuntimeError(f"server did not report its address: "
                               f"{line!r}")
        url = match.group(0)
        client = HttpClient(url, timeout_s=10.0)
        deadline = time.monotonic() + 60.0
        while not client.healthy():
            if time.monotonic() > deadline or proc.poll() is not None:
                raise RuntimeError("server never became healthy")
            time.sleep(0.01)
    except BaseException:
        stop_server(proc)
        raise
    return proc, url, time.perf_counter() - start


def stop_server(proc: subprocess.Popen) -> None:
    """SIGTERM (graceful drain), then kill; always reap the process."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10.0)
    if proc.stdout is not None:
        proc.stdout.close()


def post_json(url: str, body: Dict[str, Any]) -> Dict[str, Any]:
    """POST a JSON body and return the JSON reply (raises on HTTP errors)."""
    request = urllib.request.Request(
        url, data=json.dumps(body).encode(), method="POST",
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=10.0) as reply:
        return json.loads(reply.read().decode())


def server_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def service_http(run: Run) -> None:
    from repro.service.client import HttpClient
    from repro.service.jobs import TERMINAL
    for index in range(SETUP_REPEATS - 1):
        proc, _, elapsed = start_server(run, f"setup{index}")
        run.setup_s.append(elapsed)
        stop_server(proc)
    proc, url, elapsed = start_server(run, "load")
    run.setup_s.append(elapsed)
    try:
        _drive_service(run, HttpClient(url, timeout_s=10.0), TERMINAL, proc)
    finally:
        stop_server(proc)


def open_loop(schedule: List[Tuple[float, Any]],
              send: Callable[[Any], Any],
              clock: Callable[[], float] = time.time,
              sleep: Callable[[float], None] = time.sleep,
              ) -> List[Dict[str, Any]]:
    """Send each payload at its due offset, never waiting on the system.

    Returns one record per entry with the absolute ``due``, ``sent`` and
    ``answered`` clock readings and the ``reply`` (or ``error``).
    Callers time each request from ``due``, so a stall that makes later
    sends late is charged to every request it delays; ``sent - due`` is
    the generator's lateness.  The default clock is wall time so it is
    comparable with the job documents' timestamps.
    """
    start = clock()
    records = []
    for due, payload in schedule:
        due_at = start + due
        pause = due_at - clock()
        if pause > 0:
            sleep(pause)
        sent = clock()
        reply, error = None, None
        try:
            reply = send(payload)
        except Exception as exc:  # noqa: BLE001 — the caller counts it
            error = exc
        records.append({"due": due_at, "sent": sent, "answered": clock(),
                        "reply": reply, "error": error})
    return records


def _drain(run: Run, client, submits: List[Dict[str, Any]], terminal,
           timeout_s: float = 60.0,
           ) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, str],
                      List[float]]:
    """Poll until every submitted job is terminal (bounded).

    Returns the final job documents, the status error of each job whose
    status query failed (the caller fails each submission once) and the
    status round-trip times.
    """
    status_rtt: List[float] = []
    docs: Dict[str, Dict[str, Any]] = {}
    errors: Dict[str, str] = {}
    deadline = time.monotonic() + timeout_s
    waiting = {s["id"] for s in submits}
    while waiting and time.monotonic() < deadline:
        for job_id in sorted(waiting):
            sent = time.perf_counter()
            try:
                with run.span("service.status"):
                    doc = client.status(job_id)
            except Exception as exc:  # noqa: BLE001 — counted as failed
                errors[job_id] = repr(exc)
                waiting.discard(job_id)
                continue
            status_rtt.append(time.perf_counter() - sent)
            if doc.get("state") in terminal:
                docs[job_id] = doc
                waiting.discard(job_id)
        if waiting:
            time.sleep(0.05)
    return docs, errors, status_rtt


def _drive_service(run: Run, client, terminal, proc) -> None:
    expected = run.reference["service-http"]
    schedule = service_schedule(run)
    limit = LIMIT_S["service-http"]
    to_perf = time.perf_counter() - time.time()
    with run.span("run") as root:
        def send(request: Dict[str, Any]) -> Dict[str, Any]:
            with run.span("service.submit"):
                return post_json(client.base_url + "/submit",
                                 {"request": request, "priority": 0})

        records = open_loop([(due, request) for due, request, _ in schedule],
                            send)
        submits: List[Dict[str, Any]] = []
        for record, (_, request, repeat) in zip(records, schedule):
            run.attempted += 1
            if record["error"] is not None:
                run.fail(f"submit: {record['error']!r}")
                continue
            reply = record["reply"]
            submits.append(dict(record, request=request, repeat=repeat,
                                id=reply["id"], state=reply["state"]))
        late = [r["sent"] - r["due"] for r in records]
        submit_rtt = [r["answered"] - r["sent"] for r in records]
        docs, status_errors, status_rtt = _drain(run, client, submits,
                                                 terminal)
        metrics = client.metrics()
        run.peak_rss_mb = server_peak_rss_mb(proc.pid)

    misses: List[float] = []
    hits: List[float] = []
    queue_wait: List[float] = []
    runs: List[Tuple[float, float]] = []
    for sub in submits:
        doc = docs.get(sub["id"])
        if sub["id"] in status_errors:
            run.fail(f"status {sub['id']}: {status_errors[sub['id']]}")
            continue
        if doc is None:
            run.fail(f"job {sub['id']} not terminal after drain")
            continue
        if doc["state"] != "done":
            run.fail(f"job {sub['id']} {doc['state']}: {doc.get('error')}")
            continue
        want = expected.get(request_key(sub["request"]))
        if want is None or not rows_match(doc["result_row"], want):
            run.fail(f"job {sub['id']} row {doc['result_row']} != {want}")
            continue
        if sub["repeat"]:
            known = (sub["answered"] if sub["state"] == "done"
                     else max(doc["finished_at"], sub["answered"]))
            latency = known - sub["due"]
            hits.append(latency)
        else:
            latency = doc["finished_at"] - sub["due"]
            misses.append(latency)
            if not doc.get("from_cache") and doc.get("started_at"):
                queue_wait.append(doc["started_at"] - doc["submitted_at"])
                runs.append((doc["started_at"], doc["finished_at"]))
            if run.tracer is not None:
                run.tracer.add("service.job", sub["due"] + to_perf,
                               doc["finished_at"] + to_perf, root.token[0])
                job = run.tracer.spans[-1]["id"]
                if doc.get("started_at"):
                    run.tracer.add("service.queue_wait",
                                   doc["submitted_at"] + to_perf,
                                   doc["started_at"] + to_perf, job)
                    run.tracer.add("service.run",
                                   doc["started_at"] + to_perf,
                                   doc["finished_at"] + to_perf, job)
        run.in_limit += latency <= limit
    run.latencies = misses
    run.work = float(len(runs))
    run.busy_s = covered(runs, min((a for a, _ in runs), default=0.0),
                         max((b for _, b in runs), default=0.0))
    run.notes.append(f"hits n={len(hits)} misses n={len(misses)}")

    perf = metrics.get("perf", {"counters": {}})
    run.layer.update(perf_layer(perf, max(1, len(runs))))
    miss_p50 = stats.percentile(misses, 50.0) if misses else 0.0
    share = (lambda xs: stats.percentile(xs, 50.0) / miss_p50
             if xs and miss_p50 else 0.0)
    dedup = metrics.get("dedup", {})
    n_jobs = max(1, len({s["id"] for s in submits}))
    run.layer.update({
        "service.queue_wait_frac": share(queue_wait),
        "service.run_frac": share([b - a for a, b in runs]),
        "service.hit_to_miss_frac": share(hits),
        "service.submit_rtt_frac": share(submit_rtt),
        "service.status_rtt_frac": share(status_rtt),
        "service.batch_mean_size": float(
            metrics.get("batches", {}).get("mean_size", 0.0)),
        "service.journal_bytes_per_job": float(
            metrics.get("store", {}).get("journal_bytes", 0)) / n_jobs,
        "service.dedup_hit_frac": (
            (dedup.get("hits", 0) + dedup.get("cache_short_circuits", 0))
            / max(1, dedup.get("submissions", 0))),
        "service.generator_late_frac": (
            stats.percentile(late, 90.0) * SERVICE["rate_per_s"]
            if late else 0.0),
    })


# -- per-layer metrics ----------------------------------------------------------

#: Per-layer metrics: (name, unit, better).  Shares are of the traced
#: busy time (self times summed over every process), counts are per
#: operation (cell, bank compare, fleet compare, new service job).
LAYERS = ("spice", "testbench", "offset", "montecarlo", "experiment",
          "cache", "parallel", "array", "fleet", "service")
PER_LAYER = (
    [(f"{layer}.self_frac", "frac", "lower") for layer in LAYERS]
    + [("trace.unattributed_frac", "frac", "lower"),
       ("trace.overhead_frac", "frac", "lower"),
       ("newton.sample_iterations", "count", "lower"),
       ("transient.sample_steps", "count", "lower"),
       ("transient.steps_saved_frac", "frac", "higher"),
       ("transient.warm_reject_frac", "frac", "lower"),
       ("spice.backend.fallback_steps", "count", "lower"),
       ("testbench.builds", "count", "lower"),
       ("offset.bisection_iterations", "count", "lower"),
       ("parallel.tasks", "count", "lower"),
       ("fleet.blocks", "count", "lower"),
       ("cache.hit_frac", "frac", "higher"),
       ("service.queue_wait_frac", "frac", "lower"),
       ("service.run_frac", "frac", "lower"),
       ("service.hit_to_miss_frac", "frac", "lower"),
       ("service.submit_rtt_frac", "frac", "lower"),
       ("service.status_rtt_frac", "frac", "lower"),
       ("service.batch_mean_size", "count", "higher"),
       ("service.journal_bytes_per_job", "B", "lower"),
       ("service.dedup_hit_frac", "frac", "higher"),
       ("service.generator_late_frac", "frac", "lower")])


def perf_layer(snapshot: Dict[str, Any], ops: int) -> Dict[str, float]:
    """Per-operation counts and ratios from a ``PERF`` snapshot."""
    c = snapshot.get("counters", {})
    per_op = max(1, ops)
    saved = c.get("transient.sample_steps_saved", 0)
    steps = c.get("transient.sample_steps", 0)
    seeds = c.get("transient.warm_seeds", 0)
    requests = c.get("cache.requests", 0)
    return {
        "newton.sample_iterations":
            c.get("newton.sample_iterations", 0) / per_op,
        "transient.sample_steps": steps / per_op,
        "transient.steps_saved_frac":
            saved / (saved + steps) if saved + steps else 0.0,
        "transient.warm_reject_frac":
            c.get("transient.warm_rejects", 0) / seeds if seeds else 0.0,
        "spice.backend.fallback_steps":
            c.get("spice.backend.fallback_steps", 0) / per_op,
        "offset.bisection_iterations":
            c.get("offset.bisection_iterations", 0) / per_op,
        "parallel.tasks": (c.get("array.tasks", 0)
                           + c.get("fleet.chunks", 0)) / per_op,
        "fleet.blocks": c.get("fleet.blocks", 0) / per_op,
        "cache.hit_frac":
            c.get("cache.hits", 0) / requests if requests else 0.0,
    }


def trace_layer(run: Run, worker_overhead: float) -> Dict[str, float]:
    """Layer self-time shares and trace accounting from the span tree."""
    spans = run.tracer.spans
    root = next(s for s in spans
                if s["name"] == "run" and s["parent"] is None)
    acct = accounting(spans, root["id"])
    busy = acct["self_sum_s"] or 1.0
    per_layer = layer_self(spans)
    out = {f"{layer}.self_frac": per_layer.get(layer, 0.0) / busy
           for layer in LAYERS}
    out["trace.unattributed_frac"] = acct["root_self_s"] / busy
    out["trace.overhead_frac"] = (run.tracer.overhead_s
                                  + worker_overhead) / busy
    out["testbench.builds"] = sum(
        1 for s in spans if s["name"] == "testbench.build") \
        / max(1, len(run.latencies))
    run.notes.append(
        "trace accounting: wall {wall_s:.3f} s, summed self {self_sum_s:.3f}"
        " s, concurrent overlap {overlap_s:.3f} s, unattributed "
        "{root_self_s:.3f} s".format(**acct))
    return out


def install_tracing(run: Run) -> None:
    """Wrap each layer's entry points where their callers look them up."""
    import repro.array.characterizer as characterizer
    import repro.array.engine as array_engine
    import repro.core.experiment as experiment
    import repro.core.parallel as parallel
    import repro.core.testbench as testbench
    import repro.fleet.engine as fleet_engine
    from repro.core.cache import ResultCache

    t = run.tracer
    for owner in (experiment, characterizer):
        t.wrap(owner, "extract_offsets", "offset.extract")
        t.wrap(owner, "fit_offsets", "offset.fit")
        t.wrap(owner, "_delay_components", "experiment.delay")
    t.wrap(experiment, "sample_total_shifts", "montecarlo.sample")
    t.wrap(experiment, "build_design", "experiment.build_design")
    t.wrap(experiment, "resolve_backend", "spice.resolve_backend")
    t.wrap(testbench, "run_transient", "spice.transient")
    cls = testbench.SenseAmpTestbench
    t.wrap(cls, "__init__", "testbench.build")
    t.wrap(cls, "set_vth_shifts", "testbench.set_shifts")
    t.wrap(cls, "resolve_sign", "testbench.resolve_sign")
    t.wrap(cls, "resolve_sign_pair", "testbench.resolve_sign_pair")
    t.wrap(cls, "sensing_delay", "testbench.sensing_delay")
    t.wrap(ResultCache, "key_for_cell", "cache.key")
    t.wrap(ResultCache, "load", "cache.lookup")
    t.wrap(ResultCache, "store", "cache.store")
    t.wrap(characterizer, "characterize_column", "array.column")
    t.wrap(characterizer, "build_column_design", "array.build_design")
    t.wrap(characterizer, "column_mismatch", "montecarlo.column_mismatch")
    t.wrap(characterizer, "column_aging", "montecarlo.column_aging")
    t.wrap(array_engine.ArrayEngine, "characterize", "array.characterize")
    t.wrap(array_engine.ArrayEngine, "_bank_summary", "array.aggregate")
    t.wrap(array_engine, "run_tasks", "parallel.run_tasks")
    t.wrap_worker_entry(parallel, "_run_task", "parallel.task")
    t.wrap(fleet_engine, "run_tasks", "parallel.run_tasks")
    t.wrap(fleet_engine.FleetEngine, "evaluate", "fleet.evaluate")
    t.wrap(fleet_engine, "_evaluate_chunk", "fleet.chunk")
    t.wrap(fleet_engine, "evaluate_block", "fleet.evaluate_block")
    t.wrap(fleet_engine, "block_stats", "fleet.block_stats")
    t.wrap(fleet_engine, "_merge_year", "fleet.merge")
    t.wrap(fleet_engine, "_year_summary", "fleet.summary")


WORKLOADS: Dict[str, Callable[[Run], None]] = {
    "paper-table2": paper_table2,
    "bank-256x16": bank_256x16,
    "fleet-mixed": fleet_mixed,
    "service-http": service_http,
}
