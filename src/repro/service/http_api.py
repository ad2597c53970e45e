"""Stdlib-only JSON-over-HTTP frontend for the job service.

``python -m repro serve --port 8972`` binds a threading HTTP server in
front of one :class:`~repro.service.service.Service`:

=========  ========  ====================================================
endpoint   method    semantics
=========  ========  ====================================================
/healthz   GET       liveness probe — ``{"ok": true}``
/submit    POST      body ``{"request": {...}, "priority": 0}`` →
                     ``{"id", "state", "deduped"}`` (dedup is free:
                     resubmitting returns the existing job).  The
                     request's ``"kind"`` is ``"cell"`` (the default),
                     ``"fleet"`` or ``"array"``
                     (:data:`~repro.service.jobs.KINDS`); a fleet or
                     array ``/result`` row is the comparison document.
/status    GET       ``?id=`` → full job record; 404 when unknown
/result    GET       ``?id=`` → ``{"id", "row"}`` when done; 404 when
                     unknown, 409 with the state/error otherwise
/cancel    POST      ``?id=`` → ``{"cancelled": bool}`` (pending only)
/claim     POST      body ``{"worker": "...", "max_batch": 8,
                     "lease_s": 60}`` → ``{"jobs": [job docs]}``; the
                     remote-worker intake (jobs lease to ``worker``)
/heartbeat POST      body ``{"worker": "...", "ids": [...],
                     "lease_s": 60}`` → ``{"renewed": n}``
/ack       POST      body ``{"worker", "id"}`` plus one of ``"row"``
                     (done), ``"error"`` (retry-or-fail, optional
                     ``"batchable"``), ``"release": true`` (hand back
                     untouched) → ``{"id", "state"}``; 409 on a
                     double ack or a stale lease
/metrics   GET       queue depth, per-shard depth, batch sizes,
                     dedup/cache hit rates, lease expiries, active
                     workers, retries/timeouts and the perf counters
/shutdown  POST      drain gracefully and stop the server (also wired
                     to SIGTERM when run via the CLI)
=========  ========  ====================================================

Errors are JSON: ``{"error": "..."}`` with a 4xx/5xx status — 400 for
a malformed body (e.g. a claim without a worker name), 404 for an
unknown job or route, 409 for an ack the lease protocol rejects.  The
server threads only touch the thread-safe scheduler surface, so any
number of concurrent clients may mix submissions, polls and worker
claims.
"""

from __future__ import annotations

import contextlib
import json
import signal
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from .scheduler import AckError, UnknownJobError
from .service import Service, ServiceError

#: Default TCP port (no meaning; "8972" ~ "VYRA" on a phone keypad).
DEFAULT_PORT = 8972


class ServiceHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server carrying the service reference."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int],
                 service: Service) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.shutdown_requested = threading.Event()


class _Handler(BaseHTTPRequestHandler):
    server: ServiceHTTPServer

    # -- plumbing --------------------------------------------------------

    def _reply(self, status: int, doc: Dict[str, Any]) -> None:
        blob = json.dumps(doc).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def _error(self, status: int, message: str) -> None:
        self._reply(status, {"error": message})

    def _query(self) -> Dict[str, str]:
        query = urllib.parse.urlparse(self.path).query
        return {key: values[0] for key, values
                in urllib.parse.parse_qs(query).items()}

    def _body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if not length:
            return {}
        return json.loads(self.rfile.read(length).decode())

    def log_message(self, *args) -> None:  # quiet by default
        pass

    # -- routes ----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        route = urllib.parse.urlparse(self.path).path
        try:
            if route == "/healthz":
                self._reply(200, {"ok": True})
            elif route == "/status":
                self._job_route(lambda jid:
                                (200, self.server.service.status(jid)))
            elif route == "/result":
                self._job_route(self._result)
            elif route == "/metrics":
                self._reply(200, self.server.service.metrics())
            else:
                self._error(404, f"no route {route}")
        except ServiceError as exc:
            self._error(404, str(exc))
        except Exception as exc:  # noqa: BLE001 — report, don't die
            self._error(500, repr(exc))

    def do_POST(self) -> None:  # noqa: N802
        route = urllib.parse.urlparse(self.path).path
        try:
            if route == "/submit":
                self._submit()
            elif route == "/cancel":
                self._job_route(lambda jid: (
                    200,
                    {"id": jid,
                     "cancelled": self.server.service.cancel(jid)}))
            elif route == "/claim":
                self._claim()
            elif route == "/heartbeat":
                self._heartbeat()
            elif route == "/ack":
                self._ack()
            elif route == "/shutdown":
                self._reply(200, {"draining": True})
                self.server.shutdown_requested.set()
            else:
                self._error(404, f"no route {route}")
        except UnknownJobError as exc:
            self._error(404, str(exc))
        except AckError as exc:
            # Double ack / stale lease: the protocol conflict code.
            self._error(409, str(exc))
        except ServiceError as exc:
            self._error(404, str(exc))
        except (ValueError, TypeError) as exc:
            self._error(400, str(exc))
        except Exception as exc:  # noqa: BLE001
            self._error(500, repr(exc))

    def _job_route(self, handler) -> None:
        job_id = self._query().get("id")
        if not job_id:
            self._error(400, "missing ?id=<job id>")
            return
        status, doc = handler(job_id)
        self._reply(status, doc)

    def _submit(self) -> None:
        body = self._body()
        if not isinstance(body, dict):
            raise ValueError("body must be a JSON object")
        request = body.get("request", body)
        if not isinstance(request, dict):
            raise ValueError("'request' must be a JSON object")
        priority = body.get("priority", 0)
        if isinstance(priority, bool) or not isinstance(priority, int):
            raise ValueError(
                f"'priority' must be an integer, got {priority!r}")
        request = {k: v for k, v in request.items() if k != "priority"}
        job, deduped = self.server.service.submit_info(
            request, priority=priority)
        self._reply(200, {"id": job.id, "state": job.state,
                          "deduped": deduped,
                          "from_cache": job.from_cache})

    # -- the worker protocol ---------------------------------------------

    def _worker_body(self) -> Tuple[str, Dict[str, Any]]:
        """Parse and validate the common ``{"worker": ...}`` body."""
        body = self._body()
        if not isinstance(body, dict):
            raise ValueError("body must be a JSON object")
        worker = body.get("worker")
        if not isinstance(worker, str) or not worker:
            raise ValueError("malformed claim: 'worker' must be a "
                             "non-empty string")
        return worker, body

    def _claim(self) -> None:
        worker, body = self._worker_body()
        max_batch = body.get("max_batch", 8)
        lease_s = body.get("lease_s", 60.0)
        if not isinstance(max_batch, int) or max_batch < 1:
            raise ValueError("malformed claim: 'max_batch' must be a "
                             "positive integer")
        if lease_s is not None \
                and (not isinstance(lease_s, (int, float))
                     or lease_s <= 0):
            raise ValueError("malformed claim: 'lease_s' must be a "
                             "positive number (or null)")
        jobs = self.server.service.claim(worker, max_batch=max_batch,
                                         lease_s=lease_s)
        self._reply(200, {"worker": worker, "jobs": jobs})

    def _heartbeat(self) -> None:
        worker, body = self._worker_body()
        ids = body.get("ids", [])
        lease_s = body.get("lease_s", 60.0)
        if not isinstance(ids, list) \
                or not all(isinstance(jid, str) for jid in ids):
            raise ValueError("malformed heartbeat: 'ids' must be a "
                             "list of job ids")
        renewed = self.server.service.heartbeat(worker, ids,
                                                float(lease_s))
        self._reply(200, {"worker": worker, "renewed": renewed})

    def _ack(self) -> None:
        worker, body = self._worker_body()
        job_id = body.get("id")
        if not isinstance(job_id, str) or not job_id:
            raise ValueError("malformed ack: 'id' must be a job id")
        scheduler = self.server.service.scheduler
        if body.get("release"):
            job = scheduler.release(worker, job_id,
                                    body.get("error")
                                    or "released by worker")
        elif "row" in body:
            if not isinstance(body["row"], dict):
                raise ValueError("malformed ack: 'row' must be an "
                                 "object")
            job = scheduler.ack_done(worker, job_id, body["row"])
        elif "error" in body:
            batchable = body.get("batchable")
            if batchable is not None \
                    and not isinstance(batchable, bool):
                raise ValueError("malformed ack: 'batchable' must be "
                                 "a boolean")
            job = scheduler.ack_failed(worker, job_id,
                                       str(body["error"]),
                                       batchable=batchable)
        else:
            raise ValueError("malformed ack: need one of 'row', "
                             "'error' or 'release'")
        self._reply(200, {"id": job.id, "state": job.state,
                          "attempts": job.attempts})

    def _result(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        doc = self.server.service.status(job_id)
        if doc["state"] != "done":
            return 409, {"id": job_id, "state": doc["state"],
                         "error": doc.get("error")
                         or f"job is {doc['state']}"}
        return 200, {"id": job_id, "state": "done",
                     "row": doc["result_row"],
                     "from_cache": doc["from_cache"]}


def make_server(service: Service, host: str = "127.0.0.1",
                port: int = DEFAULT_PORT) -> ServiceHTTPServer:
    """Bind (``port=0`` picks a free port) without serving yet."""
    return ServiceHTTPServer((host, port), service)


def serve(service: Service, host: str = "127.0.0.1",
          port: int = DEFAULT_PORT,
          install_signal_handlers: bool = True,
          ready: Optional[threading.Event] = None) -> int:
    """Serve until SIGTERM/SIGINT//shutdown, then drain gracefully.

    Runs the accept loop in a helper thread and parks the calling
    thread on the shutdown event so POSIX signals interrupt it
    promptly.  The drain lets the in-flight batch finish and
    snapshots the job store before returning.
    """
    server = make_server(service, host, port)
    if install_signal_handlers:
        def _request_shutdown(signum, frame):
            server.shutdown_requested.set()
        signal.signal(signal.SIGTERM, _request_shutdown)
        signal.signal(signal.SIGINT, _request_shutdown)
    acceptor = threading.Thread(target=server.serve_forever,
                                name="repro-serve-accept", daemon=True)
    acceptor.start()
    host_, port_ = server.server_address[:2]
    print(f"repro service listening on http://{host_}:{port_} "
          f"(store: {service.store.directory})", flush=True)
    if ready is not None:
        ready.set()
    try:
        server.shutdown_requested.wait()
    finally:
        print("repro service draining...", flush=True)
        service.drain(timeout=None)
        server.shutdown()
        acceptor.join(timeout=5.0)
        with contextlib.suppress(OSError):
            server.server_close()
        print("repro service stopped.", flush=True)
    return 0
