"""Client APIs for the characterisation service.

:class:`Client` wraps an in-process :class:`~repro.service.service
.Service`; :class:`HttpClient` speaks the same five verbs to a
``python -m repro serve`` instance over HTTP (stdlib only).  Both
expose ``submit / status / result / cancel / wait`` so callers can
switch transports without code changes; the in-process ``result``
returns the full :class:`~repro.core.experiment.CellResult`, the HTTP
one the JSON row payload.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.parse
import urllib.request
from typing import Any, Dict, Optional, Union

from .jobs import JobRequest, Request, TERMINAL
from .service import Service, ServiceError


class Client:
    """In-process client: thin veneer over a running :class:`Service`."""

    def __init__(self, service: Service) -> None:
        self.service = service

    def submit(self, request: Union[Request, Dict[str, Any], None]
               = None, priority: int = 0, **fields) -> str:
        """Queue work; returns the job id (the content-address key).

        Accepts a request of any kind, a dict, or bare cell fields
        (``client.submit(scheme="issa", workload="80r0", ...)``).
        """
        if request is None:
            request = JobRequest(**fields)
        elif fields:
            raise TypeError("pass either a request or keyword fields")
        return self.service.submit(request, priority=priority).id

    def status(self, job_id: str) -> Dict[str, Any]:
        return self.service.status(job_id)

    def result(self, job_id: str):
        return self.service.result(job_id)

    def cancel(self, job_id: str) -> bool:
        return self.service.cancel(job_id)

    def wait(self, job_id: str, timeout: Optional[float] = None
             ) -> Dict[str, Any]:
        return self.service.wait(job_id, timeout=timeout)


class HttpClient:
    """Remote client for the JSON-over-HTTP frontend (stdlib only)."""

    def __init__(self, base_url: str, timeout_s: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s

    # -- transport -------------------------------------------------------

    def _call(self, method: str, path: str,
              params: Optional[Dict[str, str]] = None,
              body: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        url = self.base_url + path
        if params:
            url += "?" + urllib.parse.urlencode(params)
        data = None
        headers = {}
        if body is not None:
            data = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(url, data=data, method=method,
                                         headers=headers)
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout_s) as resp:
                return json.loads(resp.read().decode())
        except urllib.error.HTTPError as exc:
            try:
                detail = json.loads(exc.read().decode()).get("error")
            except Exception:  # noqa: BLE001 — error body is best-effort
                detail = None
            raise ServiceError(detail
                               or f"HTTP {exc.code} on {path}") from exc

    # -- the five verbs --------------------------------------------------

    def submit(self, request: Union[Request, Dict[str, Any], None]
               = None, priority: int = 0, **fields) -> str:
        if request is None:
            request = JobRequest(**fields)
        elif fields:
            raise TypeError("pass either a request or keyword fields")
        if not isinstance(request, dict):
            request = request.to_dict()
        doc = self._call("POST", "/submit",
                         body={"request": request, "priority": priority})
        return doc["id"]

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._call("GET", "/status", params={"id": job_id})

    def result(self, job_id: str) -> Dict[str, Any]:
        return self._call("GET", "/result", params={"id": job_id})

    def cancel(self, job_id: str) -> bool:
        doc = self._call("POST", "/cancel", params={"id": job_id})
        return bool(doc.get("cancelled"))

    def wait(self, job_id: str, timeout: Optional[float] = None,
             poll_s: float = 0.05) -> Dict[str, Any]:
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        while True:
            doc = self.status(job_id)
            if doc.get("state") in TERMINAL:
                return doc
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(f"job {job_id} still "
                                   f"{doc.get('state')}")
            time.sleep(poll_s)

    # -- the worker protocol (used by RemoteWorker) ----------------------

    def claim(self, worker: str, max_batch: int = 8,
              lease_s: Optional[float] = 60.0) -> list:
        """Claim a batch of jobs for ``worker``; returns job dicts."""
        doc = self._call("POST", "/claim",
                         body={"worker": worker, "max_batch": max_batch,
                               "lease_s": lease_s})
        return doc.get("jobs", [])

    def heartbeat(self, worker: str, job_ids: list,
                  lease_s: float = 60.0) -> int:
        doc = self._call("POST", "/heartbeat",
                         body={"worker": worker, "ids": list(job_ids),
                               "lease_s": lease_s})
        return int(doc.get("renewed", 0))

    def ack_done(self, worker: str, job_id: str,
                 row: Dict[str, Any]) -> Dict[str, Any]:
        return self._call("POST", "/ack",
                          body={"worker": worker, "id": job_id,
                                "row": row})

    def ack_error(self, worker: str, job_id: str, error: str,
                  batchable: Optional[bool] = None) -> Dict[str, Any]:
        body = {"worker": worker, "id": job_id, "error": error}
        if batchable is not None:
            body["batchable"] = batchable
        return self._call("POST", "/ack", body=body)

    def ack_release(self, worker: str, job_id: str,
                    reason: str) -> Dict[str, Any]:
        return self._call("POST", "/ack",
                          body={"worker": worker, "id": job_id,
                                "release": True, "error": reason})

    # -- observability ---------------------------------------------------

    def metrics(self) -> Dict[str, Any]:
        return self._call("GET", "/metrics")

    def healthy(self) -> bool:
        try:
            return bool(self._call("GET", "/healthz").get("ok"))
        except (ServiceError, OSError):
            return False

    def shutdown(self) -> Dict[str, Any]:
        return self._call("POST", "/shutdown")
