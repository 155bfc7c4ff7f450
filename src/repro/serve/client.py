"""A small urllib client for the ``repro serve`` API.

Used by the end-to-end tests, the ``repro bench serve`` load bench and
the CI smoke job — and handy interactively:

>>> client = ServeClient("http://127.0.0.1:8601")
>>> job = client.submit({"experiment": {...}})          # doctest: +SKIP
>>> done = client.wait(job["id"])                       # doctest: +SKIP
>>> summary = client.report_bytes(job["id"], "json")    # doctest: +SKIP

Errors come back as :class:`ServeError` carrying the HTTP status and the
decoded error payload (including the server's ``problems`` list for 400s).
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

from repro.serve.schemas import JOB_STATES

__all__ = ["ServeClient", "ServeError"]


class ServeError(RuntimeError):
    """A non-2xx response from the serve API."""

    def __init__(self, status: int, payload: dict) -> None:
        self.status = status
        self.payload = payload
        problems = payload.get("problems") or []
        details = "".join(f"\n  - {problem}" for problem in problems)
        super().__init__(f"HTTP {status}: {payload.get('error', 'request failed')}{details}")


class ServeClient:
    """Minimal synchronous client over :mod:`urllib` (no dependencies)."""

    def __init__(self, base_url: str, *, timeout: float = 60.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------------
    def _request(self, method: str, path: str, body: dict | None = None) -> tuple[int, bytes]:
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            f"{self.base_url}{path}", data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            try:
                payload = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                payload = {"error": raw.decode("utf-8", "replace") or str(exc)}
            raise ServeError(exc.code, payload) from None

    def _json(self, method: str, path: str, body: dict | None = None) -> dict:
        _, raw = self._request(method, path, body)
        return json.loads(raw.decode("utf-8"))

    # ------------------------------------------------------------------
    def health(self) -> dict:
        return self._json("GET", "/v1/health")

    def store_stats(self) -> dict:
        return self._json("GET", "/v1/store/stats")

    def submit(self, payload: dict) -> dict:
        """POST a job body; returns the job snapshot (see ``JobView``)."""
        return self._json("POST", "/v1/jobs", payload)

    def jobs(self) -> list[dict]:
        return self._json("GET", "/v1/jobs")["jobs"]

    def job(self, job_id: str) -> dict:
        return self._json("GET", f"/v1/jobs/{job_id}")

    def wait(self, job_id: str, *, timeout: float = 300.0, poll: float = 0.1) -> dict:
        """Poll until the job leaves the queue; returns its final snapshot.

        Raises :class:`TimeoutError` if the job is still active after
        ``timeout`` seconds.  A failed job is returned, not raised — its
        ``error`` field says why.
        """
        deadline = time.monotonic() + timeout
        while True:
            view = self.job(job_id)
            if view["state"] in JOB_STATES[2:]:  # done or failed
                return view
            if time.monotonic() > deadline:
                raise TimeoutError(f"job {job_id} still {view['state']} after {timeout:g}s")
            time.sleep(poll)

    def report_bytes(self, job_id: str, fmt: str = "json") -> bytes:
        """The finished report, byte-for-byte as written on the server."""
        _, raw = self._request("GET", f"/v1/jobs/{job_id}/report?format={fmt}")
        return raw
