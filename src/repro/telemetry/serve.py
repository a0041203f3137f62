"""Live telemetry endpoint: /metrics, /healthz, /traces over stdlib HTTP.

The ROADMAP's live-service item needs the Prometheus telemetry exposed
on an HTTP endpoint; this module is that endpoint, dependency-free
(``http.server``) and cheap enough to run beside any CLI invocation via
``splitdetect run ... --serve-telemetry PORT``.

The server never touches engine internals directly: it reads a
:class:`TelemetryPublisher`, a tiny mutable holder the run loop updates
(single-process runs point it at the live registry and tracer; sharded
runs publish the merged registry and trace snapshot when the merge
completes).  Handlers run on daemon threads, so a hung scrape can never
stall packet processing, and every response is computed fresh per
request -- ``/metrics`` is the same text :func:`to_prometheus` writes
to ``--telemetry-out``, plus the profile quantile series.

Endpoint contract (see DESIGN.md "Tracing & live observability"):

- ``GET /metrics``  -> ``text/plain`` Prometheus exposition of the
  current registry (404-free even before the run starts: an empty
  registry exposes zero series);
- ``GET /healthz``  -> ``application/json`` ``{"status": "ok", ...}``
  with packet/alert progress counters;
- ``GET /traces``   -> ``application/json`` span list (the flight
  recorder's current ring), filterable with ``?trace=<hex id>`` or
  ``?flow=<substring>``.
"""

from __future__ import annotations

import hmac
import json
import threading
import time
from typing import TYPE_CHECKING, Any
from urllib.parse import parse_qs, urlparse

from .export import to_prometheus
from .profile import stage_profile
from .registry import NULL_REGISTRY

if TYPE_CHECKING:
    from http.server import BaseHTTPRequestHandler as _HandlerBase
else:
    # ``http.server`` (with the email package it pulls in) is ~2 MB of
    # resident memory (1.9-2.4 MB measured on CPython 3.11); it is
    # imported when a server is made, so a run without a live endpoint
    # never pays for it.
    _HandlerBase = object

__all__ = ["TelemetryPublisher", "TelemetryServer", "TelemetrySession"]


class TelemetryPublisher:
    """Mutable bridge between a running pipeline and the HTTP server.

    The run loop owns it and may swap ``registry`` / ``trace_snapshot``
    / ``health`` at any time (assignment is atomic under the GIL); the
    server only ever reads.  ``refresh`` is an optional callable the
    server invokes before serving ``/metrics`` so point-in-time gauges
    are sampled at scrape time (single-process runs wire it to
    ``engine.refresh_telemetry``).

    Service mode (``splitdetect serve``) wires three more read hooks --
    ``source_state`` / ``shed_state`` / ``tenants_state``, each a
    zero-argument callable returning a JSON-safe dict -- and one write
    hook: ``on_reload``, invoked by an authenticated ``POST /reload``.
    ``reload_token`` guards that endpoint; with no token configured the
    endpoint refuses outright (an unauthenticated rule swap is worse
    than none).
    """

    def __init__(self) -> None:
        self.registry: Any = NULL_REGISTRY
        self.trace_snapshot: dict[str, Any] = {}
        self.health: dict[str, Any] = {"status": "starting"}
        self.refresh: Any = None
        self.started = time.monotonic()
        self.source_state: Any = None
        self.shed_state: Any = None
        self.tenants_state: Any = None
        self.reload_token: str | None = None
        self.on_reload: Any = None

    def healthz(self) -> dict[str, Any]:
        """The /healthz body: liveness plus whatever hooks are wired."""
        body = dict(self.health)
        body["uptime_seconds"] = round(time.monotonic() - self.started, 3)
        source_state = self.source_state
        if source_state is not None:
            body["source"] = source_state()
        shed_state = self.shed_state
        if shed_state is not None:
            body["shed"] = shed_state()
        return body

    def metrics_text(self) -> str:
        refresh = self.refresh
        if refresh is not None:
            refresh()
        registry = self.registry
        text = to_prometheus(registry)
        profile = stage_profile(registry)
        if profile:
            lines = [
                "# HELP repro_profile_stage_latency_ns Stage latency quantiles "
                "estimated from the stage histogram",
                "# TYPE repro_profile_stage_latency_ns gauge",
            ]
            for stage in sorted(profile["stages"]):
                entry = profile["stages"][stage]
                for key in sorted(entry):
                    if key.startswith("p") and key.endswith("_ns"):
                        quantile = key[1:-3]
                        lines.append(
                            f'repro_profile_stage_latency_ns{{stage="{stage}",'
                            f'quantile="0.{quantile}"}} {entry[key]:.1f}'
                        )
            text += "\n".join(lines) + "\n"
        return text

    def spans(self, trace: str | None, flow: str | None) -> list[dict[str, Any]]:
        spans = self.trace_snapshot.get("spans", [])
        if trace:
            wanted = trace.lower().lstrip("0x")
            spans = [s for s in spans if s.get("trace", "").lstrip("0") == wanted.lstrip("0")]
        if flow:
            spans = [s for s in spans if flow in s.get("flow", "")]
        return spans


class _Handler(_HandlerBase):
    """The endpoint's requests; mixed into ``BaseHTTPRequestHandler``
    (and bound to a publisher) by :class:`TelemetryServer`."""

    publisher: TelemetryPublisher  # set by TelemetryServer per-class

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # scrapes must not spam the run's stdout

    def _send(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        parsed = urlparse(self.path)
        publisher = self.publisher
        try:
            if parsed.path == "/metrics":
                self._send(
                    200,
                    "text/plain; version=0.0.4; charset=utf-8",
                    publisher.metrics_text().encode("utf-8"),
                )
            elif parsed.path == "/healthz":
                self._send(
                    200,
                    "application/json",
                    (json.dumps(publisher.healthz(), sort_keys=True) + "\n").encode(),
                )
            elif parsed.path == "/shed":
                self._send_hook(publisher.shed_state, "load shedding")
            elif parsed.path == "/tenants":
                self._send_hook(publisher.tenants_state, "tenancy")
            elif parsed.path == "/traces":
                query = parse_qs(parsed.query)
                spans = publisher.spans(
                    query.get("trace", [None])[0], query.get("flow", [None])[0]
                )
                snapshot = publisher.trace_snapshot
                body = json.dumps(
                    {
                        "recorded": snapshot.get("recorded", 0),
                        "dropped": snapshot.get("dropped", 0),
                        "sample": snapshot.get("sample", 1),
                        "spans": spans,
                    },
                    sort_keys=True,
                )
                self._send(200, "application/json", (body + "\n").encode())
            else:
                self._send(404, "text/plain", b"not found\n")
        except BrokenPipeError:
            pass  # scraper went away mid-response; nothing to clean up

    def _send_hook(self, hook: Any, what: str) -> None:
        """Serve a wired read hook as JSON, 404 when the mode lacks it."""
        if hook is None:
            self._send(
                404, "text/plain", f"{what} is not active on this run\n".encode()
            )
            return
        self._send(
            200,
            "application/json",
            (json.dumps(hook(), sort_keys=True) + "\n").encode(),
        )

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        parsed = urlparse(self.path)
        publisher = self.publisher
        try:
            if parsed.path != "/reload":
                self._send(404, "text/plain", b"not found\n")
                return
            token = publisher.reload_token
            if not token or publisher.on_reload is None:
                self._send(
                    503,
                    "text/plain",
                    b"reload is not enabled (start with --reload-token)\n",
                )
                return
            supplied = self.headers.get("Authorization", "")
            if not hmac.compare_digest(supplied, f"Bearer {token}"):
                self._send(401, "text/plain", b"bad or missing bearer token\n")
                return
            # Drain any request body (clients may POST an empty JSON);
            # reload parameters live server-side by design -- the rules
            # path is operator configuration, not scraper input.
            length = int(self.headers.get("Content-Length") or 0)
            if length:
                self.rfile.read(min(length, 1 << 16))
            try:
                result = publisher.on_reload()
            except Exception as exc:  # surfaced to the caller, run survives
                body = json.dumps({"status": "error", "error": str(exc)})
                self._send(500, "application/json", (body + "\n").encode())
                return
            body = json.dumps(
                {"status": "ok", **(result or {})}, sort_keys=True
            )
            self._send(200, "application/json", (body + "\n").encode())
        except BrokenPipeError:
            pass


class TelemetryServer:
    """A daemon-threaded HTTP server around one :class:`TelemetryPublisher`."""

    def __init__(
        self,
        publisher: TelemetryPublisher,
        *,
        port: int = 0,
        host: str = "127.0.0.1",
    ) -> None:
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        self.publisher = publisher
        handler = type(
            "_BoundHandler", (_Handler, BaseHTTPRequestHandler), {"publisher": publisher}
        )
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        host = self._httpd.server_address[0]
        return f"http://{host}:{self.port}"

    def start(self) -> "TelemetryServer":
        thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="telemetry-serve",
            daemon=True,
        )
        thread.start()
        self._thread = thread
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()


class TelemetrySession:
    """Publisher + server lifecycle as one context manager.

    The one place endpoint startup/shutdown lives: ``splitdetect run``
    and ``splitdetect serve`` both enter this instead of hand-wiring a
    :class:`TelemetryPublisher` / :class:`TelemetryServer` pair.  A
    ``port`` of ``None`` disables the whole thing -- every method is a
    cheap no-op and ``enabled`` is False -- so call sites need no
    conditional plumbing.

    On a clean exit the session marks the published health ``finished``
    and optionally holds the endpoint open ``hold`` seconds for a last
    scrape; on an exception it tears down immediately.
    """

    def __init__(
        self,
        port: int | None,
        *,
        host: str = "127.0.0.1",
        hold: float | None = None,
        announce: Any = print,
    ) -> None:
        self.hold = hold
        self._host = host
        self._port = port
        self._announce = announce
        self.publisher: TelemetryPublisher | None = (
            TelemetryPublisher() if port is not None else None
        )
        self.server: TelemetryServer | None = None

    @property
    def enabled(self) -> bool:
        return self.publisher is not None

    @property
    def url(self) -> str | None:
        return self.server.url if self.server is not None else None

    def update_health(self, **fields: Any) -> None:
        """Merge fields into the published health dict (no-op when off)."""
        if self.publisher is not None:
            self.publisher.health = {**self.publisher.health, **fields}

    def publish_registry(self, registry: Any, *, refresh: Any = None) -> None:
        if self.publisher is not None and registry is not None:
            self.publisher.registry = registry
            if refresh is not None:
                self.publisher.refresh = refresh

    def publish_trace(self, snapshot: dict[str, Any] | None) -> None:
        if self.publisher is not None:
            self.publisher.trace_snapshot = snapshot or {}

    def __enter__(self) -> "TelemetrySession":
        if self.publisher is not None and self._port is not None:
            self.server = TelemetryServer(
                self.publisher, port=self._port, host=self._host
            ).start()
            if self._announce is not None:
                self._announce(
                    f"telemetry endpoint: {self.server.url} "
                    "(/metrics /healthz /traces)"
                )
        return self

    def __exit__(self, exc_type: Any, *exc: Any) -> None:
        server = self.server
        if server is None:
            return
        if exc_type is None:
            self.update_health(status="ok", finished=True)
            if self.hold is not None and self.hold > 0:
                if self._announce is not None:
                    self._announce(
                        f"holding telemetry endpoint {server.url} "
                        f"for {self.hold:g}s"
                    )
                time.sleep(self.hold)
        server.stop()
        self.server = None
