"""The HTTP face of the campaign service (stdlib ``http.server``).

Dependency-light by design: a ``ThreadingHTTPServer`` with one
request-handler class routing the v1 API — no web framework, nothing
the container doesn't already ship.  Routes:

========  =================================  =================================
method    path                               purpose
========  =================================  =================================
GET       ``/v1/health``                     liveness probe
GET       ``/v1/experiments``                registry metadata (``describe_all``)
GET       ``/v1/campaigns``                  all campaign status documents
POST      ``/v1/campaigns``                  submit a campaign (202 + id)
GET       ``/v1/campaigns/{id}``             one campaign's status
POST      ``/v1/campaigns/{id}/cancel``      cooperative cancellation
GET       ``/v1/campaigns/{id}/events``      SSE lifecycle + aggregate stream
GET       ``/v1/campaigns/{id}/results``     paginated rows / columns / aggregates
GET       ``/v1/campaigns/{id}/workers``     live fabric lease/worker view
========  =================================  =================================

The events route streams Server-Sent Events over a chunked HTTP/1.1
response: the campaign's event log replays from the start (or from
``?after=<id>``) and then follows live until the terminal event.  All
errors — on every route — use the unified
``{"error": {"code", "message", "detail"}}`` shape of
:mod:`repro.service.errors`.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.errors import ConfigurationError, DatasetError
from repro.service.errors import (
    ApiError,
    conflict,
    internal,
    invalid_config,
    invalid_request,
    not_found,
)
from repro.service.events import format_sse
from repro.service.runner import TERMINAL_STATES, Campaign, CampaignService

#: Default/maximum page sizes of the results endpoint.
DEFAULT_PAGE_LIMIT = 100
MAX_PAGE_LIMIT = 10_000

#: Seconds an idle SSE stream waits before emitting a keepalive comment.
SSE_KEEPALIVE_S = 15.0


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes one HTTP request to the :class:`CampaignService` core."""

    protocol_version = "HTTP/1.1"

    # The default handler logs every request to stderr; the service
    # narrates through its API instead.
    def log_message(self, format, *args) -> None:  # noqa: A002
        pass

    @property
    def service(self) -> CampaignService:
        return self.server.service

    # -- plumbing ----------------------------------------------------------

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, error: ApiError) -> None:
        self._send_json(error.status, error.body())

    def _read_json_body(self):
        length = self.headers.get("Content-Length")
        try:
            n_bytes = int(length) if length is not None else 0
        except ValueError:
            raise invalid_request(
                f"unreadable Content-Length {length!r}"
            ) from None
        raw = self.rfile.read(n_bytes) if n_bytes else b""
        if not raw:
            return {}
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise ApiError(
                400, "invalid_json", f"request body is not valid JSON: {exc}"
            ) from exc

    def _dispatch(self, method: str) -> None:
        split = urlsplit(self.path)
        segments = [part for part in split.path.split("/") if part]
        query = parse_qs(split.query)
        try:
            self._route(method, segments, query)
        except ApiError as error:
            self._send_error(error)
        except ConfigurationError as exc:
            self._send_error(invalid_config(str(exc)))
        except DatasetError as exc:
            self._send_error(invalid_request(str(exc)))
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True
        except Exception as exc:  # noqa: BLE001 - 500, never a traceback
            self._send_error(internal(f"{type(exc).__name__}: {exc}"))

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    # -- routing -----------------------------------------------------------

    def _route(self, method: str, segments: list[str], query: dict) -> None:
        if len(segments) < 2 or segments[0] != "v1":
            raise not_found(f"no route {self.path!r}")
        head = segments[1]
        if head == "health" and len(segments) == 2:
            self._require(method, "GET")
            self._send_json(200, {"status": "ok"})
            return
        if head == "experiments" and len(segments) == 2:
            self._require(method, "GET")
            from repro.experiments import describe_all

            self._send_json(200, {"experiments": describe_all()})
            return
        if head != "campaigns":
            raise not_found(f"no route {self.path!r}")
        if len(segments) == 2:
            if method == "POST":
                campaign = self.service.submit(self._read_json_body())
                self._send_json(202, campaign.status())
            else:
                self._require(method, "GET")
                self._send_json(
                    200, {"campaigns": self.service.list_campaigns()}
                )
            return
        campaign_id = segments[2]
        if len(segments) == 3:
            self._require(method, "GET")
            self._send_json(200, self.service.get(campaign_id).status())
            return
        if len(segments) == 4:
            action = segments[3]
            if action == "cancel":
                self._require(method, "POST")
                campaign = self.service.cancel(campaign_id)
                self._send_json(200, campaign.status())
                return
            if action == "events":
                self._require(method, "GET")
                self._stream_events(self.service.get(campaign_id), query)
                return
            if action == "results":
                self._require(method, "GET")
                self._send_results(self.service.get(campaign_id), query)
                return
            if action == "workers":
                self._require(method, "GET")
                self._send_json(200, self.service.workers(campaign_id))
                return
        raise not_found(f"no route {self.path!r}")

    def _require(self, method: str, expected: str) -> None:
        if method != expected:
            raise ApiError(
                405,
                "method_not_allowed",
                f"{self.path} accepts {expected}, not {method}",
            )

    # -- SSE ---------------------------------------------------------------

    def _stream_events(self, campaign: Campaign, query: dict) -> None:
        index = self._query_int(query, "after", -1) + 1
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        try:
            while True:
                batch, drained = campaign.events.events_after(
                    index, timeout=SSE_KEEPALIVE_S
                )
                for event_id, event in batch:
                    self._write_chunk(format_sse(event_id, event))
                index += len(batch)
                if drained:
                    break
                if not batch:
                    self._write_chunk(b": keepalive\n\n")
            self._write_chunk(b"")
        except (BrokenPipeError, ConnectionResetError):
            pass
        finally:
            self.close_connection = True

    def _write_chunk(self, data: bytes) -> None:
        self.wfile.write(f"{len(data):X}\r\n".encode("ascii"))
        self.wfile.write(data)
        self.wfile.write(b"\r\n")
        self.wfile.flush()

    # -- results -----------------------------------------------------------

    def _query_int(self, query: dict, name: str, default: int) -> int:
        values = query.get(name)
        if not values:
            return default
        try:
            return int(values[-1])
        except ValueError:
            raise invalid_request(
                f"query parameter {name!r} must be an integer, "
                f"got {values[-1]!r}"
            ) from None

    def _send_results(self, campaign: Campaign, query: dict) -> None:
        from repro.extension.storage import (
            page_load_to_dict,
            speedtest_to_dict,
        )

        if campaign.state not in TERMINAL_STATES:
            raise conflict(
                f"campaign {campaign.id} is {campaign.state}; results are "
                "served once it reaches a terminal state (follow "
                "/events for live progress)"
            )
        if campaign.state != "completed":
            raise conflict(
                f"campaign {campaign.id} {campaign.state}; it has no results"
            )
        kind = (query.get("kind") or ["page_loads"])[-1]
        if kind == "aggregates":
            self._send_json(
                200,
                {
                    "kind": "aggregates",
                    **(
                        campaign.aggregates
                        or {"page_loads": [], "speedtests": []}
                    ),
                },
            )
            return
        if kind not in ("page_loads", "speedtests"):
            raise invalid_request(
                "kind must be one of ('page_loads', 'speedtests', "
                f"'aggregates'), got {kind!r}"
            )
        offset = self._query_int(query, "offset", 0)
        limit = self._query_int(query, "limit", DEFAULT_PAGE_LIMIT)
        if limit > MAX_PAGE_LIMIT:
            raise invalid_request(
                f"limit must be <= {MAX_PAGE_LIMIT}, got {limit}"
            )
        dataset = campaign.dataset
        if kind == "page_loads":
            total = dataset.n_page_loads
            records = dataset.page_load_slice(offset, limit)
            to_dict = page_load_to_dict
        else:
            total = dataset.n_speedtests
            records = dataset.speedtest_slice(offset, limit)
            to_dict = speedtest_to_dict
        columns_param = query.get("columns")
        payload = {
            "kind": kind,
            "offset": offset,
            "limit": limit,
            "total": total,
        }
        if columns_param:
            names = [
                name
                for part in columns_param
                for name in part.split(",")
                if name
            ]
            payload["columns"] = _record_columns(records, names)
        else:
            payload["rows"] = [to_dict(record) for record in records]
        self._send_json(200, payload)


def _record_columns(records, names: list[str]) -> dict[str, list]:
    """Column projection of a record slice (derived fields included).

    Works off the records' own attributes — ``ptt_ms``/``plt_ms`` are
    dataclass properties, so derived columns come out bit-identical to
    the row form.
    """
    columns: dict[str, list] = {}
    for name in names:
        try:
            columns[name] = [getattr(record, name) for record in records]
        except AttributeError:
            raise invalid_request(
                f"unknown result column {name!r}"
            ) from None
    return columns


class CampaignHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server owning one :class:`CampaignService`."""

    daemon_threads = True

    def __init__(self, address, service: CampaignService) -> None:
        self.service = service
        super().__init__(address, ServiceHandler)


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    service_dir: str | None = None,
) -> CampaignHTTPServer:
    """Build a ready-to-serve campaign server (``port=0`` = ephemeral).

    The caller drives ``serve_forever`` (tests run it on a thread);
    ``server.server_address`` carries the bound port.
    """
    return CampaignHTTPServer((host, port), CampaignService(service_dir))


def serve(
    host: str = "127.0.0.1",
    port: int = 8000,
    service_dir: str | None = None,
) -> int:
    """CLI entry point: serve until interrupted; returns an exit code."""
    server = make_server(host=host, port=port, service_dir=service_dir)
    bound_host, bound_port = server.server_address[:2]
    print(f"campaign service listening on http://{bound_host}:{bound_port}")
    print(f"service directory: {server.service.service_dir}")
    print("submit:  POST /v1/campaigns   stream: GET /v1/campaigns/<id>/events")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0
