"""The campaign service HTTP API, end to end over localhost.

A real ``CampaignHTTPServer`` on an ephemeral port, driven through
``http.client`` with socket timeouts (no test may hang the suite):

* the read-only surface: health, experiment metadata, the unified
  ``{"error": {...}}`` payload on every failure route;
* a records campaign driven to completion — SSE lifecycle ordering,
  incremental aggregates converging to the exact dataset values,
  results pagination/column projection bit-identical to a serial
  in-process run;
* the service's aggregate fold, exact for any shard count and any
  order the shards land in;
* the full cancel/resume lifecycle of ISSUE.md: a scripted slow fault
  pins one worker, the other shard checkpoints, cancel lands mid-run,
  and a ``resume_from`` resubmission adopts the surviving shard and
  finishes bit-identical to the uninterrupted serial dataset.
"""

import json
import statistics
import threading
import time
from http.client import HTTPConnection

import pytest

from repro.analysis.streaming import group_columns
from repro.extension.campaign import CampaignConfig, ExtensionCampaign
from repro.extension.storage import _median, page_load_to_dict, speedtest_to_dict
from repro.runtime import CheckpointStore, plan_campaign, run_shard
from repro.runtime.checkpoint import campaign_fingerprint
from repro.service import TERMINAL_STATES, make_server
from repro.service.aggregates import CampaignAggregates
from repro.service.events import EventLog, format_sse

#: Small-but-real campaign: ~1.7k page loads across two cities.
DATA = dict(duration_s=86_400.0, request_fraction=0.05, seed=3)

#: Socket timeout on every API connection — a wedged server fails the
#: test instead of hanging the suite (pytest-timeout is CI's backstop).
HTTP_TIMEOUT_S = 180.0

TERMINAL_EVENTS = {"campaign_completed", "campaign_failed", "campaign_cancelled"}


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    server = make_server(
        service_dir=str(tmp_path_factory.mktemp("service-dir"))
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture(scope="module")
def port(server):
    return server.server_address[1]


@pytest.fixture(scope="module")
def serial_dataset():
    """The uninterrupted in-process reference run of ``DATA``."""
    return ExtensionCampaign(CampaignConfig(**DATA)).run()


def api(port, method, path, body=None):
    conn = HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT_S)
    try:
        conn.request(
            method, path, body=json.dumps(body) if body is not None else None
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def wait_terminal(port, campaign_id, deadline_s=HTTP_TIMEOUT_S):
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        _, status = api(port, "GET", f"/v1/campaigns/{campaign_id}")
        if status["state"] in TERMINAL_STATES:
            return status
        time.sleep(0.1)
    raise AssertionError(f"campaign {campaign_id} never reached a terminal state")


def read_sse(response, stop_types):
    """Parse SSE frames off a streaming response until a stop type.

    Returns ``(events, stopped_type)`` where each event is the parsed
    ``{"id": ..., "event": ..., "data": {...}}`` frame; ``stopped_type``
    is ``None`` when the stream ended without matching.
    """
    events, current = [], {}
    while True:
        line = response.readline()
        if not line:
            return events, None
        line = line.decode("utf-8").rstrip("\n")
        if line.startswith(":"):  # keepalive comment
            continue
        if line == "":
            if current:
                events.append(current)
                event_type = current.get("data", {}).get("type")
                if event_type in stop_types:
                    return events, event_type
                current = {}
            continue
        key, _, value = line.partition(": ")
        current[key] = json.loads(value) if key == "data" else value


def stream_events(port, campaign_id, stop_types, after=None):
    """One-shot SSE fetch: open, read until a stop type, close."""
    suffix = f"?after={after}" if after is not None else ""
    conn = HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT_S)
    try:
        conn.request("GET", f"/v1/campaigns/{campaign_id}/events{suffix}")
        return read_sse(conn.getresponse(), stop_types)
    finally:
        conn.close()


def expected_page_load_cells(dataset):
    """Exact Table-1-shaped cells computed straight off the records."""
    groups: dict = {}
    for record in dataset.page_loads:
        key = (record.city, bool(record.is_starlink))
        values, domains = groups.setdefault(key, ([], set()))
        values.append(record.ptt_ms)
        domains.add(record.domain)
    return {
        key: {
            "n_requests": len(values),
            "n_domains": len(domains),
            "median_ptt_ms": statistics.median(values),
        }
        for key, (values, domains) in groups.items()
    }


# -- read-only surface -----------------------------------------------------


def test_health(port):
    assert api(port, "GET", "/v1/health") == (200, {"status": "ok"})


def test_experiments_metadata(port):
    status, payload = api(port, "GET", "/v1/experiments")
    assert status == 200
    experiments = {entry["id"]: entry for entry in payload["experiments"]}
    assert "table1" in experiments
    table1 = experiments["table1"]
    assert table1["artifact"] == "table"
    assert table1["summary"]
    assert {"name", "default"} <= set(table1["knobs"][0])
    for entry in experiments.values():
        assert set(entry) == {"id", "summary", "artifact", "knobs"}


@pytest.mark.parametrize(
    "method,path,body,status,code",
    [
        ("GET", "/v1/nope", None, 404, "not_found"),
        ("GET", "/v1/campaigns/c-9999", None, 404, "not_found"),
        ("POST", "/v1/health", None, 405, "method_not_allowed"),
        ("GET", "/nothing", None, 404, "not_found"),
        ("POST", "/v1/campaigns", {"config": {"sed": 1}}, 400, "invalid_config"),
        ("POST", "/v1/campaigns", {"configg": {}}, 400, "invalid_request"),
        ("POST", "/v1/campaigns", {"mode": "tables"}, 400, "invalid_request"),
        (
            "POST",
            "/v1/campaigns",
            {"faults": [{"shard_id": 0, "kind": "explode"}]},
            400,
            "invalid_request",
        ),
        (
            "POST",
            "/v1/campaigns",
            {"config": {}, "resume_from": "c-9999"},
            404,
            "not_found",
        ),
        (
            "POST",
            "/v1/campaigns",
            {"config": {}, "resume_from": 9999},
            400,
            "invalid_request",
        ),
    ],
)
def test_error_surface_is_uniform(port, method, path, body, status, code):
    got_status, payload = api(port, method, path, body)
    assert got_status == status
    assert set(payload) == {"error"}
    assert set(payload["error"]) == {"code", "message", "detail"}
    assert payload["error"]["code"] == code
    assert payload["error"]["message"]


def test_invalid_json_body(port):
    conn = HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT_S)
    try:
        conn.request("POST", "/v1/campaigns", body=b"{not json")
        response = conn.getresponse()
        payload = json.loads(response.read())
    finally:
        conn.close()
    assert response.status == 400
    assert payload["error"]["code"] == "invalid_json"


def test_invalid_config_error_names_the_key(port):
    _, payload = api(port, "POST", "/v1/campaigns", {"config": {"sed": 1}})
    assert "'sed'" in payload["error"]["message"]
    assert "seed" in payload["error"]["message"]  # known keys listed


# -- a records campaign driven to completion -------------------------------


@pytest.fixture(scope="module")
def records_campaign(port):
    status, submitted = api(
        port, "POST", "/v1/campaigns", {"config": dict(DATA)}
    )
    assert status == 202
    assert submitted["state"] in ("pending", "running")
    final = wait_terminal(port, submitted["id"])
    assert final["state"] == "completed", final
    return final


def test_campaign_status_document(records_campaign):
    status = records_campaign
    assert "mode" not in status  # the worker count picks the placement
    assert status["error"] is None
    assert status["cancel_requested"] is False
    assert status["config"]["seed"] == DATA["seed"]
    # the service injected only execution-only defaults: the identity
    # is exactly the submitted data-affecting fields'
    assert status["fingerprint"] == campaign_fingerprint(
        CampaignConfig(**DATA)
    )
    result = status["result"]
    assert result["n_page_loads"] > 0
    assert result["resumed_shards"] == 0
    assert result["n_failures"] == 0


def test_campaign_listing_includes_campaign(port, records_campaign):
    _, payload = api(port, "GET", "/v1/campaigns")
    assert records_campaign["id"] in {
        entry["id"] for entry in payload["campaigns"]
    }


def test_event_log_replay_orders_lifecycle(port, records_campaign):
    events, stopped = read_all_events(port, records_campaign["id"])
    assert stopped == "campaign_completed"
    types = [event["data"]["type"] for event in events]
    assert types[0] == "campaign_accepted"
    assert types[1] == "campaign_started"
    assert "campaign_planned" in types
    assert "shard_completed" in types
    # incremental aggregates land before the terminal event (the live
    # convergence ISSUE.md requires), and a final snapshot before close
    assert types.index("aggregate_partial") < types.index("campaign_completed")
    assert "aggregate_final" in types
    # ids are the replayable cursor: contiguous from 0
    assert [int(event["id"]) for event in events] == list(range(len(events)))


def read_all_events(port, campaign_id, after=None):
    return stream_events(port, campaign_id, TERMINAL_EVENTS, after=after)


def test_event_replay_cursor_skips_seen_events(port, records_campaign):
    events, _ = read_all_events(port, records_campaign["id"])
    tail, stopped = read_all_events(
        port, records_campaign["id"], after=int(events[-2]["id"])
    )
    assert stopped == "campaign_completed"
    assert [event["id"] for event in tail] == [events[-1]["id"]]


def test_results_rows_bit_identical_to_serial_run(
    port, records_campaign, serial_dataset
):
    campaign_id = records_campaign["id"]
    _, page = api(
        port,
        "GET",
        f"/v1/campaigns/{campaign_id}/results?kind=page_loads&limit=10000",
    )
    expected = json.loads(
        json.dumps([page_load_to_dict(r) for r in serial_dataset.page_loads])
    )
    assert page["total"] == len(expected)
    assert page["rows"] == expected
    _, speed = api(
        port,
        "GET",
        f"/v1/campaigns/{campaign_id}/results?kind=speedtests&limit=10000",
    )
    assert speed["rows"] == json.loads(
        json.dumps([speedtest_to_dict(r) for r in serial_dataset.speedtests])
    )


def test_results_pagination_stitches_to_full_set(port, records_campaign):
    campaign_id = records_campaign["id"]
    _, full = api(
        port,
        "GET",
        f"/v1/campaigns/{campaign_id}/results?kind=page_loads&limit=10000",
    )
    stitched, offset = [], 0
    while offset < full["total"]:
        _, page = api(
            port,
            "GET",
            f"/v1/campaigns/{campaign_id}/results"
            f"?kind=page_loads&offset={offset}&limit=700",
        )
        assert page["offset"] == offset and page["limit"] == 700
        assert len(page["rows"]) <= 700
        stitched.extend(page["rows"])
        offset += 700
    assert stitched == full["rows"]


def test_results_column_projection(port, records_campaign, serial_dataset):
    campaign_id = records_campaign["id"]
    _, cols = api(
        port,
        "GET",
        f"/v1/campaigns/{campaign_id}/results"
        "?kind=page_loads&limit=50&columns=city,ptt_ms",
    )
    assert set(cols["columns"]) == {"city", "ptt_ms"}
    reference = serial_dataset.page_loads[:50]
    assert cols["columns"]["city"] == [r.city for r in reference]
    # ptt_ms is a derived property, not a stored column — the
    # projection matches the serial records bit for bit
    assert cols["columns"]["ptt_ms"] == [r.ptt_ms for r in reference]


@pytest.mark.parametrize(
    "suffix,code",
    [
        ("?kind=sideband", "invalid_request"),
        ("?limit=99999999", "invalid_request"),
        ("?offset=abc", "invalid_request"),
        ("?columns=no_such_column", "invalid_request"),
    ],
)
def test_results_validation_errors(port, records_campaign, suffix, code):
    status, payload = api(
        port, "GET", f"/v1/campaigns/{records_campaign['id']}/results{suffix}"
    )
    assert status == 400
    assert payload["error"]["code"] == code


def test_aggregates_match_exact_dataset_cells(
    port, records_campaign, serial_dataset
):
    _, payload = api(
        port,
        "GET",
        f"/v1/campaigns/{records_campaign['id']}/results?kind=aggregates",
    )
    expected = expected_page_load_cells(serial_dataset)
    cells = {
        (cell["city"], cell["is_starlink"]): cell
        for cell in payload["page_loads"]
    }
    assert set(cells) == set(expected)
    for key, cell in cells.items():
        assert cell["n_requests"] == expected[key]["n_requests"]
        assert cell["n_domains"] == expected[key]["n_domains"]
        assert cell["median_ptt_ms"] == expected[key]["median_ptt_ms"]
    assert sum(c["n_requests"] for c in cells.values()) == len(
        serial_dataset.page_loads
    )
    assert sum(c["n_tests"] for c in payload["speedtests"]) == len(
        serial_dataset.speedtests
    )


def test_cancel_after_completion_conflicts(port, records_campaign):
    status, payload = api(
        port, "POST", f"/v1/campaigns/{records_campaign['id']}/cancel"
    )
    assert status == 409
    assert payload["error"]["code"] == "conflict"


# -- the aggregate fold ----------------------------------------------------

#: ``DATA`` with speedtests in every cell.
SPEEDTEST_DATA = dict(DATA, speedtest_boost=500.0)


def exact_cells(dataset):
    """The aggregate payload of a dataset by Tables 1/3's own fold
    (``group_columns``) and median (``_median``)."""
    keys = ("city", "is_starlink")
    page_loads = group_columns(
        dataset.iter_page_load_column_chunks(keys + ("domain", "ptt_ms")),
        keys,
        values=("ptt_ms",),
        distinct=("domain",),
    )
    speedtests = group_columns(
        dataset.iter_speedtest_column_chunks(keys + ("download_mbps", "upload_mbps")),
        keys,
        values=("download_mbps", "upload_mbps"),
    )
    return {
        "page_loads": [
            {
                "city": city,
                "is_starlink": is_starlink,
                "n_requests": len(group["ptt_ms"]),
                "n_domains": len(group["domain"]),
                "median_ptt_ms": _median(group["ptt_ms"]),
            }
            for (city, is_starlink), group in page_loads.items()
        ],
        "speedtests": [
            {
                "city": city,
                "is_starlink": is_starlink,
                "n_tests": len(group["download_mbps"]),
                "median_download_mbps": _median(group["download_mbps"]),
                "median_upload_mbps": _median(group["upload_mbps"]),
            }
            for (city, is_starlink), group in speedtests.items()
        ],
    }


@pytest.fixture(scope="module")
def speedtest_cells():
    return exact_cells(ExtensionCampaign(CampaignConfig(**SPEEDTEST_DATA)).run())


@pytest.mark.parametrize("n_shards", [1, 2, 3])
def test_aggregate_fold_exact_for_any_shards_and_order(
    speedtest_cells, tmp_path, n_shards
):
    """Fresh shards folded in plan order and their checkpointed copies
    folded in reverse both give the serial dataset's cells, float for
    float."""
    assert speedtest_cells["speedtests"]
    config = CampaignConfig(**SPEEDTEST_DATA)
    _, planned = plan_campaign(config, n_shards)
    assert len(planned) == n_shards
    fresh = [run_shard(config, shard_id, indices) for shard_id, indices in planned]
    store = CheckpointStore(str(tmp_path), config)
    for result in fresh:
        store.save(result)
    stored = [store.load(shard_id, indices) for shard_id, indices in reversed(planned)]
    for results in (fresh, stored):
        aggregates = CampaignAggregates()
        for result in results:
            aggregates.fold(result)
        assert aggregates.payload() == speedtest_cells


def test_sketch_mode_is_rejected(port):
    """No submission names a mode any more: the worker count picks the
    placement, and a body that still names one is an unknown key."""
    for mode in ("sketch", "records", "fabric"):
        status, payload = api(
            port, "POST", "/v1/campaigns", {"config": dict(DATA), "mode": mode}
        )
        assert status == 400
        assert payload["error"]["code"] == "invalid_request"
        assert "unknown submission key(s) ['mode']" in payload["error"]["message"]


# -- campaigns on fabric worker processes ----------------------------------


@pytest.fixture(scope="module")
def fabric_campaign(port):
    _, submitted = api(
        port,
        "POST",
        "/v1/campaigns",
        {"config": {**DATA, "n_workers": 2}},
    )
    final = wait_terminal(port, submitted["id"])
    assert final["state"] == "completed", final
    return final


def test_fabric_campaign_results_identical_to_serial(
    port, fabric_campaign, serial_dataset
):
    """A two-worker campaign over HTTP serves the bit-identical rows:
    lease-dispatched workers, manifest merge, same dataset."""
    assert fabric_campaign["fabric_dir"]
    # fabric workers are separate processes under a threaded parent, so
    # the service forces spawn
    assert fabric_campaign["config"]["mp_start_method"] == "spawn"
    _, page = api(
        port,
        "GET",
        f"/v1/campaigns/{fabric_campaign['id']}/results"
        "?kind=page_loads&limit=10000",
    )
    expected = json.loads(
        json.dumps([page_load_to_dict(r) for r in serial_dataset.page_loads])
    )
    assert page["total"] == len(expected)
    assert page["rows"] == expected


def test_fabric_event_stream_carries_lease_transitions(
    port, fabric_campaign
):
    events, stopped = read_all_events(port, fabric_campaign["id"])
    assert stopped == "campaign_completed"
    types = [event["data"]["type"] for event in events]
    assert "campaign_planned" in types
    assert "lease_claimed" in types
    assert "shard_completed" in types
    assert types.index("lease_claimed") < types.index("shard_completed")


def test_event_stream_ends_with_its_one_terminal_event(port, fabric_campaign):
    """The coordinator's own ``campaign_completed`` stays in its log:
    the stream carries one terminal event, the service's, and it comes
    last, after ``aggregate_final``."""
    events, stopped = stream_events(port, fabric_campaign["id"], set())
    assert stopped is None  # read until the server closed the stream
    types = [event["data"]["type"] for event in events]
    assert [t for t in types if t in TERMINAL_EVENTS] == ["campaign_completed"]
    assert types[-2:] == ["aggregate_final", "campaign_completed"]


def test_fabric_workers_view(port, fabric_campaign):
    status, payload = api(
        port, "GET", f"/v1/campaigns/{fabric_campaign['id']}/workers"
    )
    assert status == 200
    assert payload["id"] == fabric_campaign["id"]
    assert payload["state"] == "completed"
    assert payload["planned"] is True
    assert payload["terminal"] == "DONE"
    assert payload["completed_shards"] == payload["n_shards"] > 0
    assert payload["leases"] == []  # every lease was released
    for worker in payload["workers"]:
        assert {"worker_id", "state", "heartbeat_age_s"} <= set(worker)


def test_retired_fabric_store_key_rejected_as_unknown(port):
    """The fabric coordinates through its own directory only, so a
    submission that still names a ``fabric_store`` is refused with the
    unknown-key error rather than silently ignored."""
    for value in ("fs", "object"):
        body = {"config": dict(DATA), "fabric_store": value}
        status, payload = api(port, "POST", "/v1/campaigns", body)
        assert status == 400
        assert payload["error"]["code"] == "invalid_request"
        assert "unknown submission key(s) ['fabric_store']" in (
            payload["error"]["message"]
        )


def test_workers_view_conflicts_for_records_campaigns(
    port, records_campaign
):
    status, payload = api(
        port, "GET", f"/v1/campaigns/{records_campaign['id']}/workers"
    )
    assert status == 409
    assert payload["error"]["code"] == "conflict"
    assert "fabric" in payload["error"]["message"]


# -- cancel / resume lifecycle (the ISSUE.md E2E) --------------------------


@pytest.mark.slow
def test_cancel_resume_lifecycle_bit_identical(port, serial_dataset):
    """Submit → SSE → cancel mid-run → resume → bit-identical dataset.

    A scripted slow fault pins shard 1's first attempt for far longer
    than the test runs, so shard 0 completes and checkpoints while the
    campaign is provably mid-flight; the spill storage backend also
    exercises segment-backed pagination end to end.
    """
    config = {**DATA, "n_workers": 2, "storage": "spill"}
    faults = [{"shard_id": 1, "attempt": 0, "kind": "slow", "delay_s": 300.0}]
    status, submitted = api(
        port, "POST", "/v1/campaigns", {"config": config, "faults": faults}
    )
    assert status == 202
    campaign_id = submitted["id"]
    # the service picked spawn (threaded parent) and the campaign's own
    # checkpoint directory without changing the campaign identity
    assert submitted["config"]["mp_start_method"] == "spawn"
    assert submitted["config"]["checkpoint_dir"]
    # n_workers/storage/faults are execution-only: same identity as the
    # serial reference campaign
    assert submitted["fingerprint"] == campaign_fingerprint(
        CampaignConfig(**DATA)
    )

    conn = HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT_S)
    try:
        conn.request("GET", f"/v1/campaigns/{campaign_id}/events")
        response = conn.getresponse()
        events, stopped = read_sse(
            response, {"shard_completed"} | TERMINAL_EVENTS
        )
        # shard 0 finished; the campaign is still running on shard 1
        assert stopped == "shard_completed", [
            event["data"]["type"] for event in events
        ]
        partials = [
            event["data"]
            for event in events
            if event["data"]["type"] == "aggregate_partial"
        ]
        assert partials, "no incremental aggregate before completion"
        assert partials[-1]["completed_shards"] == 1
        assert partials[-1]["page_loads"]

        # results are a conflict while the campaign runs
        status, payload = api(
            port, "GET", f"/v1/campaigns/{campaign_id}/results"
        )
        assert status == 409 and payload["error"]["code"] == "conflict"

        status, cancelled = api(
            port, "POST", f"/v1/campaigns/{campaign_id}/cancel"
        )
        assert status == 200 and cancelled["cancel_requested"]
        _, stopped = read_sse(response, TERMINAL_EVENTS)
        assert stopped == "campaign_cancelled"
    finally:
        conn.close()

    final = wait_terminal(port, campaign_id)
    assert final["state"] == "cancelled"
    status, payload = api(port, "GET", f"/v1/campaigns/{campaign_id}/results")
    assert status == 409  # cancelled runs have no results

    # resume: only the lost shard re-runs, off the surviving checkpoint
    status, resumed = api(
        port,
        "POST",
        "/v1/campaigns",
        {"config": config, "resume_from": campaign_id},
    )
    assert status == 202
    final = wait_terminal(port, resumed["id"])
    assert final["state"] == "completed", final
    assert final["result"]["resumed_shards"] == 1
    assert final["result"]["n_shards"] == 2

    _, page = api(
        port,
        "GET",
        f"/v1/campaigns/{resumed['id']}/results?kind=page_loads&limit=10000",
    )
    expected = json.loads(
        json.dumps([page_load_to_dict(r) for r in serial_dataset.page_loads])
    )
    assert page["rows"] == expected
    # and the final aggregates cover every record exactly once
    _, aggregates = api(
        port, "GET", f"/v1/campaigns/{resumed['id']}/results?kind=aggregates"
    )
    assert sum(c["n_requests"] for c in aggregates["page_loads"]) == len(
        expected
    )

    # a data-affecting change refuses to adopt the checkpoints
    status, payload = api(
        port,
        "POST",
        "/v1/campaigns",
        {"config": {**config, "seed": DATA["seed"] + 1}, "resume_from": campaign_id},
    )
    assert status == 400
    assert payload["error"]["code"] == "invalid_request"
    assert set(payload["error"]["detail"]) == {
        "source_fingerprint",
        "fingerprint",
    }


def test_resume_from_a_running_campaign_conflicts(port):
    """Two coordinators must never share one campaign directory: a
    resume of a campaign that has not reached a terminal state is a
    409, and the source runs on undisturbed."""
    config = {**DATA, "n_workers": 2}
    faults = [{"shard_id": 1, "attempt": 0, "kind": "slow", "delay_s": 300.0}]
    status, submitted = api(
        port, "POST", "/v1/campaigns", {"config": config, "faults": faults}
    )
    assert status == 202
    campaign_id = submitted["id"]
    try:
        status, payload = api(
            port,
            "POST",
            "/v1/campaigns",
            {"config": config, "resume_from": campaign_id},
        )
        assert status == 409, payload
        assert payload["error"]["code"] == "conflict"
        assert campaign_id in payload["error"]["message"]
        _, source = api(port, "GET", f"/v1/campaigns/{campaign_id}")
        assert source["state"] not in TERMINAL_STATES
    finally:
        api(port, "POST", f"/v1/campaigns/{campaign_id}/cancel")
        assert wait_terminal(port, campaign_id)["state"] == "cancelled"


# -- event-log unit behaviour ----------------------------------------------


def test_event_log_replay_and_close_semantics():
    log = EventLog()
    assert log.append({"type": "a"}) == 0
    assert log.append({"type": "b"}) == 1
    # the argument is the first index wanted (the SSE layer passes
    # ``after + 1``)
    batch, drained = log.events_after(1, timeout=0.01)
    assert [event for _, event in batch] == [{"type": "b"}]
    assert not drained
    # waiting past the end times out empty until the log closes
    batch, drained = log.events_after(2, timeout=0.01)
    assert batch == [] and not drained
    log.close()
    batch, drained = log.events_after(2, timeout=0.01)
    assert batch == [] and drained
    assert len(log) == 2


def test_format_sse_frame_shape():
    frame = format_sse(3, {"type": "shard_completed", "shard_id": 1})
    lines = frame.decode("utf-8").split("\n")
    assert lines[0] == "id: 3"
    assert lines[1] == "event: shard_completed"
    assert lines[2].startswith("data: ")
    assert json.loads(lines[2][len("data: ") :]) == {
        "shard_id": 1,
        "type": "shard_completed",
    }
    assert frame.endswith(b"\n\n")
