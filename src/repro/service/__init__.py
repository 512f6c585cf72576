"""Campaign-as-a-service: the long-running HTTP measurement service.

The paper's measurement campaign was a living system — a browser
extension population submitting readings to a collection server over
months, with operators watching progress and recovering from partial
failure.  This package is the repo's analogue: a dependency-light
stdlib HTTP service that accepts campaign submissions (the canonical
``CampaignConfig`` JSON codec), drives the campaign executor (local
fabric workers for a multi-shard campaign) in the background, streams
shard lifecycle events *and* the exact Table 1/3 cells of the shards
completed so far over Server-Sent Events, pages results straight off
the ``DatasetBackend``, and supports cooperative cancel plus
fingerprint-validated resume over the campaign's checkpoint directory
— bit-identical to an uninterrupted run.  See DESIGN.md §12.

Quickstart::

    python -m repro.experiments serve --port 8000

    curl -X POST localhost:8000/v1/campaigns \\
        -d '{"config": {"duration_s": 86400, "request_fraction": 0.05}}'
    curl -N localhost:8000/v1/campaigns/c-0001/events
    curl 'localhost:8000/v1/campaigns/c-0001/results?kind=page_loads&limit=5'
"""

from __future__ import annotations

from repro.service.app import CampaignHTTPServer, make_server, serve
from repro.service.errors import ApiError
from repro.service.events import TERMINAL_EVENT_TYPES, EventLog, format_sse
from repro.service.runner import (
    TERMINAL_STATES,
    Campaign,
    CampaignService,
)

__all__ = [
    "ApiError",
    "Campaign",
    "CampaignHTTPServer",
    "CampaignService",
    "EventLog",
    "TERMINAL_EVENT_TYPES",
    "TERMINAL_STATES",
    "format_sse",
    "make_server",
    "serve",
]
