"""Per-campaign event logs and their SSE wire rendering.

Each campaign owns one append-only :class:`EventLog`.  The runner
thread appends lifecycle events (shard dispatch/completion/failure,
incremental aggregate partials, the terminal campaign event) as the
run produces them; any number of SSE streams replay the log from an
arbitrary position and then block on the log's condition variable for
live events.  A log holds exactly one terminal event, its last: the
service appends it (after ``aggregate_final`` on completion) and then
closes the log, which is how a stream knows it has seen everything.

Events are plain JSON-safe dicts with a ``type`` key.  On the wire
each becomes one Server-Sent-Events message::

    id: 7
    event: shard_completed
    data: {"type": "shard_completed", "shard_id": 1, ...}

so ``id`` doubles as the replay cursor (``?after=<id>`` resumes a
dropped stream without duplicates).
"""

from __future__ import annotations

import json
import threading

#: Event types that end a campaign's stream: one of them is its last
#: event, and the log is closed right after it.
TERMINAL_EVENT_TYPES = frozenset(
    {"campaign_completed", "campaign_failed", "campaign_cancelled"}
)


def format_sse(event_id: int, event: dict) -> bytes:
    """Render one event as an SSE message (id + event + data lines)."""
    payload = json.dumps(event, sort_keys=True)
    name = event.get("type", "message")
    return f"id: {event_id}\nevent: {name}\ndata: {payload}\n\n".encode(
        "utf-8"
    )


class EventLog:
    """Append-only, replayable event log with blocking tail reads.

    It ends with one event of :data:`TERMINAL_EVENT_TYPES`, appended
    just before :meth:`close`.  Appends come from the campaign's runner
    thread (the coordinator's ``on_event`` calls run on it too); reads
    come from arbitrarily many HTTP handler threads.  Everything is guarded
    by one condition variable, and events are never mutated after
    append, so a reader's snapshot slice is safe to serialise outside
    the lock.
    """

    def __init__(self) -> None:
        self._events: list[dict] = []
        self._condition = threading.Condition()
        self._closed = False

    def append(self, event: dict) -> int:
        """Append one event; returns its id (= index in the log)."""
        with self._condition:
            event_id = len(self._events)
            self._events.append(event)
            self._condition.notify_all()
            return event_id

    def close(self) -> None:
        """Mark the log complete (no further events will be appended)."""
        with self._condition:
            self._closed = True
            self._condition.notify_all()

    def __len__(self) -> int:
        with self._condition:
            return len(self._events)

    def snapshot(self) -> list[dict]:
        """All events so far (the list is a copy; events are shared)."""
        with self._condition:
            return list(self._events)

    def events_after(
        self, index: int, timeout: float | None = None
    ) -> tuple[list[tuple[int, dict]], bool]:
        """Events from position ``index`` on, blocking for new ones.

        Waits up to ``timeout`` seconds for the log to grow past
        ``index`` (or be closed).  Returns ``(batch, drained)`` where
        ``batch`` is ``(event_id, event)`` pairs and ``drained`` is
        true once the log is closed and the batch reaches its end —
        the stream-termination signal.
        """
        with self._condition:
            self._condition.wait_for(
                lambda: len(self._events) > index or self._closed,
                timeout=timeout,
            )
            batch = [
                (i, self._events[i])
                for i in range(index, len(self._events))
            ]
            drained = self._closed and index + len(batch) >= len(self._events)
            return batch, drained
