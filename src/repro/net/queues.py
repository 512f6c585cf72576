"""Link queues."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.net.packet import Packet


@dataclass
class DropTailQueue:
    """Byte-bounded FIFO queue with tail drop.

    Attributes:
        capacity_bytes: Maximum queued bytes (excludes the packet in
            transmission).  The classic router-buffer model.
    """

    capacity_bytes: int = 256 * 1500
    _items: deque[Packet] = field(default_factory=deque, init=False)
    _bytes: int = field(default=0, init=False)
    drops: int = field(default=0, init=False)
    enqueued: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigurationError(
                f"queue capacity must be positive: {self.capacity_bytes}"
            )

    def __len__(self) -> int:
        return len(self._items)

    def offer(self, packet: Packet) -> bool:
        """Enqueue if there is room; returns False (and counts a drop) if not."""
        if self._bytes + packet.size_bytes > self.capacity_bytes:
            self.drops += 1
            return False
        self._items.append(packet)
        self._bytes += packet.size_bytes
        self.enqueued += 1
        return True

    def poll(self) -> Packet | None:
        """Dequeue the head packet, or None when empty."""
        if not self._items:
            return None
        packet = self._items.popleft()
        self._bytes -= packet.size_bytes
        return packet

    def clear(self) -> list[Packet]:
        """Drop all queued packets (not counted as tail drops).

        Returns the removed packets so owners tracking per-packet state
        (e.g. :class:`repro.net.link.Link`'s enqueue times) can release
        it.  Prefer ``Link.clear_queue()`` when the queue belongs to a
        link — it performs that cleanup itself.
        """
        removed = list(self._items)
        self._items.clear()
        self._bytes = 0
        return removed
