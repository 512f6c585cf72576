"""The coordination store: the fabric's backend seam.

The multi-host fabric (:mod:`repro.runtime.fabric`) coordinates
through five small primitives — create-exclusive, conditional replace,
point read, delete, prefix listing — plus an append-only log.  PR 9
implemented them directly with POSIX calls (``O_CREAT|O_EXCL``, temp
file + ``os.replace``, ``readdir``), which caps the fabric at hosts
sharing a filesystem.  This module extracts those primitives into the
:class:`CoordinationStore` protocol so the *same* lease/plan/manifest
protocol runs over either of two backends:

* :class:`FsStore` — the POSIX implementation, bit-identical to the
  pre-seam fabric: every key maps to the same file the old code wrote,
  create-exclusive is ``O_EXCL``, replace is temp + ``os.replace``,
  listing is ``readdir``, and the log is an appended ``log.jsonl``.
* :class:`ObjectStore` — object-store semantics: conditional
  ``PUT-if-absent`` / ``PUT-if-match`` with an **etag** per object
  version instead of ``O_EXCL`` + rename, prefix listing instead of
  ``readdir``, and (optionally) **list-after-write lag** — a freshly
  created key is immediately readable by :meth:`~CoordinationStore.get`
  (read-after-write consistency, which every major object store
  guarantees) but may be omitted from :meth:`~CoordinationStore.list_prefix`
  for up to ``list_lag_s`` (which older S3 did not guarantee, and
  which the fabric protocol must therefore tolerate).  Appends become
  sequence-numbered objects under ``<key>/``, arbitrated by
  PUT-if-absent.  Two concrete backends honor these semantics:
  :class:`DirObjectStore` (envelope files + per-key lock files, so
  independent *processes* — the fabric's workers — share one bucket
  emulation through a directory) and :class:`MemoryObjectStore` (the
  in-process fake the conformance suite races against, with
  deterministic lag control via :meth:`~CoordinationStore.settle`).

Semantics mapping (DESIGN.md §14 carries the full table)::

    POSIX fabric (PR 9)          object store
    ---------------------------  -------------------------------
    open(O_CREAT|O_EXCL)         PUT-if-absent        -> etag | None
    read + temp + os.replace     GET etag + PUT-if-match
    os.unlink                    DELETE
    readdir                      LIST prefix (may lag new keys)
    append to log.jsonl          PUT log.jsonl/<seq> if-absent

The protocol layer is designed so **correctness never rests on
listing**: claims, manifests and plans are arbitrated by conditional
PUTs on known keys, and every point read is read-after-write
consistent.  Listing only feeds *scheduling* (which leases the
coordinator watches, which workers look alive), where lag at worst
delays a revocation by one poll.

A fabric directory records which backend owns it in a ``STORE``
sentinel file, so a worker joining with no flags adopts the
coordinator's choice and a mismatched explicit choice fails loudly
instead of silently coordinating through a different namespace.
"""

from __future__ import annotations

import base64
import json
import os
import threading
import time
import uuid
from dataclasses import dataclass
from hashlib import sha256

from repro.errors import FabricError
from repro.knobs import resolve

#: Name of the per-fabric sentinel file recording the store kind.
STORE_SENTINEL = "STORE"

#: A DirObjectStore per-key lock older than this is presumed abandoned
#: (its holder was SIGKILLed mid-operation) and is broken.
_STALE_LOCK_S = 5.0


@dataclass(frozen=True)
class StoredObject:
    """One read object: its bytes plus the version etag that read saw."""

    data: bytes
    etag: str

    def json(self) -> dict | None:
        """The object decoded as a JSON document; ``None`` when torn."""
        try:
            doc = json.loads(self.data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return None
        return doc if isinstance(doc, dict) else None


class CoordinationStore:
    """The five-primitive protocol every fabric backend implements.

    Keys are ``/``-separated relative paths (``leases/shard-0003.lease``).
    All mutating primitives are atomic per key; no operation spans two
    keys, which is what lets one protocol run over both POSIX and
    object-store arbitration.
    """

    #: Backend discriminator (``fs`` / ``object`` / ``memory``).
    kind = "abstract"

    # -- primitives (implemented by backends) ---------------------------

    def put_if_absent(self, key: str, data: bytes) -> str | None:
        """Create a key that must not exist; etag on win, ``None`` on loss."""
        raise NotImplementedError

    def put_if_match(self, key: str, data: bytes, etag: str) -> str | None:
        """Replace only the version ``etag`` named; ``None`` on conflict
        (the key changed or vanished since that read)."""
        raise NotImplementedError

    def put(self, key: str, data: bytes) -> str:
        """Unconditional atomic replace (create if absent); new etag."""
        raise NotImplementedError

    def get(self, key: str) -> StoredObject | None:
        """Point read — read-after-write consistent on every backend."""
        raise NotImplementedError

    def delete(self, key: str) -> bool:
        """Remove a key; ``False`` when it was already gone."""
        raise NotImplementedError

    def list_prefix(self, prefix: str) -> list[str]:
        """Sorted keys under ``prefix``.  May omit recently created keys
        on a lagging backend — callers must not derive correctness from
        a key's absence here (use :meth:`get`)."""
        raise NotImplementedError

    # -- derived operations ---------------------------------------------

    def exists(self, key: str) -> bool:
        return self.get(key) is not None

    def append_line(self, key: str, text: str) -> None:
        """Append one line to the log at ``key`` (single-writer)."""
        raise NotImplementedError

    def read_lines(self, key: str) -> list[str]:
        """Every appended line, in order (may lag like a listing)."""
        raise NotImplementedError

    def settle(self) -> None:
        """Make every prior write visible to listings (lag flush)."""

    def path_for(self, key: str) -> str:
        raise NotImplementedError(
            f"{type(self).__name__} has no filesystem path for {key!r}"
        )

    # -- JSON sugar ------------------------------------------------------

    @staticmethod
    def _encode(doc: dict) -> bytes:
        return json.dumps(doc, sort_keys=True).encode("utf-8")

    def put_json(self, key: str, doc: dict) -> str:
        return self.put(key, self._encode(doc))

    def put_json_if_absent(self, key: str, doc: dict) -> str | None:
        return self.put_if_absent(key, self._encode(doc))

    def get_json(self, key: str) -> dict | None:
        """The document at ``key``; ``None`` when absent or torn."""
        obj = self.get(key)
        return obj.json() if obj is not None else None


def _fs_etag(data: bytes) -> str:
    return sha256(data).hexdigest()[:16]


class FsStore(CoordinationStore):
    """POSIX-primitive store: the pre-seam fabric, behind the seam.

    Layout-compatible with PR 9's fabric directory file for file —
    ``plan.json``, ``leases/shard-0000.lease``, an appended
    ``log.jsonl`` — so existing fabric directories, tests and on-disk
    debugging all keep working.  Etags are content hashes; conditional
    replace is read-compare-replace, whose benign race window is the
    same one the pre-seam heartbeat had (and the protocol's fences
    already cover).
    """

    kind = "fs"

    def __init__(self, root: str):
        self.root = root

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, *key.split("/"))

    def _ensure_parent(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)

    def put_if_absent(self, key: str, data: bytes) -> str | None:
        path = self.path_for(key)
        self._ensure_parent(path)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            return None
        try:
            os.write(fd, data)
            os.fsync(fd)
        finally:
            os.close(fd)
        return _fs_etag(data)

    def put(self, key: str, data: bytes) -> str:
        path = self.path_for(key)
        self._ensure_parent(path)
        tmp_path = f"{path}.tmp.{os.getpid()}.{uuid.uuid4().hex[:8]}"
        with open(tmp_path, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
        return _fs_etag(data)

    def put_if_match(self, key: str, data: bytes, etag: str) -> str | None:
        current = self.get(key)
        if current is None or current.etag != etag:
            return None
        return self.put(key, data)

    def get(self, key: str) -> StoredObject | None:
        try:
            with open(self.path_for(key), "rb") as handle:
                data = handle.read()
        except OSError:
            return None
        return StoredObject(data=data, etag=_fs_etag(data))

    def exists(self, key: str) -> bool:
        return os.path.exists(self.path_for(key))

    def delete(self, key: str) -> bool:
        try:
            os.unlink(self.path_for(key))
        except FileNotFoundError:
            return False
        except OSError:
            return False
        return True

    def list_prefix(self, prefix: str) -> list[str]:
        dir_key, _, name_prefix = prefix.rpartition("/")
        directory = (
            os.path.join(self.root, *dir_key.split("/"))
            if dir_key
            else self.root
        )
        try:
            names = os.listdir(directory)
        except OSError:
            return []
        keys = []
        for name in names:
            if name_prefix and not name.startswith(name_prefix):
                continue
            if not os.path.isfile(os.path.join(directory, name)):
                continue
            keys.append(f"{dir_key}/{name}" if dir_key else name)
        return sorted(keys)

    def append_line(self, key: str, text: str) -> None:
        path = self.path_for(key)
        self._ensure_parent(path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(text + "\n")

    def read_lines(self, key: str) -> list[str]:
        try:
            with open(self.path_for(key), "r", encoding="utf-8") as handle:
                return [line.rstrip("\n") for line in handle if line.strip()]
        except OSError:
            return []


class ObjectStore(CoordinationStore):
    """Object-store semantics over an abstract versioned-blob backend.

    Subclasses provide four low-level hooks (atomic conditional store,
    load, remove, birth listing); this base turns them into the
    protocol surface, including the simulated **list-after-write lag**:
    a key is omitted from :meth:`list_prefix` until ``list_lag_s`` has
    passed since its *first* creation (overwrites never hide an
    already-visible key, matching real list consistency).  Appends are
    emulated as sequence-numbered child objects claimed with
    PUT-if-absent, so a restarted single writer resumes numbering
    without ever overwriting a line.
    """

    kind = "object"

    def __init__(self, list_lag_s: float = 0.0):
        self.list_lag_s = float(list_lag_s)
        self._seq_lock = threading.Lock()
        self._next_seq: dict[str, int] = {}

    # -- backend hooks ---------------------------------------------------

    def _cas(
        self, key: str, data: bytes, *, require: str | None, mode: str
    ) -> str | None:
        """Atomically store ``data``; ``mode`` is ``absent`` (fail if the
        key exists), ``match`` (fail unless the etag is ``require``) or
        ``always``.  Returns the new etag or ``None`` on conflict."""
        raise NotImplementedError

    def _load(self, key: str) -> tuple[bytes, str] | None:
        raise NotImplementedError

    def _remove(self, key: str) -> bool:
        raise NotImplementedError

    def _births(self, prefix: str) -> list[tuple[str, float]]:
        """Every ``(key, first_created_at)`` under ``prefix``, unsorted."""
        raise NotImplementedError

    # -- protocol surface ------------------------------------------------

    def put_if_absent(self, key: str, data: bytes) -> str | None:
        return self._cas(key, data, require=None, mode="absent")

    def put_if_match(self, key: str, data: bytes, etag: str) -> str | None:
        return self._cas(key, data, require=etag, mode="match")

    def put(self, key: str, data: bytes) -> str:
        etag = self._cas(key, data, require=None, mode="always")
        assert etag is not None
        return etag

    def get(self, key: str) -> StoredObject | None:
        loaded = self._load(key)
        if loaded is None:
            return None
        data, etag = loaded
        return StoredObject(data=data, etag=etag)

    def delete(self, key: str) -> bool:
        return self._remove(key)

    def list_prefix(self, prefix: str) -> list[str]:
        horizon = time.time() - self.list_lag_s
        return sorted(
            key
            for key, birth in self._births(prefix)
            if birth <= horizon
        )

    def append_line(self, key: str, text: str) -> None:
        data = text.encode("utf-8")
        with self._seq_lock:
            seq = self._next_seq.get(key)
            if seq is None:
                taken = [
                    int(k.rsplit("/", 1)[1])
                    for k, _ in self._births(f"{key}/")
                    if k.rsplit("/", 1)[1].isdigit()
                ]
                seq = max(taken) + 1 if taken else 0
            while self.put_if_absent(f"{key}/{seq:08d}", data) is None:
                seq += 1
            self._next_seq[key] = seq + 1

    def read_lines(self, key: str) -> list[str]:
        lines = []
        for child in self.list_prefix(f"{key}/"):
            obj = self.get(child)
            if obj is not None:
                lines.append(obj.data.decode("utf-8"))
        return lines


class MemoryObjectStore(ObjectStore):
    """The in-process fake: object-store semantics over a locked dict.

    The conformance suite's reference backend — races are arbitrated
    by one lock, so every semantic claim (exactly-one PUT-if-absent
    winner, etag conflicts, lag visibility) is enforced exactly.
    :meth:`settle` makes all keys list-visible immediately, giving
    tests deterministic control over the lag simulation.
    """

    kind = "memory"

    def __init__(self, list_lag_s: float = 0.0):
        super().__init__(list_lag_s=list_lag_s)
        self._lock = threading.Lock()
        #: key -> (data, etag, first_created_at)
        self._objects: dict[str, tuple[bytes, str, float]] = {}

    def _cas(self, key, data, *, require, mode):
        with self._lock:
            current = self._objects.get(key)
            if mode == "absent" and current is not None:
                return None
            if mode == "match" and (
                current is None or current[1] != require
            ):
                return None
            etag = uuid.uuid4().hex[:16]
            birth = current[2] if current is not None else time.time()
            self._objects[key] = (data, etag, birth)
            return etag

    def _load(self, key):
        with self._lock:
            current = self._objects.get(key)
        return None if current is None else (current[0], current[1])

    def _remove(self, key):
        with self._lock:
            return self._objects.pop(key, None) is not None

    def _births(self, prefix):
        with self._lock:
            return [
                (key, birth)
                for key, (_, _, birth) in self._objects.items()
                if key.startswith(prefix)
            ]

    def settle(self) -> None:
        with self._lock:
            self._objects = {
                key: (data, etag, 0.0)
                for key, (data, etag, _) in self._objects.items()
            }


class DirObjectStore(ObjectStore):
    """Object-store semantics shared across processes via a directory.

    The cross-host stand-in for a real bucket (the way MinIO stands in
    for S3): each object is one atomically-replaced *envelope* file
    (``<key>.obj`` holding etag, first-created time and base64 data),
    and conditional PUTs are serialized per key by an ``O_EXCL`` lock
    file with stale-lock breaking — internals the protocol layer never
    sees, exactly as it never sees a real store's Paxos.  Every fabric
    participant on any host that mounts the directory shares one
    consistent conditional-PUT arbitration.
    """

    kind = "object"

    def __init__(self, root: str, list_lag_s: float | None = None):
        # The simulated list-after-write lag is the object_list_lag_s
        # knob (0, the default, disables the simulation).
        super().__init__(list_lag_s=resolve("object_list_lag_s", list_lag_s))
        self.root = root

    def _object_path(self, key: str) -> str:
        return os.path.join(self.root, *key.split("/")) + ".obj"

    def _lock_path(self, key: str) -> str:
        return self._object_path(key) + ".lck"

    def _acquire(self, key: str) -> str:
        lock_path = self._lock_path(key)
        os.makedirs(os.path.dirname(lock_path), exist_ok=True)
        deadline = time.time() + 2 * _STALE_LOCK_S
        while True:
            try:
                fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                try:
                    age = time.time() - os.path.getmtime(lock_path)
                except OSError:
                    continue  # the holder just released; retry at once
                if age > _STALE_LOCK_S:
                    # The holder died mid-operation (SIGKILL between
                    # acquire and release); break its lock.
                    try:
                        os.unlink(lock_path)
                    except FileNotFoundError:
                        pass
                    continue
                if time.time() > deadline:
                    raise FabricError(
                        f"could not acquire object lock for {key!r} "
                        f"within {2 * _STALE_LOCK_S:.0f}s"
                    )
                time.sleep(0.005)
            else:
                os.close(fd)
                return lock_path

    def _release(self, lock_path: str) -> None:
        try:
            os.unlink(lock_path)
        except FileNotFoundError:
            pass

    def _read_envelope(self, key: str) -> dict | None:
        try:
            with open(self._object_path(key), "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            return None
        return doc if isinstance(doc, dict) else None

    def _write_envelope(self, key: str, doc: dict) -> None:
        path = self._object_path(key)
        data = json.dumps(doc, sort_keys=True).encode("utf-8")
        tmp_path = f"{path}.tmp.{os.getpid()}.{uuid.uuid4().hex[:8]}"
        with open(tmp_path, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)

    def _cas(self, key, data, *, require, mode):
        lock = self._acquire(key)
        try:
            current = self._read_envelope(key)
            if mode == "absent" and current is not None:
                return None
            if mode == "match" and (
                current is None or current.get("etag") != require
            ):
                return None
            etag = uuid.uuid4().hex[:16]
            birth = (
                float(current["birth"])
                if current is not None and "birth" in current
                else time.time()
            )
            self._write_envelope(
                key,
                {
                    "etag": etag,
                    "birth": birth,
                    "data": base64.b64encode(data).decode("ascii"),
                },
            )
            return etag
        finally:
            self._release(lock)

    def _load(self, key):
        doc = self._read_envelope(key)
        if doc is None:
            return None
        try:
            return base64.b64decode(doc["data"]), str(doc["etag"])
        except (KeyError, ValueError, TypeError):
            return None

    def _remove(self, key):
        try:
            os.unlink(self._object_path(key))
        except OSError:
            return False
        return True

    def _births(self, prefix):
        births = []
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                if not name.endswith(".obj"):
                    continue
                path = os.path.join(dirpath, name)
                key = os.path.relpath(path, self.root)[: -len(".obj")]
                key = key.replace(os.sep, "/")
                if not key.startswith(prefix):
                    continue
                doc = self._read_envelope(key)
                if doc is None:
                    continue
                try:
                    births.append((key, float(doc["birth"])))
                except (KeyError, TypeError, ValueError):
                    births.append((key, 0.0))
        return births

    def settle(self) -> None:
        for key, _ in self._births(""):
            lock = self._acquire(key)
            try:
                doc = self._read_envelope(key)
                if doc is not None:
                    doc["birth"] = 0.0
                    self._write_envelope(key, doc)
            finally:
                self._release(lock)


# -- fabric-directory store selection -------------------------------------


def _sentinel_path(fabric_dir: str) -> str:
    return os.path.join(fabric_dir, STORE_SENTINEL)


def read_store_sentinel(fabric_dir: str) -> str | None:
    """The store kind a fabric directory is bound to, if recorded."""
    try:
        with open(_sentinel_path(fabric_dir), "r", encoding="utf-8") as fh:
            kind = fh.read().strip()
    except OSError:
        return None
    return kind or None


def resolve_store_kind(fabric_dir: str, kind: str | None = None) -> str:
    """Resolve a fabric directory's store kind.

    The ``fabric_store`` knob (DESIGN.md §5) with the directory's
    ``STORE`` sentinel as its explicit value when ``kind`` is unset:
    explicit argument > sentinel > ``REPRO_FABRIC_STORE`` > ``"fs"``.
    An explicit kind that contradicts the sentinel is a
    :class:`FabricError` — one fabric directory is one coordination
    namespace, never two.
    """
    sentinel = read_store_sentinel(fabric_dir)
    kind = resolve("fabric_store", kind if kind is not None else sentinel)
    if sentinel is not None and kind != sentinel:
        raise FabricError(
            f"fabric directory {fabric_dir} is bound to the "
            f"{sentinel!r} store; refusing to coordinate through "
            f"{kind!r}"
        )
    return kind


def make_store(
    fabric_dir: str,
    kind: str | None = None,
    *,
    create_sentinel: bool = False,
) -> CoordinationStore:
    """The coordination store for one fabric directory.

    ``kind`` resolution follows :func:`resolve_store_kind`.  With
    ``create_sentinel`` (coordinator side) the resolved kind is
    recorded in the directory's ``STORE`` sentinel — created
    exclusively, so two racing coordinators agree — before any
    coordination key is written.
    """
    kind = resolve_store_kind(fabric_dir, kind)
    if create_sentinel and read_store_sentinel(fabric_dir) is None:
        os.makedirs(fabric_dir, exist_ok=True)
        try:
            fd = os.open(
                _sentinel_path(fabric_dir),
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                0o644,
            )
        except FileExistsError:
            pass  # a racing participant recorded it; verify below
        else:
            try:
                os.write(fd, kind.encode("utf-8"))
                os.fsync(fd)
            finally:
                os.close(fd)
        recorded = read_store_sentinel(fabric_dir)
        if recorded is not None and recorded != kind:
            raise FabricError(
                f"fabric directory {fabric_dir} was concurrently bound "
                f"to the {recorded!r} store, not {kind!r}"
            )
    if kind == "fs":
        return FsStore(fabric_dir)
    return DirObjectStore(os.path.join(fabric_dir, "objects"))
