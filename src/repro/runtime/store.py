"""The coordination store: the fabric's five primitives on its directory.

The multi-host fabric (:mod:`repro.runtime.fabric`) coordinates
through five small primitives — create-exclusive, conditional replace,
point read, delete, prefix listing — plus an append-only log.
:class:`CoordinationStore` names that protocol; :class:`FsStore`, the
fabric's one coordination store, implements it with POSIX calls on the
fabric directory, so every host that mounts the directory can take
part::

    primitive              FsStore
    ---------------------  --------------------------------------------
    create-exclusive       fsynced temp file, then os.link to the key
    conditional replace    read, compare content hash, replace
    unconditional replace  fsynced temp file, then os.replace
    delete                 os.unlink
    prefix listing         readdir
    append                 one line appended to the log file

The protocol layer is designed so **correctness never rests on
listing**: claims, manifests and plans are arbitrated by conditional
puts on known keys, and every point read is read-after-write
consistent.  Listing only feeds *scheduling* (which leases the
coordinator watches, which workers look alive), where a listing that
lags behind writes — as an object store's may — at worst delays a
revocation by one poll.  The conformance suite holds the protocol to
that by racing it over ``FsStore`` and over an in-memory object-store
fake whose listings lag.
"""

from __future__ import annotations

import json
import os
import uuid
from dataclasses import dataclass
from hashlib import sha256


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
    """The five-primitive protocol the fabric coordinates through.

    Keys are ``/``-separated relative paths (``leases/shard-0003.lease``).
    All mutating primitives are atomic per key; no operation spans two
    keys.
    """

    # -- primitives (implemented by stores) -----------------------------

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
        """Point read — read-after-write consistent."""
        raise NotImplementedError

    def delete(self, key: str) -> bool:
        """Remove a key; ``False`` when it was already gone."""
        raise NotImplementedError

    def list_prefix(self, prefix: str) -> list[str]:
        """Sorted keys under ``prefix``.  May omit recently created keys
        on a lagging store — callers must not derive correctness from
        a key's absence here (use :meth:`get`)."""
        raise NotImplementedError

    def append_line(self, key: str, text: str) -> None:
        """Append one line to the log at ``key`` (single-writer)."""
        raise NotImplementedError

    def read_lines(self, key: str) -> list[str]:
        """Every appended line, in order (may lag like a listing)."""
        raise NotImplementedError

    # -- derived operations ---------------------------------------------

    def exists(self, key: str) -> bool:
        return self.get(key) is not None

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
    """The protocol over POSIX files under ``root``.

    Every key is the file at the same relative path — ``plan.json``,
    ``leases/shard-0000.lease``, an appended ``log.jsonl`` — so a
    fabric directory reads with ``ls`` and ``cat``.  Etags are content
    hashes; conditional replace is read-compare-replace, whose benign
    race window the protocol's fences already cover.
    """

    def __init__(self, root: str):
        self.root = root

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, *key.split("/"))

    def _write_temp(self, path: str, data: bytes) -> str:
        """A fsynced temp file beside ``path`` holding ``data``; a write
        or fsync that raises leaves nothing behind."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp_path = f"{path}.tmp.{os.getpid()}.{uuid.uuid4().hex[:8]}"
        fd = os.open(tmp_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view) :]
            os.fsync(fd)
        except BaseException:
            os.close(fd)
            os.unlink(tmp_path)
            raise
        os.close(fd)
        return tmp_path

    def put_if_absent(self, key: str, data: bytes) -> str | None:
        path = self.path_for(key)
        if os.path.exists(path):
            return None  # lost already: no write, no fsync
        tmp_path = self._write_temp(path, data)
        try:
            # The link publishes the whole file at once and fails for
            # every claimer but one; a claimer that dies before it
            # leaves the key absent, so the next claim can win.
            os.link(tmp_path, path)
        except FileExistsError:
            return None
        finally:
            os.unlink(tmp_path)
        return _fs_etag(data)

    def put(self, key: str, data: bytes) -> str:
        path = self.path_for(key)
        os.replace(self._write_temp(path, data), path)
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
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(text + "\n")

    def read_lines(self, key: str) -> list[str]:
        try:
            with open(self.path_for(key), "r", encoding="utf-8") as handle:
                return [line.rstrip("\n") for line in handle if line.strip()]
        except OSError:
            return []
