"""Tier levels and the one keyed object store behind every slow tier.

The node SSD and the PFS differ only in the links a chunk crosses; the
index, the blob backend, the fault gates, the ``tier.<t>.*`` counters and
the handle that charges chunks are written once, here.
"""

from __future__ import annotations

import threading
from enum import IntEnum
from typing import Callable, Dict, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.errors import CheckpointNotFound
from repro.simgpu.memory import checksum_payload
from repro.telemetry import Telemetry

if TYPE_CHECKING:  # pragma: no cover
    from repro.clock import VirtualClock
    from repro.faults.injector import FaultDomain
    from repro.sched.scheduler import SchedContext
    from repro.simgpu.bandwidth import Link


class TierLevel(IntEnum):
    """Position in the hierarchy; lower is faster."""

    GPU = 0
    HOST = 1
    SSD = 2
    PFS = 3

    @property
    def slower(self) -> Optional["TierLevel"]:
        return TierLevel(self.value + 1) if self.value < TierLevel.PFS else None

    @property
    def faster(self) -> Optional["TierLevel"]:
        return TierLevel(self.value - 1) if self.value > TierLevel.GPU else None


#: Object-store key: (process id, checkpoint version).
StoreKey = Tuple[int, int]


class ObjectStore:
    """A throttled keyed store for whole checkpoints on a slow tier.

    Checkpoints are monolithic and immutable once written (the paper's core
    assumption), so the *visibility* interface is put/get/delete of whole
    objects.  Cost is charged in chunks: :meth:`open_put` / :meth:`open_get`
    return a :class:`StoreHandle` whose ``write(nbytes)`` / ``read(nbytes)``
    charge the virtual clock one chunk at a time, so a cascade stage can
    overlap its chunks with the neighbouring hop.  The object stays
    invisible until the put handle's ``commit(payload)`` — commit-at-end
    keeps every crash-consistency property of whole-object puts (a torn
    stream leaves nothing behind; the manifest journal never references an
    uncommitted key).  ``put``/``get`` are the one-chunk stream.

    A concrete store defines ``_links(write, node_id)``: the links one chunk
    crosses, in order.  ``node_id`` names the node the bytes leave or reach;
    a store whose links do not depend on it ignores it.
    """

    level: TierLevel
    _links: Callable[[bool, int], Tuple["Link", ...]]

    def __init__(
        self,
        track: str,
        clock: "VirtualClock",
        telemetry: Optional[Telemetry] = None,
        sched: Optional["SchedContext"] = None,
        faults: Optional["FaultDomain"] = None,
    ) -> None:
        #: telemetry track of the store's spans; also the fault plan's name
        #: for the store (corruption draws, outage events, breakers).
        self._track = track
        self._tier = self.level.name.lower()
        self._clock = clock
        self._sched = sched
        self._fault_domain = faults
        # Fault gates cost one None-check per op when injection is off;
        # the pristine-CRC stamp is recorded whenever either injection or
        # resilience is active (detection needs it written, recovery needs
        # it verifiable).
        self.faults = faults if (faults is not None and faults.enabled) else None
        self._crc_meta = faults is not None and faults.meta_crc
        self.telemetry = telemetry or Telemetry.disabled()
        registry = self.telemetry.registry
        self._m_write_bytes = registry.counter(f"tier.{self._tier}.write_bytes")
        self._m_read_bytes = registry.counter(f"tier.{self._tier}.read_bytes")
        self._m_write_ops = registry.counter(f"tier.{self._tier}.write_ops")
        self._m_read_ops = registry.counter(f"tier.{self._tier}.read_ops")
        self._index = InMemoryIndex()
        self._blobs: Dict[StoreKey, np.ndarray] = {}
        self._blob_lock = threading.Lock()

    def _attach(self, *links: "Link") -> None:
        """Put new links under the QoS scheduler and the fault domain."""
        for link in links:
            if self._sched is not None:
                self._sched.attach(link)
            if self._fault_domain is not None:
                self._fault_domain.attach(link)

    def _gate(self, op: str, key: StoreKey) -> float:
        """Outage gate of one op: raises inside a hard outage, else the
        brownout slowdown (1.0 when healthy)."""
        if self.faults is None:
            return 1.0
        return self.faults.tier_gate(self._tier, self._track, op, key)

    def _put_gates(self, key: StoreKey, payload_size: int):
        """``(slowdown, byte offset to corrupt or None)`` for one put."""
        if self.faults is None:
            return 1.0, None
        return self._gate("put", key), self.faults.corruption(self._track, key, payload_size)

    def _charge(self, links, nbytes: int, slow: float, cancelled=None, request=None) -> float:
        """Move ``nbytes`` across ``links`` in turn; returns accounted seconds."""
        seconds = 0.0
        for link in links:
            seconds += link.transfer(nbytes, cancelled=cancelled, request=request)
        if slow > 1.0:  # brownout: degraded throughput, same bytes
            extra = seconds * (slow - 1.0)
            self._clock.sleep(extra)
            seconds += extra
        return seconds

    # -- the data path ------------------------------------------------------
    def open_put(
        self,
        key: StoreKey,
        nominal_size: int,
        payload_size: int,
        node_id: int = 0,
        cancelled=None,
        request=None,
    ) -> "StoreHandle":
        """Chunk-granular write handle: ``write(nbytes)`` per chunk, then
        ``commit(payload, meta=, copy=)``.  The outage gate and the at-rest
        corruption are drawn here, once; an abandoned handle is simply
        dropped, since nothing is visible before the commit."""
        slow, corrupt_at = self._put_gates(key, payload_size)
        return StoreHandle(
            self, key, nominal_size, "put", node_id, slow, corrupt_at, cancelled, request
        )

    def put(
        self,
        key: StoreKey,
        payload: np.ndarray,
        nominal_size: int,
        node_id: int = 0,
        cancelled=None,
        request=None,
        meta: Optional[dict] = None,
        copy: bool = True,
    ) -> float:
        """Write a whole checkpoint; blocks for the throttled duration and
        returns the accounted nominal seconds.  ``copy=False`` transfers
        ownership of ``payload`` to the store (the caller must not mutate
        it afterwards) instead of copying it."""
        handle = self.open_put(
            key, nominal_size, int(payload.size), node_id=node_id,
            cancelled=cancelled, request=request,
        )
        handle.write(nominal_size)
        return handle.commit(payload, meta=meta, copy=copy)

    def open_get(
        self,
        key: StoreKey,
        node_id: int = 0,
        request=None,
        nominal_size: Optional[int] = None,
    ) -> "StoreHandle":
        """Chunk-granular read handle: ``read(nbytes)`` per chunk, then
        ``finish() -> (payload, seconds)``.

        ``nominal_size`` bypasses the index lookup for streamed cascade
        read-backs that overlap a not-yet-committed put of the same key
        (streaming out of the drive's write buffer); such callers take the
        payload from their pipeline, not ``finish()``.
        """
        if nominal_size is None:
            nominal_size = self._index.require(key)
        slow = self._gate("get", key)
        return StoreHandle(self, key, nominal_size, "get", node_id, slow, request=request)

    def get(self, key: StoreKey, node_id: int = 0, request=None):
        """Read a whole checkpoint back; blocks for the throttled duration.

        Returns ``(payload, accounted nominal seconds)``."""
        handle = self.open_get(key, node_id=node_id, request=request)
        handle.read(handle.nominal_size)
        return handle.finish()

    # -- the in-memory blob backend -----------------------------------------
    def _commit(self, key, payload, nominal_size, meta, copy, corrupt_at) -> None:
        """Make a written object visible: CRC stamp, blob, index entry."""
        if self._crc_meta:
            meta = dict(meta or {})
            meta["stored_crc"] = int(checksum_payload(payload))
        self._store_blob(key, payload, nominal_size, meta, copy, corrupt_at)
        self._index.add(key, nominal_size, meta)

    def _store_blob(self, key, payload, nominal_size, meta, copy, corrupt_at) -> None:
        # Corruption flips a byte on the *store's* copy only: with
        # copy=False ownership transfers to the store, but the caller's
        # in-hand array must stay pristine so a re-flush can repair.
        blob = payload.copy() if (copy or corrupt_at is not None) else payload
        if corrupt_at is not None:
            blob[corrupt_at] ^= 0xFF
        blob.flags.writeable = False  # get() hands out views of this blob
        with self._blob_lock:
            self._blobs[key] = blob

    def _read_payload(self, key: StoreKey) -> np.ndarray:
        with self._blob_lock:
            payload = self._blobs.get(key)
        if payload is None:
            raise CheckpointNotFound(f"checkpoint {key} missing from {self._track} store")
        # Zero-copy: a read-only view (blobs are immutable once stored, and
        # a view keeps its base alive even across a concurrent delete()).
        return payload[:]

    def _drop_blob(self, key: StoreKey) -> None:
        with self._blob_lock:
            self._blobs.pop(key, None)

    # -- visibility and bookkeeping -----------------------------------------
    def delete(self, key: StoreKey) -> None:
        """Drop a checkpoint (no-op if absent)."""
        if self._index.remove(key):
            self._drop_blob(key)

    def contains(self, key: StoreKey) -> bool:
        return self._index.contains(key)

    def verify(self, key: StoreKey) -> bool:
        """Check the stored blob's bytes against the CRC stamped at put().

        Uncharged (no link transfer): models a local scrub/DMA checksum.
        Returns ``True`` when no CRC was stamped (nothing to verify) and
        ``False`` when the blob is missing or its bytes diverged.
        """
        if not self.contains(key):
            return False
        stored_crc = self._index.meta(key).get("stored_crc")
        if stored_crc is None:
            return True
        try:
            blob = self._read_payload(key)
        except (CheckpointNotFound, OSError):
            return False
        return int(checksum_payload(blob)) == int(stored_crc)

    def meta(self, key: StoreKey) -> dict:
        """Recovery metadata recorded at put() time."""
        return self._index.meta(key)

    def size_of(self, key: StoreKey) -> int:
        return self._index.size_of(key)

    def keys_for_process(self, process_id: int):
        """All checkpoint keys this store holds for one process."""
        return self._index.keys_for_process(process_id)

    def stored_bytes(self) -> int:
        """Total nominal bytes currently stored."""
        return self._index.total()

    def object_count(self) -> int:
        return self._index.count()


class StoreHandle:
    """An in-flight put or get: each chunk crosses the store's links in
    turn, under the outage gate and the brownout.

    ``read`` is ``write``: a chunk is charged the same way either way.  A
    put ends in :meth:`commit`, which makes the object visible; a get in
    :meth:`finish`, which hands out the payload.  A get counts its read op
    once it has charged its whole ``nominal_size``: a streamed read-back
    that takes its payload from the pipeline never calls ``finish``.
    """

    def __init__(
        self,
        store: ObjectStore,
        key: StoreKey,
        nominal_size: int,
        op: str,
        node_id: int,
        slow: float,
        corrupt_at: Optional[int] = None,
        cancelled=None,
        request=None,
    ) -> None:
        self.store = store
        self.key = key
        self.nominal_size = nominal_size
        self.seconds = 0.0
        self._op = op
        self._links = store._links(op == "put", node_id)
        self._span = f"{store._tier}-{op}"
        self._m_bytes = store._m_write_bytes if op == "put" else store._m_read_bytes
        self._slow = slow
        self._corrupt_at = corrupt_at
        self._cancelled = cancelled
        self._request = request
        self._chunks = 0
        self._charged = 0
        self._read_op_due = op == "get"

    def write(self, nbytes: int, cancelled=None, request=None) -> float:
        """Charge one chunk; blocks for the throttled duration."""
        store = self.store
        if self._chunks > 0:
            # Re-gate later chunks: a hard outage opening mid-stream raises
            # TierOfflineError at the next chunk boundary; a brownout
            # degrades the remaining chunks.
            self._slow = store._gate(self._op, self.key)
        cancelled = self._cancelled if cancelled is None else cancelled
        request = self._request if request is None else request
        with store.telemetry.bus.span(self._span, store._track, key=self.key, bytes=nbytes):
            seconds = store._charge(self._links, nbytes, self._slow, cancelled, request)
        self._m_bytes.inc(nbytes)
        self._chunks += 1
        self._charged += nbytes
        self.seconds += seconds
        if self._read_op_due and self._charged >= self.nominal_size:
            self._read_op_due = False
            store._m_read_ops.inc()
        return seconds

    read = write

    def commit(self, payload: np.ndarray, meta=None, copy: bool = True) -> float:
        """Make the object visible; returns total accounted seconds."""
        store = self.store
        store._m_write_ops.inc()
        store._commit(self.key, payload, self.nominal_size, meta, copy, self._corrupt_at)
        return self.seconds

    def finish(self):
        """``(payload, accounted seconds)`` — the whole object, post-charges."""
        return self.store._read_payload(self.key), self.seconds


class InMemoryIndex:
    """Shared bookkeeping for store implementations: key → size + metadata.

    The metadata dict (checksum, true size, …) is what a restarted process
    recovers its catalog from — mirroring the metadata files a real
    multi-level checkpointing runtime writes next to each checkpoint.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sizes: Dict[StoreKey, int] = {}
        self._meta: Dict[StoreKey, dict] = {}

    def add(self, key: StoreKey, nominal_size: int, meta: Optional[dict] = None) -> None:
        with self._lock:
            self._sizes[key] = nominal_size
            self._meta[key] = dict(meta or {})

    def remove(self, key: StoreKey) -> bool:
        with self._lock:
            self._meta.pop(key, None)
            return self._sizes.pop(key, None) is not None

    def require(self, key: StoreKey) -> int:
        with self._lock:
            size = self._sizes.get(key)
        if size is None:
            raise CheckpointNotFound(f"checkpoint {key} not present in store")
        return size

    def meta(self, key: StoreKey) -> dict:
        with self._lock:
            if key not in self._sizes:
                raise CheckpointNotFound(f"checkpoint {key} not present in store")
            return dict(self._meta.get(key, {}))

    def contains(self, key: StoreKey) -> bool:
        with self._lock:
            return key in self._sizes

    def keys_for_process(self, process_id: int):
        with self._lock:
            return sorted(k for k in self._sizes if k[0] == process_id)

    def keys(self) -> list:
        """Every key in the index, sorted (node crash/rejoin sweeps)."""
        with self._lock:
            return sorted(self._sizes)

    def size_of(self, key: StoreKey) -> int:
        return self.require(key)

    def total(self) -> int:
        with self._lock:
            return sum(self._sizes.values())

    def count(self) -> int:
        with self._lock:
            return len(self._sizes)
