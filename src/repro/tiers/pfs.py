"""Parallel-file-system tier (Lustre stand-in).

One :class:`PfsStore` per cluster, shared by every node.  Each node funnels
its PFS traffic through its own per-node ingress/egress links (a node's
share of the fabric), while a global pair of links models the file system's
aggregate bandwidth — so both per-node and cluster-wide saturation occur.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, TYPE_CHECKING

import numpy as np

from repro.clock import VirtualClock
from repro.config import HardwareSpec, ScaleModel
from repro.errors import CheckpointNotFound
from repro.simgpu.bandwidth import Link
from repro.simgpu.memory import checksum_payload
from repro.telemetry import Telemetry
from repro.tiers.base import InMemoryIndex, ObjectStore, StoreKey, TierLevel

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultDomain
    from repro.sched.scheduler import SchedContext


class PfsStore(ObjectStore):
    """Throttled cluster-shared checkpoint store."""

    level = TierLevel.PFS

    def __init__(
        self,
        spec: HardwareSpec,
        scale: ScaleModel,
        clock: VirtualClock,
        num_nodes: int = 1,
        aggregate_factor: float = 2.0,
        telemetry: Optional[Telemetry] = None,
        sched: Optional["SchedContext"] = None,
        faults: Optional["FaultDomain"] = None,
    ) -> None:
        """``aggregate_factor``: the file system sustains this multiple of a
        single node's share before becoming the bottleneck."""
        self.scale = scale
        self._clock = clock
        self.faults = faults if (faults is not None and faults.enabled) else None
        self._crc_meta = faults is not None and faults.meta_crc
        self._faults_hook = faults
        self.telemetry = telemetry or Telemetry.disabled()
        registry = self.telemetry.registry
        self._m_write_bytes = registry.counter("tier.pfs.write_bytes")
        self._m_read_bytes = registry.counter("tier.pfs.read_bytes")
        self._m_write_ops = registry.counter("tier.pfs.write_ops")
        self._m_read_ops = registry.counter("tier.pfs.read_ops")
        aggregate_write = spec.pfs_write_bandwidth * max(1.0, aggregate_factor)
        aggregate_read = spec.pfs_read_bandwidth * max(1.0, aggregate_factor)
        self.global_write_link = Link(
            "pfs-write", aggregate_write, clock, latency=0.0, chunk_size=1 << 62
        )
        self.global_read_link = Link(
            "pfs-read", aggregate_read, clock, latency=0.0, chunk_size=1 << 62
        )
        self._sched = sched
        if sched is not None:
            sched.attach(self.global_write_link)
            sched.attach(self.global_read_link)
        if faults is not None:
            faults.attach(self.global_write_link)
            faults.attach(self.global_read_link)
        self._node_write_links: Dict[int, Link] = {}
        self._node_read_links: Dict[int, Link] = {}
        self._link_lock = threading.Lock()
        self._spec = spec
        self._index = InMemoryIndex()
        self._blobs: Dict[StoreKey, np.ndarray] = {}
        self._blob_lock = threading.Lock()

    def node_links(self, node_id: int):
        """Per-node ingress/egress links (created lazily)."""
        with self._link_lock:
            if node_id not in self._node_write_links:
                self._node_write_links[node_id] = Link(
                    f"node{node_id}-pfs-write",
                    self._spec.pfs_write_bandwidth,
                    self._clock,
                    latency=self._spec.pfs_latency,
                )
                self._node_read_links[node_id] = Link(
                    f"node{node_id}-pfs-read",
                    self._spec.pfs_read_bandwidth,
                    self._clock,
                    latency=self._spec.pfs_latency,
                )
                if self._sched is not None:
                    self._sched.attach(self._node_write_links[node_id])
                    self._sched.attach(self._node_read_links[node_id])
                if self._faults_hook is not None:
                    self._faults_hook.attach(self._node_write_links[node_id])
                    self._faults_hook.attach(self._node_read_links[node_id])
            return self._node_write_links[node_id], self._node_read_links[node_id]

    def open_put(self, key: StoreKey, nominal_size: int, payload_size: int, **kw):
        """Chunk-granular write handle (mirrors :meth:`SsdStore.open_put`)."""
        node_id = kw.get("node_id", 0)
        slow = 1.0
        corrupt_at = None
        if self.faults is not None:
            slow = self.faults.tier_gate("pfs", "pfs", "put", key)
            corrupt_at = self.faults.corruption("pfs", key, payload_size)
        return _PfsPut(
            self,
            key,
            nominal_size,
            node_id,
            slow,
            corrupt_at,
            cancelled=kw.get("cancelled"),
            request=kw.get("request"),
        )

    def put(self, key: StoreKey, payload: np.ndarray, nominal_size: int, **kw) -> float:
        """``copy=False`` transfers ownership of ``payload`` to the store
        (the caller must not mutate it afterwards) instead of copying it."""
        handle = self.open_put(
            key,
            nominal_size,
            int(payload.size),
            node_id=kw.get("node_id", 0),
            cancelled=kw.get("cancelled"),
            request=kw.get("request"),
        )
        handle.write(nominal_size)
        return handle.commit(payload, meta=kw.get("meta"), copy=kw.get("copy", True))

    def put_batch(self, entries, node_id: int = 0, request=None) -> float:
        """Commit several whole objects as one aggregated PFS operation.

        ``entries`` is ``[(key, payload, nominal_size, meta), ...]``. All
        bytes cross the node and global links as a single transfer — one
        per-op latency charge and one metadata op for the whole batch,
        which is exactly what write aggregation buys — and the blobs
        commit only after the full transfer lands (commit-at-end: a crash
        mid-batch durably commits nothing). Fault gates and corruption
        draws still run per entry so injection stays key-deterministic.
        """
        gates = []
        total = 0
        for key, payload, nominal_size, meta in entries:
            slow = 1.0
            corrupt_at = None
            if self.faults is not None:
                slow = self.faults.tier_gate("pfs", "pfs", "put", key)
                corrupt_at = self.faults.corruption("pfs", key, int(payload.size))
            gates.append((slow, corrupt_at))
            total += nominal_size
        slow = max((g[0] for g in gates), default=1.0)
        node_link, _ = self.node_links(node_id)
        with self.telemetry.bus.span(
            "pfs-put-batch", "pfs", ops=len(entries), bytes=total
        ):
            seconds = node_link.transfer(total, request=request)
            seconds += self.global_write_link.transfer(total, request=request)
            if slow > 1.0:  # brownout: the whole batch rides the slow link
                extra = seconds * (slow - 1.0)
                self._clock.sleep(extra)
                seconds += extra
        self._m_write_bytes.inc(total)
        self._m_write_ops.inc()
        for (key, payload, nominal_size, meta), (_slow, corrupt_at) in zip(
            entries, gates
        ):
            self._commit_blob(key, payload, nominal_size, meta, True, corrupt_at)
        return seconds

    def _commit_blob(self, key, payload, nominal_size, meta, copy, corrupt_at) -> None:
        if self._crc_meta:
            meta = dict(meta or {})
            meta["stored_crc"] = int(checksum_payload(payload))
        # Corruption flips a byte on the store's copy only (see SsdStore.put).
        blob = payload.copy() if (copy or corrupt_at is not None) else payload
        if corrupt_at is not None:
            blob[corrupt_at] ^= 0xFF
        blob.flags.writeable = False  # get() hands out views of this blob
        with self._blob_lock:
            self._blobs[key] = blob
        self._index.add(key, nominal_size, meta)

    def open_get(self, key: StoreKey, node_id: int = 0, request=None):
        """Chunk-granular read handle; ``finish()`` yields the payload."""
        nominal_size = self._index.require(key)
        slow = 1.0
        if self.faults is not None:
            slow = self.faults.tier_gate("pfs", "pfs", "get", key)
        return _PfsGet(self, key, nominal_size, node_id, slow, request)

    def get(self, key: StoreKey, node_id: int = 0, request=None):
        handle = self.open_get(key, node_id=node_id, request=request)
        handle.read(handle.nominal_size)
        return handle.finish()

    def _read_payload(self, key: StoreKey) -> np.ndarray:
        with self._blob_lock:
            payload = self._blobs.get(key)
        if payload is None:
            raise CheckpointNotFound(f"checkpoint {key} missing from PFS store")
        # Zero-copy: a read-only view (blobs are immutable once stored, and
        # a view keeps its base alive even across a concurrent delete()).
        return payload[:]

    def delete(self, key: StoreKey) -> None:
        if self._index.remove(key):
            with self._blob_lock:
                self._blobs.pop(key, None)

    def contains(self, key: StoreKey) -> bool:
        return self._index.contains(key)

    def verify(self, key: StoreKey) -> bool:
        """CRC-scrub the stored blob (uncharged); see SsdStore.verify."""
        if not self._index.contains(key):
            return False
        stored_crc = (self._index.meta(key) or {}).get("stored_crc")
        if stored_crc is None:
            return True
        with self._blob_lock:
            blob = self._blobs.get(key)
        if blob is None:
            return False
        return int(checksum_payload(blob)) == int(stored_crc)

    def meta(self, key: StoreKey) -> dict:
        return self._index.meta(key)

    def size_of(self, key: StoreKey) -> int:
        return self._index.size_of(key)

    def keys_for_process(self, process_id: int):
        return self._index.keys_for_process(process_id)

    def stored_bytes(self) -> int:
        return self._index.total()

    def object_count(self) -> int:
        return self._index.count()


class _PfsPut:
    """In-flight PFS write: each chunk crosses the node link then the
    global fabric link (both charged), commit-at-end."""

    def __init__(
        self,
        store: PfsStore,
        key: StoreKey,
        nominal_size: int,
        node_id: int,
        slow: float,
        corrupt_at: Optional[int],
        cancelled=None,
        request=None,
    ) -> None:
        self.store = store
        self.key = key
        self.nominal_size = nominal_size
        self.node_id = node_id
        self.seconds = 0.0
        self._slow = slow
        self._corrupt_at = corrupt_at
        self._cancelled = cancelled
        self._request = request
        self._chunks = 0

    def write(self, nbytes: int, cancelled=None, request=None) -> float:
        store = self.store
        if self._chunks > 0 and store.faults is not None:
            self._slow = store.faults.tier_gate("pfs", "pfs", "put", self.key)
        cancelled = self._cancelled if cancelled is None else cancelled
        request = self._request if request is None else request
        node_link, _ = store.node_links(self.node_id)
        with store.telemetry.bus.span("pfs-put", "pfs", key=self.key, bytes=nbytes):
            seconds = node_link.transfer(nbytes, cancelled=cancelled, request=request)
            seconds += store.global_write_link.transfer(
                nbytes, cancelled=cancelled, request=request
            )
            if self._slow > 1.0:  # brownout: degraded throughput, same bytes
                extra = seconds * (self._slow - 1.0)
                store._clock.sleep(extra)
                seconds += extra
        store._m_write_bytes.inc(nbytes)
        self._chunks += 1
        self.seconds += seconds
        return seconds

    def commit(self, payload: np.ndarray, meta=None, copy: bool = True) -> float:
        store = self.store
        store._m_write_ops.inc()
        store._commit_blob(
            self.key, payload, self.nominal_size, meta, copy, self._corrupt_at
        )
        return self.seconds


class _PfsGet:
    """In-flight PFS read: chunk charges on node + global links."""

    def __init__(
        self,
        store: PfsStore,
        key: StoreKey,
        nominal_size: int,
        node_id: int,
        slow: float,
        request,
    ) -> None:
        self.store = store
        self.key = key
        self.nominal_size = nominal_size
        self.node_id = node_id
        self.seconds = 0.0
        self._slow = slow
        self._request = request
        self._chunks = 0

    def read(self, nbytes: int, request=None) -> float:
        store = self.store
        if self._chunks > 0 and store.faults is not None:
            self._slow = store.faults.tier_gate("pfs", "pfs", "get", self.key)
        request = self._request if request is None else request
        _, node_link = store.node_links(self.node_id)
        with store.telemetry.bus.span("pfs-get", "pfs", key=self.key, bytes=nbytes):
            seconds = node_link.transfer(nbytes, request=request)
            seconds += store.global_read_link.transfer(nbytes, request=request)
            if self._slow > 1.0:
                extra = seconds * (self._slow - 1.0)
                store._clock.sleep(extra)
                seconds += extra
        store._m_read_bytes.inc(nbytes)
        self._chunks += 1
        self.seconds += seconds
        return seconds

    def finish(self):
        """``(payload, accounted seconds)`` — the whole object, post-charges."""
        self.store._m_read_ops.inc()
        return self.store._read_payload(self.key), self.seconds
