"""Parallel-file-system tier (Lustre stand-in).

One :class:`PfsStore` per cluster, shared by every node.  Each node funnels
its PFS traffic through its own per-node ingress/egress links (a node's
share of the fabric), while a global pair of links models the file system's
aggregate bandwidth — so both per-node and cluster-wide saturation occur.
Every chunk crosses the node link, then the global one; the rest of the
data path is :class:`~repro.tiers.base.ObjectStore`'s.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, TYPE_CHECKING

from repro.clock import VirtualClock
from repro.config import HardwareSpec, ScaleModel
from repro.simgpu.bandwidth import Link
from repro.telemetry import Telemetry
from repro.tiers.base import ObjectStore, TierLevel

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
        super().__init__("pfs", clock, telemetry, sched, faults)
        self.scale = scale
        aggregate_write = spec.pfs_write_bandwidth * max(1.0, aggregate_factor)
        aggregate_read = spec.pfs_read_bandwidth * max(1.0, aggregate_factor)
        self.global_write_link = Link(
            "pfs-write", aggregate_write, clock, latency=0.0, chunk_size=1 << 62
        )
        self.global_read_link = Link(
            "pfs-read", aggregate_read, clock, latency=0.0, chunk_size=1 << 62
        )
        self._attach(self.global_write_link, self.global_read_link)
        self._node_write_links: Dict[int, Link] = {}
        self._node_read_links: Dict[int, Link] = {}
        self._link_lock = threading.Lock()
        self._spec = spec

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
                self._attach(self._node_write_links[node_id], self._node_read_links[node_id])
            return self._node_write_links[node_id], self._node_read_links[node_id]

    def _links(self, write: bool, node_id: int):
        node_write, node_read = self.node_links(node_id)
        if write:
            return node_write, self.global_write_link
        return node_read, self.global_read_link

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
        gates = [self._put_gates(key, int(payload.size)) for key, payload, _, _ in entries]
        total = sum(entry[2] for entry in entries)
        slow = max((g[0] for g in gates), default=1.0)
        # Brownout: the whole batch rides the slowest entry's link.
        with self.telemetry.bus.span("pfs-put-batch", "pfs", ops=len(entries), bytes=total):
            seconds = self._charge(self._links(True, node_id), total, slow, request=request)
        self._m_write_bytes.inc(total)
        self._m_write_ops.inc()
        for (key, payload, nominal_size, meta), (_slow, corrupt_at) in zip(
            entries, gates
        ):
            self._commit(key, payload, nominal_size, meta, True, corrupt_at)
        return seconds
