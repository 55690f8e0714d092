"""Asynchronous multi-level flushing (T_D2H and T_H2F of Section 4.3.1).

Each process runs up to five flush streams:

* ``flush-d2h`` — GPU cache → pinned host cache over the (shared) PCIe
  link; GPUDirect ``d2s`` flushes ride it straight to the SSD instead;
* ``flush-h2f`` — host cache → node-local SSD, rerouted to the parallel
  file system while the SSD is dark;
* ``flush-repl`` — SSD → the replica targets' SSDs (partner pair or ring
  successors), when replication is on;
* ``flush-f2p`` — SSD → parallel file system, when persistence beyond the
  node is requested;
* ``flush-f2r`` — the SSD read-back of ``f2p`` as a stage of its own, when
  chunk streaming is on.

Each leg is written once and takes a chunk plan
(:mod:`repro.core.streaming`).  The one-chunk plan, ``SERIAL``, is
store-and-forward: a leg moves the whole object and submits the next leg
once it lands.  A multi-chunk :class:`~repro.core.streaming.ChunkPipeline`
co-submits every leg up front and streams chunks between them through a
bounded ring.

The cascade follows the life cycle: a tier's instance becomes ``FLUSHED``
(evictable) only once the next slower tier holds a complete copy.  The
flusher snapshots the payload out of the source arena *before* the
throttled transfer, so an instance that becomes consumable mid-flight can be
evicted without corrupting the flush (``Instance.flush_pending`` guards the
snapshot window).

Problem condition (5): flushes of discarded checkpoints are abandoned —
``record.cancel_flush`` is checked chunk-wise inside the link transfer.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Optional, TYPE_CHECKING

from repro.core.lifecycle import CkptState
from repro.core.streaming import (
    MIN_STREAM_CHUNKS,
    RING_CHUNKS,
    SERIAL,
    ChunkPipeline,
    chunk_sizes_for,
    plan_chunks,
)
from repro.errors import (
    AllocationError,
    ReproError,
    TransferError,
    TransientTransferError,
)
from repro.log import get_logger
from repro.metrics.recorder import OpEvent, OpKind
from repro.sched.request import TransferClass
from repro.telemetry.causal import (
    CAT_REDUCE,
    CAT_REROUTE,
    CAT_RESERVE,
    CAT_RETRY,
    CAT_TRANSFER,
    NULL_OP,
)
from repro.tiers.base import TierLevel

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.catalog import CheckpointRecord
    from repro.core.engine import ScoreEngine

log = get_logger(__name__)


class Flusher:
    """The flush cascade of one engine."""

    def __init__(self, engine: "ScoreEngine") -> None:
        self.engine = engine
        self.d2h_stream = engine.device.create_stream("flush-d2h")
        self.h2f_stream = engine.device.create_stream("flush-h2f")
        self.f2p_stream = (
            engine.device.create_stream("flush-f2p") if engine.flush_to_pfs else None
        )
        # Ring-only companion to f2p: the SSD read-back runs as its own
        # pipeline stage so the read of chunk i+1 overlaps the PFS write of
        # chunk i (the one-chunk plan runs both on f2p, back to back).
        self.f2r_stream = (
            engine.device.create_stream("flush-f2r")
            if engine.streaming and engine.flush_to_pfs
            else None
        )
        self.repl_stream = (
            engine.device.create_stream("flush-repl")
            if engine.replica_targets
            else None
        )
        self.abandoned = 0
        self.replicated = 0
        #: self-healing tallies (resilience; all zero when it is off).
        self.retries = 0
        self.rerouted = 0
        self.reflushed = 0
        self.backfilled = 0
        #: records rerouted to the PFS while the SSD was dark, awaiting a
        #: catch-up copy back onto the node-local tier once it returns.
        self._backfill: deque = deque()
        self._backfill_lock = threading.Lock()
        self.telemetry = engine.telemetry
        pid = engine.process_id
        self._tracks = {
            "d2h": f"p{pid}-flush-d2h",
            "d2s": f"p{pid}-flush-d2h",  # GPUDirect rides the d2h stream
            "h2f": f"p{pid}-flush-h2f",
            "f2p": f"p{pid}-flush-f2p",
            "f2r": f"p{pid}-flush-f2r",
            "repl": f"p{pid}-flush-repl",
        }
        registry = self.telemetry.registry
        self._m_bytes = {
            stage: registry.counter(f"flush.{stage}.bytes")
            for stage in ("d2h", "d2s", "h2f", "f2p", "repl")
        }
        self._m_abandoned = registry.counter("flush.abandoned")
        self._m_d2h_depth = registry.gauge("flush.d2h.depth")
        self._m_h2f_depth = registry.gauge("flush.h2f.depth")
        self._m_retries = registry.counter("resilience.flush_retries")
        self._m_reroutes = registry.counter("resilience.reroutes")
        self._m_reflush = registry.counter("resilience.reflushes")
        self._m_backfills = registry.counter("resilience.backfills")
        # Pipeline-occupancy metrics exist only when streaming is on, so a
        # disabled run's metrics snapshot stays byte-identical to pre-stream.
        self._stream_lock = threading.Lock()
        self._stream_active_s = 0.0
        self._stream_overlap_s = 0.0
        if engine.streaming:
            self._m_streamed = registry.counter("flush.stream.pipelines")
            self._m_unaggregated = registry.counter("flush.stream.unaggregated")
            self._m_overlap = registry.gauge("flush.stream.overlap_ratio")
            self._m_stall = {
                stage: registry.gauge(f"flush.{stage}.stall_time")
                for stage in ("d2h", "h2f", "f2r", "f2p")
            }

    @property
    def backfill_depth(self) -> int:
        """Records durable only on the PFS, awaiting SSD catch-up copies."""
        with self._backfill_lock:
            return len(self._backfill)

    def _track_for(self, stage: str) -> str:
        return self._tracks.get(stage.split("-", 1)[0], self._tracks["h2f"])

    def _op(self, record: "CheckpointRecord"):
        """The record's causal handle (``NULL_OP`` when tracing is off)."""
        op = record.op
        return op if op is not None else NULL_OP

    def _causal(self, op, tier: str) -> dict:
        """Extra span kwargs tying a flush leg to its op, empty when off.

        Gated on ``op.op_id`` so disabled runs emit byte-identical spans
        (the ``tier`` arg must not appear in their args dicts).
        """
        if op.op_id is None:
            return {}
        return {"op_id": op.op_id, "category": CAT_TRANSFER, "tier": tier}

    def _mark_durable(self, record: "CheckpointRecord", op, stage: str, level: TierLevel) -> None:
        """First durable landing: emit the ``durable`` instant + SLO sample."""
        if op.op_id is None:
            return
        engine = self.engine
        now = engine.clock.now()
        op.instant(
            "durable",
            track=self._track_for(stage),
            tier=level.name.lower(),
            level=level.name,
        )
        if engine.slo is not None:
            engine.slo.observe_durability(now, now - op.start, op_id=op.op_id)

    def _abandon(self, stage: str, record: "CheckpointRecord", reason: str) -> None:
        """Count + trace + log one abandoned flush leg (monitor NOT required)."""
        self.abandoned += 1
        self._m_abandoned.inc()
        self.telemetry.bus.instant(
            "flush-abandoned",
            self._tracks[stage],
            op_id=self._op(record).op_id,
            ckpt=record.ckpt_id,
            reason=reason,
        )
        log.debug(
            "p%d: abandoning %s flush of checkpoint %d (%s)",
            self.engine.process_id,
            stage,
            record.ckpt_id,
            reason,
        )

    def schedule(self, record: "CheckpointRecord") -> None:
        """Queue the flush cascade after the GPU write.

        Under the one-chunk plan only the first leg is queued; each leg
        queues the next once it lands.  A ring plan (streaming on, and a
        D2H transfer of at least ``MIN_STREAM_CHUNKS`` chunks) co-submits
        every leg now.
        """
        engine = self.engine
        with engine.monitor:
            record.instance(TierLevel.GPU).flush_pending = True
        if engine.gpudirect:
            self._forward(record, self.d2h_stream, "d2s", self._flush_d2s)
        else:
            sizes = engine.streaming and plan_chunks(
                record.wire_size(TierLevel.GPU, TierLevel.HOST),
                engine.config.stream.stream_chunk_bytes,
                MIN_STREAM_CHUNKS,
            )
            if sizes:
                self._co_submit(record, len(sizes))
            else:
                self._forward(record, self.d2h_stream, "d2h", self._flush_d2h)
        self._m_d2h_depth.set(self.d2h_stream.depth)

    def _forward(self, record: "CheckpointRecord", stream, stage: str, leg) -> None:
        """Queue one leg of the one-chunk plan."""
        stream.submit(lambda: leg(record), label=f"{stage}-{record.ckpt_id}")

    def _co_submit(self, record: "CheckpointRecord", chunks: int) -> None:
        """Submit every leg of a ring plan at once, in cascade order.

        Because every checkpoint submits in the same stage order, the only
        cross-stage waits are *backward* (consumer on producer of the same
        checkpoint, producer throttled by its own consumer) — the
        dependency graph stays acyclic and the co-scheduled workers cannot
        deadlock.
        """
        engine = self.engine
        pipeline = ChunkPipeline(
            record.ckpt_id,
            chunks,
            RING_CHUNKS,
            engine.clock,
            cancelled=record.cancel_flush,
            crashed=engine.crashed,
        )
        legs = [("d2h", self.d2h_stream, self._flush_d2h),
                ("h2f", self.h2f_stream, self._flush_h2f)]
        if self.f2p_stream is not None:
            legs.append(("f2r", self.f2r_stream, self._flush_f2r))
            legs.append(("f2p", self.f2p_stream, self._flush_f2p))
        for name, _, _ in legs:
            pipeline.add_stage(name)
        pipeline.retain(len(legs))
        self._m_streamed.inc()
        for name, stream, leg in legs:
            event = stream.submit(
                lambda leg=leg: leg(record, pipeline),
                label=f"{name}-{record.ckpt_id}",
            )
            # Event-driven failure propagation: a stage worker that dies
            # with an unhandled error (or is cancelled at stream close)
            # fails its pipeline stage so neighbours unblock immediately
            # instead of timing out in their waits.
            event.add_done_callback(
                lambda ev, name=name: pipeline.fail(name)
                if (ev.error is not None or ev.cancelled)
                else None
            )
        self._m_h2f_depth.set(self.h2f_stream.depth)

    def _request(self, record: "CheckpointRecord"):
        """QoS tag for one flush leg (None when scheduling is off).

        The record's ``cancel_flush`` event doubles as the request's
        cancellation channel, so abandonment (condition (5)) interrupts a
        leg whether it is mid-transfer or still queued in an arbiter.
        """
        return self.engine._sched_request(
            TransferClass.CASCADE_FLUSH, cancel_event=record.cancel_flush
        )

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait for the whole cascade to settle (the paper's WAIT variant).

        ``timeout`` is in wall-clock seconds (callers convert nominal time
        via ``clock.to_real``); returns ``False`` when any stream still has
        work in flight at the deadline, ``True`` once everything drained.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        streams = [
            stream
            for stream in (
                self.d2h_stream,
                self.h2f_stream,
                self.repl_stream,
                self.f2r_stream,
                self.f2p_stream,
            )
            if stream is not None
        ]
        # Sweep until every stream is *simultaneously* idle: a drained d2h
        # item may have enqueued h2f work which enqueues repl/f2p work (and
        # with chunk streaming, stages co-run), so a fixed pass count can
        # return while the tail of the cascade is still in flight.  Each
        # sweep also gives rerouted records a chance to backfill onto a
        # healed SSD; a *stuck* backfill (tier still dark) does not hold
        # drain hostage — matching the historical contract.
        while True:
            backfill_before = self.backfill_depth
            self._drain_backfill()
            for stream in streams:
                if deadline is None:
                    stream.synchronize()
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not stream.synchronize(timeout=remaining):
                    return False
            if any(stream.depth > 0 for stream in streams):
                continue  # a synced stage enqueued downstream work mid-sweep
            depth = self.backfill_depth
            if depth and depth != backfill_before:
                continue  # backfill progressed; give it another sweep
            return True

    def close(self) -> None:
        self.d2h_stream.close(drain=True)
        self.h2f_stream.close(drain=True)
        if self.repl_stream is not None:
            self.repl_stream.close(drain=True)
        if self.f2r_stream is not None:
            self.f2r_stream.close(drain=True)
        if self.f2p_stream is not None:
            self.f2p_stream.close(drain=True)

    # -- self-healing machinery ----------------------------------------------
    def _retrying(self, stage: str, record: "CheckpointRecord", fn, breaker=None):
        """Run one flush leg, retrying injected transient faults.

        A plain call when resilience is off — the
        :class:`TransientTransferError` then propagates into the stage's
        historical ``TransferError`` handling, so disabled behavior is
        unchanged.  Each attempt feeds the endpoint's circuit breaker when
        ``breaker`` names one; exponential backoff with deterministic jitter
        is charged on the virtual clock.
        """
        engine = self.engine
        policy = engine.retry_policy
        attempt = 0
        while True:
            try:
                result = fn()
            except TransientTransferError:
                if breaker is not None:
                    engine.health.failure(breaker)
                if (
                    policy is None
                    or attempt >= policy.budget("CASCADE_FLUSH")
                    or record.cancel_flush.is_set()
                    or engine.crashed.is_set()
                ):
                    raise
                delay = policy.backoff(attempt, stage, record.ckpt_id)
                self.retries += 1
                self._m_retries.inc()
                op = self._op(record)
                self.telemetry.bus.instant(
                    "flush-retry",
                    self._track_for(stage),
                    op_id=op.op_id,
                    ckpt=record.ckpt_id,
                    stage=stage,
                    attempt=attempt,
                    delay=delay,
                )
                with op.stage(
                    "backoff", CAT_RETRY, track=self._track_for(stage), leg=stage
                ):
                    engine.clock.sleep(delay)
                attempt += 1
                continue
            if breaker is not None:
                engine.health.success(breaker)
            return result

    def _reverify(self, stage: str, record: "CheckpointRecord", store, breaker, reput) -> bool:
        """Post-flush CRC re-verification with bounded re-flush.

        Scrubs the just-written blob against the pristine CRC stamped at
        put() time; a mismatch (injected at-rest corruption) deletes the
        blob and re-puts it from the in-hand pristine payload, twice at
        most.  Returns ``True`` once the stored copy verifies.
        """
        engine = self.engine
        key = engine.store_key(record)
        for attempt in range(2):
            if store.verify(key):
                return True
            self.reflushed += 1
            self._m_reflush.inc()
            self.telemetry.bus.instant(
                "flush-reverify",
                self._track_for(stage),
                op_id=self._op(record).op_id,
                ckpt=record.ckpt_id,
                stage=stage,
                tier=getattr(store, "_track", "pfs"),
                attempt=attempt,
            )
            log.warning(
                "p%d: %s flush of checkpoint %d failed CRC verification; "
                "re-flushing",
                engine.process_id, stage, record.ckpt_id,
            )
            store.delete(key)
            try:
                self._retrying(stage, record, reput, breaker=breaker)
            except TransferError:
                return False
        return store.verify(key)

    def _durable_put(self, stage: str, record: "CheckpointRecord", pipeline, payload):
        """Land ``payload`` durably: the local SSD, or the PFS when the SSD
        is dark (circuit breaker open, outage window) and rerouting is on.

        Chunks are charged on the SSD write link as the upstream stage
        publishes them; the blob commits, and only then becomes visible,
        after the last one.  A transient failure retries *the failed
        chunk*.  Chunk 0's attempts open the put, so each retry of it
        redraws the tier gate and the at-rest corruption — the one-chunk
        plan thereby retries exactly like a whole-object ``put()``.  An
        exhausted retry budget (or an open breaker) reroutes to the PFS,
        resuming at the failed chunk.

        Returns ``"ssd"`` or ``"pfs"`` naming where the blob landed —
        durability, chunk attachment and the journal entry are already
        committed for ``"pfs"`` (handled by the reroute) — or ``None``
        after abandoning the leg.
        """
        engine = self.engine
        key = engine.store_key(record)
        breaker = engine.ssd._track
        reroute = engine.resilient and engine.pfs is not None
        op = self._op(record)
        track = self._track_for(stage)
        stored = record.stored_size(TierLevel.SSD)

        if engine.resilient and not engine.health.allow(breaker):
            # Blacklisted: don't feed the dark tier another doomed write.
            if reroute:
                return self._reroute(stage, record, pipeline, payload, 0)
            self._abandon(stage, record, "ssd circuit breaker open")
            return None
        handle = None
        consumed = 0

        def write(chunk: int, nbytes: int) -> None:
            nonlocal handle, consumed
            consumed = chunk + 1
            if chunk == 0:
                handle = engine.ssd.open_put(
                    key, stored, int(payload.size), cancelled=record.cancel_flush
                )
            handle.write(nbytes, request=self._request(record))

        try:
            with op.stage("ssd-put", CAT_TRANSFER, track=track, tier="ssd"):
                if not self._chunks(
                    stage, "ssd", record, pipeline, stored, write, breaker=breaker
                ):
                    self._bail(stage, record, "upstream abandoned")
                    return None
                # Commit-at-end hands ownership of the snapshot to the store
                # (copy=False, the zero-copy path); re-puts copy.
                handle.commit(payload, meta=engine.recovery_meta(record), copy=False)
        except TransientTransferError as exc:
            if reroute:
                return self._reroute(stage, record, pipeline, payload, consumed)
            self._abandon(stage, record, f"{type(exc).__name__} mid-transfer")
            return None
        except TransferError:
            self._abandon(stage, record, "cancelled mid-transfer")
            return None
        if engine.resilient:

            def reput() -> None:
                engine.ssd.put(
                    key,
                    payload,
                    stored,
                    cancelled=record.cancel_flush,
                    meta=engine.recovery_meta(record),
                    copy=True,
                    request=self._request(record),
                )

            with op.stage("reverify", CAT_RETRY, track=track, tier="ssd"):
                verified = self._reverify(stage, record, engine.ssd, breaker, reput)
            if not verified:
                engine.ssd.delete(key)
                engine._journal_retract(record, breaker)
                if reroute:
                    return self._reroute(stage, record, pipeline, payload, pipeline.chunks)
                self._abandon(stage, record, "persistent corruption on SSD put")
                return None
        return "ssd"

    def _reroute(
        self, stage: str, record: "CheckpointRecord", pipeline, payload, consumed: int
    ):
        """Reroute a durable put around a dark SSD, straight to the PFS.

        The ``consumed`` chunks that already crossed into host staging
        replay onto the PFS at once; the rest keep streaming against the
        upstream stage, so consumption resumes at the failed chunk instead
        of restarting the cascade.  On success the record is durable at the
        PFS (journaled, chunks attached) and queued for backfill — a
        catch-up copy onto the SSD once it returns.  Returns ``"pfs"``, or
        ``None`` after abandoning.
        """
        engine = self.engine
        pfs = engine.pfs
        key = engine.store_key(record)
        op = self._op(record)
        track = self._track_for(stage)
        self._skip_upgrade(pipeline)  # the blob is going to the PFS now
        self.rerouted += 1
        self._m_reroutes.inc()
        self.telemetry.bus.instant(
            "flush-reroute",
            track,
            op_id=op.op_id,
            ckpt=record.ckpt_id,
            stage=stage,
            chunk=consumed,
        )
        log.info(
            "p%d: rerouting %s flush of checkpoint %d around the dark SSD "
            "to the PFS at chunk %d/%d",
            engine.process_id, stage, record.ckpt_id, consumed, pipeline.chunks,
        )
        stored = record.stored_size(TierLevel.PFS)
        handle = None

        def write(chunk: int, nbytes: int) -> None:
            nonlocal handle
            if chunk == 0:
                handle = pfs.open_put(
                    key,
                    stored,
                    int(payload.size),
                    node_id=engine.node_id,
                    cancelled=record.cancel_flush,
                )
            handle.write(nbytes, request=self._request(record))

        def reput() -> None:
            pfs.put(
                key,
                payload,
                stored,
                node_id=engine.node_id,
                cancelled=record.cancel_flush,
                meta=engine.recovery_meta(record),
                request=self._request(record),
            )

        reroute_stage = f"{stage}-reroute"
        try:
            with op.stage("reroute", CAT_REROUTE, track=track, tier="pfs"):
                if not self._chunks(
                    stage, "pfs", record, pipeline, stored, write,
                    breaker="pfs", retry_stage=reroute_stage,
                ):
                    self._bail(stage, record, "upstream abandoned")
                    return None
                handle.commit(payload, meta=engine.recovery_meta(record))
                if not self._reverify(reroute_stage, record, pfs, "pfs", reput):
                    pfs.delete(key)
                    engine._journal_retract(record, "pfs")
                    self._abandon(stage, record, "persistent corruption on PFS reroute")
                    return None
        except TransferError as exc:
            self._abandon(stage, record, f"PFS reroute failed ({type(exc).__name__})")
            return None
        first_durable = False
        with engine.monitor:
            if record.durable_level is None or record.durable_level < TierLevel.PFS:
                first_durable = record.durable_level is None
                record.durable_level = TierLevel.PFS
            if engine._reduced_at(record, TierLevel.PFS):
                engine.reducer.attach(record, TierLevel.PFS)
            engine.monitor.notify_all()
        engine._journal_commit(record, TierLevel.PFS, "pfs")
        if first_durable:
            self._mark_durable(record, op, stage, TierLevel.PFS)
        with self._backfill_lock:
            self._backfill.append(record)
        return "pfs"

    def _drain_backfill(self) -> None:
        """Catch-up copies for rerouted records once the SSD returns.

        Pops queued records and copies their PFS blobs back onto the local
        SSD, breaker-gated; a failure (tier still dark) re-queues the record
        and stops until the next drain opportunity.
        """
        engine = self.engine
        if not engine.resilient:
            return
        breaker = engine.ssd._track
        while True:
            with self._backfill_lock:
                if not self._backfill:
                    return
                record = self._backfill.popleft()
            key = engine.store_key(record)
            if record.discarded or engine.crashed.is_set():
                continue
            if engine.ssd.contains(key):
                continue  # already healed by another path
            if engine.faults.hard_outage("ssd") or not engine.health.allow(breaker):
                with self._backfill_lock:
                    self._backfill.appendleft(record)
                return
            op = self._op(record)
            # The op has been idle since its reroute, waiting for the dark
            # SSD to heal: label that whole gap before timing the copy, so
            # its timeline stays gap-free.
            op.fill("await-heal", CAT_REROUTE, track=self._track_for("h2f"))
            backfill_t0 = engine.clock.now()
            try:
                payload, _ = engine.pfs.get(
                    key, node_id=engine.node_id, request=self._request(record)
                )
                engine.ssd.put(
                    key,
                    payload,
                    record.stored_size(TierLevel.SSD),
                    cancelled=record.cancel_flush,
                    meta=engine.recovery_meta(record),
                    request=self._request(record),
                )
            except (TransferError, ReproError):
                engine.health.failure(breaker)
                with self._backfill_lock:
                    self._backfill.appendleft(record)
                return
            engine.health.success(breaker)
            with engine.monitor:
                if engine._reduced_at(record, TierLevel.SSD):
                    engine.reducer.attach(record, TierLevel.SSD)
                engine.monitor.notify_all()
            engine._journal_commit(record, TierLevel.SSD, breaker)
            self.backfilled += 1
            self._m_backfills.inc()
            if op.op_id is not None:
                now = engine.clock.now()
                self.telemetry.bus.complete(
                    "backfill",
                    self._track_for("h2f"),
                    backfill_t0,
                    now - backfill_t0,
                    op_id=op.op_id,
                    category=CAT_REROUTE,
                    tier="ssd",
                )
            self.telemetry.bus.instant(
                "flush-backfill",
                self._track_for("h2f"),
                op_id=op.op_id,
                ckpt=record.ckpt_id,
            )

    # -- leg helpers ---------------------------------------------------------
    def _bail(self, stage: str, record: "CheckpointRecord", reason: str) -> None:
        """Quiet abandonment of a ring leg whose neighbour already
        abandoned (and counted) the flush — log only, no double-count."""
        log.debug(
            "p%d: streamed %s leg of checkpoint %d bailing (%s)",
            self.engine.process_id, stage, record.ckpt_id, reason,
        )

    def _account_stream(self, pipeline: ChunkPipeline) -> None:
        """Roll one finished pipeline into the occupancy gauges."""
        with self._stream_lock:
            self._stream_active_s += pipeline.active_s
            self._stream_overlap_s += pipeline.overlap_s
            active = self._stream_active_s
            overlap = self._stream_overlap_s
            for stage, stalled in pipeline.stall_s.items():
                gauge = self._m_stall.get(stage)
                if gauge is not None and stalled > 0:
                    gauge.add(stalled)
        if active > 0:
            self._m_overlap.set(overlap / active)

    def _settle(self, stage: str, pipeline, ok: bool) -> None:
        """Leg exit: fail the stage unless it completed; the last ring
        worker out rolls its pipeline into the occupancy gauges."""
        if not ok:
            pipeline.fail(stage)
        if pipeline.release():
            self._account_stream(pipeline)

    def _skip_upgrade(self, pipeline) -> None:
        """The PFS upgrade will not run (the durable hop failed, or a
        reroute landed the blob on the PFS already)."""
        if self.f2p_stream is not None:
            pipeline.skip("f2r")
            pipeline.skip("f2p")

    def _chunks(
        self,
        stage: str,
        tier: str,
        record: "CheckpointRecord",
        pipeline,
        total: int,
        step,
        *,
        breaker: Optional[str] = None,
        retry_stage: Optional[str] = None,
    ) -> bool:
        """Move ``total`` nominal bytes through ``pipeline``, one chunk per
        ``step(chunk, nbytes)`` call, each retried on its own.

        A chunk waits for the upstream stage to publish it and for room in
        the ring downstream.  ``False`` when the upstream stage failed (or
        this stage was skipped) before every chunk moved; the one-chunk
        plan makes a single whole-object step with no waits.
        """
        engine = self.engine
        for chunk, nbytes in enumerate(chunk_sizes_for(total, pipeline.chunks)):
            if not pipeline.await_upstream(stage, chunk) or pipeline.skipped(stage):
                return False
            if not pipeline.throttle(stage, chunk):
                raise TransferError("stream interrupted")
            t0 = engine.clock.now()
            pipeline.enter_chunk()
            try:
                self._retrying(
                    retry_stage or stage,
                    record,
                    lambda chunk=chunk, nbytes=nbytes: step(chunk, nbytes),
                    breaker=breaker,
                )
            finally:
                pipeline.exit_chunk()
            pipeline.chunk_span(
                self.telemetry.bus, self._track_for(stage), self._op(record),
                stage, tier, chunk, nbytes, t0,
            )
            pipeline.publish(stage, chunk)
        return True

    def _snapshot(self, stage: str, record: "CheckpointRecord", level: TierLevel, cache):
        """Leg preamble: copy the payload out of ``level``'s cache, then
        unpin the instance so it may be evicted mid-flight.  ``None`` after
        abandoning a discarded or already-evicted source."""
        engine = self.engine
        with engine.monitor:
            inst = record.peek(level)
            if record.discarded or inst is None:
                if inst is not None:
                    inst.flush_pending = False
                self._abandon(stage, record, "discarded or already evicted")
                engine.monitor.notify_all()
                return None
        try:
            payload = cache.read_payload(record)
        except AllocationError:
            # Discarded and evicted between the check and the snapshot.
            self._abandon(stage, record, "evicted during payload snapshot")
            return None
        with engine.monitor:
            inst.flush_pending = False
            engine.monitor.notify_all()
        return payload

    def _landed(
        self, stage: str, record: "CheckpointRecord", outcome: str, source: TierLevel
    ) -> None:
        """Durable-put epilogue: an SSD landing makes the record durable
        there (a reroute committed the PFS itself); either way the source
        copy is unpinned and ``FLUSHED``."""
        engine = self.engine
        first_durable = False
        with engine.monitor:
            if outcome == "ssd":
                if record.durable_level is None or record.durable_level < TierLevel.SSD:
                    first_durable = record.durable_level is None
                    record.durable_level = TierLevel.SSD
                if engine._reduced_at(record, TierLevel.SSD):
                    engine.reducer.attach(record, TierLevel.SSD)
            src = record.peek(source)
            if src is not None:
                src.flush_pending = False
                src.try_transition(CkptState.FLUSHED, engine.clock.now())
            engine.monitor.notify_all()
        if outcome == "ssd":
            engine._journal_commit(record, TierLevel.SSD, engine.ssd._track)
            if first_durable:
                self._mark_durable(record, self._op(record), stage, TierLevel.SSD)

    def _record_flush(self, record: "CheckpointRecord", started: float) -> None:
        """One FLUSH op event for the leg that took the GPU copy."""
        engine = self.engine
        engine.recorder.record(
            OpEvent(
                kind=OpKind.FLUSH,
                ckpt_id=record.ckpt_id,
                started_at=started,
                blocked=engine.clock.now() - started,
                nominal_bytes=record.nominal_size,
                source_level=TierLevel.GPU.name,
            )
        )

    # -- legs ----------------------------------------------------------------
    def _flush_d2h(self, record: "CheckpointRecord", pipeline=SERIAL) -> None:
        """GPU cache → host cache over PCIe; the producer of a ring."""
        engine = self.engine
        ok = False
        try:
            if engine.crashed.is_set():
                return  # the incarnation is dead; drop queued work
            engine._maybe_crash("before-d2h", record)
            started = engine.clock.now()
            op = self._op(record)
            op.fill("flush-queue", track=self._tracks["d2h"])
            payload = self._snapshot("d2h", record, TierLevel.GPU, engine.gpu_cache)
            if payload is None:
                return
            if (
                engine.reducer is not None
                and engine.reducer.site == "host"
                and record.reduction is None
            ):
                # Host-site reduction: encode off the application's critical
                # path, on this flush thread, before the host placement — the
                # host cache and everything below hold the physical form.
                with op.stage("encode", CAT_REDUCE, track=self._tracks["d2h"]):
                    engine.reducer.encode(record, payload)
            if engine._reduced_at(record, TierLevel.HOST):
                payload = engine.reducer.physical_payload(record)
            if pipeline is not SERIAL:
                # Consumers charge their links against our published chunks
                # instead of waiting for the host copy to land.
                pipeline.payload = payload
            wire = record.wire_size(TierLevel.GPU, TierLevel.HOST)
            # Claim host cache space (blocks for evictions as needed).
            with op.stage("reserve-host", CAT_RESERVE, track=self._tracks["d2h"]):
                engine.host_cache.reserve(
                    record, CkptState.WRITE_IN_PROGRESS, blocking=True
                )
            with self.telemetry.bus.span(
                "d2h",
                self._tracks["d2h"],
                ckpt=record.ckpt_id,
                bytes=wire,
                chunks=pipeline.chunks,
                **self._causal(op, "pcie"),
            ) as span:
                try:
                    self._chunks(
                        "d2h", "pcie", record, pipeline, wire,
                        lambda _, nbytes: engine.device.d2h_link.transfer(
                            nbytes,
                            cancelled=record.cancel_flush,
                            request=self._request(record),
                        ),
                    )
                except TransferError:
                    span.add(abandoned=True)
                    # Abandon: release the half-written host extent.
                    engine.host_cache.release(record)
                    self._abandon("d2h", record, "cancelled mid-transfer")
                    return
            self._m_bytes["d2h"].inc(wire)
            engine.host_cache.write_payload(record, payload)
            with engine.monitor:
                host_inst = record.instance(TierLevel.HOST)
                host_inst.transition(CkptState.WRITE_COMPLETE, engine.clock.now())
                host_inst.flush_pending = True
                if engine._reduced_at(record, TierLevel.HOST):
                    engine.reducer.attach(record, TierLevel.HOST)
                gpu_now = record.peek(TierLevel.GPU)
                if gpu_now is not None:
                    gpu_now.try_transition(CkptState.FLUSHED, engine.clock.now())
                engine.monitor.notify_all()
            self._record_flush(record, started)
            engine._maybe_crash("after-d2h", record)
            pipeline.finish("d2h")
            ok = True
            if pipeline is SERIAL:
                self._forward(record, self.h2f_stream, "h2f", self._flush_h2f)
        finally:
            self._settle("d2h", pipeline, ok)
            self._m_h2f_depth.set(self.h2f_stream.depth)

    def _flush_d2s(self, record: "CheckpointRecord") -> None:
        """GPUDirect storage flush: GPU cache → SSD, no host staging.

        Always the one-chunk plan: the DMA and the drive commit are one
        store-and-forward hop.
        """
        engine = self.engine
        if engine.crashed.is_set():
            return
        engine._maybe_crash("before-d2s", record)
        started = engine.clock.now()
        op = self._op(record)
        op.fill("flush-queue", track=self._tracks["d2s"])
        payload = self._snapshot("d2s", record, TierLevel.GPU, engine.gpu_cache)
        if payload is None:
            return
        wire = record.wire_size(TierLevel.GPU, TierLevel.SSD)
        with self.telemetry.bus.span(
            "d2s",
            self._tracks["d2s"],
            ckpt=record.ckpt_id,
            bytes=wire,
            **self._causal(op, "ssd"),
        ) as span:
            try:
                # The DMA crosses the same PCIe link, then commits to the drive.
                self._retrying(
                    "d2s",
                    record,
                    lambda: engine.device.d2h_link.transfer(
                        wire,
                        cancelled=record.cancel_flush,
                        request=self._request(record),
                    ),
                )
            except TransferError:
                span.add(abandoned=True)
                self._abandon("d2s", record, "cancelled mid-transfer")
                return
            outcome = self._durable_put("d2s", record, SERIAL, payload)
            if outcome is None:
                span.add(abandoned=True)
                return
            if outcome == "pfs":
                span.add(rerouted=True)
        self._m_bytes["d2s"].inc(wire)
        self._landed("d2s", record, outcome, TierLevel.GPU)
        self._record_flush(record, started)
        engine._maybe_crash("after-d2s", record)
        if outcome == "ssd":
            self._drain_backfill()
            if self.f2p_stream is not None:
                self._forward(record, self.f2p_stream, "f2p", self._flush_f2p)

    def _flush_h2f(self, record: "CheckpointRecord", pipeline=SERIAL) -> None:
        """The durable hop: host cache → SSD (or the PFS around a dark SSD)."""
        engine = self.engine
        ok = False
        try:
            if engine.crashed.is_set():
                return
            # A ring's sizes and payload settle once the producer has run
            # its preamble (host-site encode): wait for its opening chunk.
            if not pipeline.await_upstream("h2f", 0):
                self._bail("h2f", record, "upstream abandoned")
                return
            engine._maybe_crash("before-h2f", record)
            op = self._op(record)
            op.fill("flush-queue", track=self._tracks["h2f"])
            if pipeline is SERIAL:
                payload = self._snapshot("h2f", record, TierLevel.HOST, engine.host_cache)
                if payload is None:
                    return
            else:
                # The host copy lands only when the producer commits: take
                # its handoff instead; the host extent stays pinned until
                # this leg settles.
                with engine.monitor:
                    if record.discarded:
                        self._abandon("h2f", record, "discarded mid-stream")
                        return
                payload = pipeline.payload
            wire = record.wire_size(TierLevel.HOST, TierLevel.SSD)
            with self.telemetry.bus.span(
                "h2f",
                self._tracks["h2f"],
                ckpt=record.ckpt_id,
                bytes=wire,
                chunks=pipeline.chunks,
                **self._causal(op, "ssd"),
            ) as span:
                outcome = self._durable_put("h2f", record, pipeline, payload)
                if outcome is None:
                    span.add(abandoned=True)
                    return
                if outcome == "pfs":
                    span.add(rerouted=True)
            # The producer's epilogue owns the host instance's
            # WRITE_COMPLETE transition; settle it before flipping FLUSHED.
            if not pipeline.await_finished("h2f", "d2h"):
                self._bail("h2f", record, "producer failed post-commit")
                return
            self._m_bytes["h2f"].inc(wire)
            self._landed("h2f", record, outcome, TierLevel.HOST)
            engine._maybe_crash("after-h2f", record)
            pipeline.finish("h2f")
            ok = True
            if outcome == "ssd":
                self._drain_backfill()
                if self.repl_stream is not None:
                    self.repl_stream.submit(
                        lambda: self._replicate(record), label=f"repl-{record.ckpt_id}"
                    )
                if pipeline is SERIAL and self.f2p_stream is not None:
                    self._forward(record, self.f2p_stream, "f2p", self._flush_f2p)
        finally:
            if not ok:
                self._skip_upgrade(pipeline)
                # A ring's producer pinned the host copy for us; an
                # abandoned durable hop must unpin it or it is unevictable
                # forever.
                with engine.monitor:
                    host_now = record.peek(TierLevel.HOST)
                    if host_now is not None and host_now.flush_pending:
                        host_now.flush_pending = False
                        engine.monitor.notify_all()
            self._settle("h2f", pipeline, ok)

    def _replicate(self, record: "CheckpointRecord") -> None:
        """Copy the durable checkpoint to its replica targets' SSDs.

        One target is the legacy partner pair; the cluster fabric supplies
        ``replica_factor - 1`` ring successors instead. Targets are copied
        in ring order; a failed target abandons the remaining ones —
        replication is best-effort beyond the first durable copy.
        """
        engine = self.engine
        if engine.crashed.is_set():
            return
        engine._maybe_crash("before-repl", record)
        op = self._op(record)
        op.fill("flush-queue", track=self._tracks["repl"])
        with engine.monitor:
            if record.discarded:
                self._abandon("repl", record, "discarded before replication")
                return
        # Partner replicas are verbatim SSD blobs and stay outside the chunk
        # accounting: the home node owns the recipe, the partner only keeps a
        # byte-copy for node-failure recovery.
        stored = record.stored_size(TierLevel.SSD)
        targets = engine.replica_targets
        if engine.fabric is not None and engine.fabric.membership.active:
            # Under node chaos, skip dead/partitioned targets instead of
            # burning retries into an offline SSD; the repairer restores
            # the factor once the target is back (or replaced).
            engine.fabric.membership.tick()
            targets = engine.fabric.live_replica_targets(engine.node_id)
        for _target_node, target_ssd, target_link in targets:

            def copy_to_partner(ssd=target_ssd, link=target_link) -> None:
                payload, _ = engine.ssd.get(
                    engine.store_key(record), request=self._request(record)
                )
                link.transfer(
                    stored,
                    cancelled=record.cancel_flush,
                    request=self._request(record),
                )
                ssd.put(
                    engine.store_key(record),
                    payload,
                    stored,
                    cancelled=record.cancel_flush,
                    meta=engine.recovery_meta(record),
                    request=self._request(record),
                )

            with self.telemetry.bus.span(
                "repl",
                self._tracks["repl"],
                ckpt=record.ckpt_id,
                bytes=stored,
                **self._causal(op, "fabric"),
            ) as span:
                try:
                    self._retrying("repl", record, copy_to_partner)
                except (TransferError, ReproError) as exc:
                    span.add(abandoned=True)
                    self._abandon(
                        "repl", record, f"{type(exc).__name__} during replication"
                    )
                    return
            self._m_bytes["repl"].inc(stored)
            self.replicated += 1
            engine._journal_commit(record, TierLevel.SSD, target_ssd._track)
        engine._maybe_crash("after-repl", record)

    def _read_back(self, record: "CheckpointRecord", pipeline, track: str):
        """The SSD read-back of the PFS upgrade: the payload, or ``None``
        after abandoning (or once a ring's upgrade was skipped).

        Retried apart from the PFS write, so an SSD failure never counts
        against the PFS breaker; its QoS tag keeps it behind the demand
        restores sharing the read link.
        """
        engine = self.engine
        key = engine.store_key(record)
        total = record.stored_size(TierLevel.SSD)
        reader = None

        def read(chunk: int, nbytes: int) -> None:
            nonlocal reader
            if chunk == 0:
                # A ring reads while the SSD put is still uncommitted (the
                # drive streams its write buffer through), so it names the
                # size instead of looking the blob up, and takes its bytes
                # from the producer's handoff.
                reader = engine.ssd.open_get(
                    key, nominal_size=None if pipeline is SERIAL else total
                )
            reader.read(nbytes, request=self._request(record))

        try:
            with self._op(record).stage("read-back", CAT_TRANSFER, track=track, tier="ssd"):
                if not self._chunks(
                    "f2r", "ssd", record, pipeline, total, read, retry_stage="f2p"
                ):
                    if not pipeline.skipped("f2r"):
                        self._bail("f2r", record, "durable hop abandoned")
                    return None
        except TransferError:
            self._abandon("f2p", record, "read-back cancelled mid-transfer")
            return None
        return reader.finish()[0] if pipeline is SERIAL else pipeline.payload

    def _flush_f2r(self, record: "CheckpointRecord", pipeline: ChunkPipeline) -> None:
        """A ring's SSD read-back, as a stage of its own so the read of
        chunk *i+1* overlaps the PFS write of chunk *i* — reading back
        before writing would pace the cascade at read+write per chunk."""
        engine = self.engine
        ok = False
        try:
            if engine.crashed.is_set():
                return
            if pipeline.skipped("f2r"):
                ok = True
                return
            # Fires as soon as this stage starts, which may be before the
            # durable hop commits the SSD put.
            engine._maybe_crash("before-f2p", record)
            # Sizes settle once the producer's opening chunk has reached
            # the durable hop.
            if not pipeline.await_upstream("f2r", 0):
                self._bail("f2r", record, "durable hop abandoned")
                return
            with self.telemetry.bus.span(
                "f2r",
                self._tracks["f2r"],
                ckpt=record.ckpt_id,
                bytes=record.stored_size(TierLevel.SSD),
                chunks=pipeline.chunks,
                **self._causal(self._op(record), "ssd"),
            ) as span:
                payload = self._read_back(record, pipeline, self._tracks["f2r"])
                ok = payload is not None or pipeline.skipped("f2r")
                if not ok:
                    span.add(abandoned=True)
            if payload is not None:
                pipeline.finish("f2r")
        finally:
            self._settle("f2r", pipeline, ok)

    def _flush_f2p(self, record: "CheckpointRecord", pipeline=SERIAL) -> None:
        """The PFS upgrade: SSD read-back, then the PFS put.

        The one-chunk plan reads back on this stream and puts the whole
        object through the fabric's write aggregator, so concurrent
        upgrades coalesce into one batched PFS commit.  A ring reads back
        on its ``f2r`` stage and writes each chunk straight to the PFS as
        it arrives; the aggregator batches whole objects only, so a ring
        upgrade bypasses it (counted in ``flush.stream.unaggregated``).
        """
        engine = self.engine
        ok = False
        try:
            if engine.crashed.is_set():
                return
            if pipeline.skipped("f2p"):
                ok = True
                return
            if pipeline is SERIAL:
                engine._maybe_crash("before-f2p", record)  # a ring's f2r fires it
            op = self._op(record)
            op.fill("flush-queue", track=self._tracks["f2p"])
            with engine.monitor:
                if record.discarded:
                    self._abandon("f2p", record, "discarded before PFS flush")
                    return
            pfs = engine.pfs
            if pfs is None:
                ok = True
                return
            if engine.resilient and not engine.health.allow("pfs"):
                # The SSD copy is already durable; skip the dark PFS rather
                # than feed its breaker another doomed upgrade write.
                self._abandon("f2p", record, "pfs circuit breaker open")
                return
            # A ring's read-back opening chunk implies the producer preamble
            # ran, so the physical payload and stored sizes are settled.
            if not pipeline.await_upstream("f2p", 0):
                self._bail("f2p", record, "read-back abandoned")
                return
            key = engine.store_key(record)
            stored = record.stored_size(TierLevel.PFS)
            wire = record.wire_size(TierLevel.SSD, TierLevel.PFS)
            with self.telemetry.bus.span(
                "f2p",
                self._tracks["f2p"],
                ckpt=record.ckpt_id,
                bytes=wire,
                chunks=pipeline.chunks,
                **self._causal(op, "pfs"),
            ) as span:
                if pipeline is SERIAL:
                    payload = self._read_back(record, pipeline, self._tracks["f2p"])
                    if payload is None:
                        span.add(abandoned=True)
                        return
                else:
                    payload = pipeline.payload

                def put() -> None:
                    engine._pfs_put(
                        key,
                        payload,
                        stored,
                        cancelled=record.cancel_flush,
                        meta=engine.recovery_meta(record),
                        request=self._request(record),
                    )

                writer = None

                def write(chunk: int, nbytes: int) -> None:
                    nonlocal writer
                    if chunk == 0:
                        writer = pfs.open_put(
                            key,
                            stored,
                            int(payload.size),
                            node_id=engine.node_id,
                            cancelled=record.cancel_flush,
                        )
                    writer.write(nbytes, request=self._request(record))

                try:
                    landed = self._chunks(
                        "f2p", "pfs", record, pipeline, stored,
                        (lambda *_: put()) if pipeline is SERIAL else write,
                        breaker="pfs",
                    )
                except TransferError:
                    span.add(abandoned=True)
                    self._abandon("f2p", record, "cancelled mid-transfer")
                    return
                # A ring commits only over a blob the durable hop actually
                # landed on the SSD (a reroute skips this stage).
                landed = landed and pipeline.await_finished("f2p", "h2f")
                if pipeline.skipped("f2p"):
                    ok = True
                    return
                if not landed:
                    span.add(abandoned=True)
                    self._bail("f2p", record, "upstream abandoned")
                    return
                if pipeline is not SERIAL:
                    writer.commit(payload, meta=engine.recovery_meta(record))
                    if engine.fabric is not None and engine.fabric.config.aggregation:
                        self._m_unaggregated.inc()
                        log.debug(
                            "p%d: streamed PFS upgrade of checkpoint %d bypassed "
                            "the write aggregator",
                            engine.process_id, record.ckpt_id,
                        )
                if engine.resilient:
                    with op.stage(
                        "reverify", CAT_RETRY, track=self._tracks["f2p"], tier="pfs"
                    ):
                        verified = self._reverify("f2p", record, pfs, "pfs", put)
                    if not verified:
                        pfs.delete(key)
                        engine._journal_retract(record, "pfs")
                        span.add(abandoned=True)
                        self._abandon("f2p", record, "persistent corruption on PFS put")
                        return
            self._m_bytes["f2p"].inc(wire)
            with engine.monitor:
                record.durable_level = TierLevel.PFS
                if engine._reduced_at(record, TierLevel.PFS):
                    engine.reducer.attach(record, TierLevel.PFS)
                engine.monitor.notify_all()
            engine._journal_commit(record, TierLevel.PFS, "pfs")
            engine._maybe_crash("after-f2p", record)
            pipeline.finish("f2p")
            ok = True
        finally:
            if not ok:
                pipeline.skip("f2r")  # no point reading back for a dead writer
            self._settle("f2p", pipeline, ok)
