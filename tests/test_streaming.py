"""Pipelined chunk streaming through the flush/prefetch cascade.

The acceptance bar for the streaming subsystem:

* ``StreamConfig.enabled=False`` changes nothing — the same discipline as
  ``SchedConfig`` / ``ReduceConfig`` / ``FaultConfig``: identical eviction
  decision streams, cache layouts, tier byte counters, store metadata and
  restored bytes, and no streaming metrics registered; streaming on with
  transfers under the two-chunk floor (the one-chunk plan) makes the same
  eviction decisions, layouts, tier byte counts and restored bytes;
* streaming on, the cascade restores bit-identical bytes, reports pipeline
  counts and overlap/stall gauges, and composes with the reduction
  pipeline (chunk recipes reconstruct, CRCs verify);
* a crash between chunk commits loses nothing durable (commit-at-end: a
  torn stream leaves no partial object, and the manifest journal recovers
  every checkpoint that reached a durable tier);
* an SSD failure mid-stream reroutes to the PFS, replaying the chunks the
  dead put had consumed, and the rerouted checkpoint restores verified
  bytes;
* a streamed PFS upgrade around an enabled write aggregator is counted;
* a streamed promotion to the host fuses the GPU hop (chunked read and
  H2D slices), and falls back to the host-only hop across a host-site
  decode or a lost non-blocking GPU claim; GPUDirect streams SSD → GPU;
* under the one-chunk plan, hinted prefetch stages the same checkpoints
  per level as with streaming off;
* a ring's SSD read-back counts its read op like a store-and-forward one;
* (property) streamed and store-and-forward runs restore identical
  payload checksums for arbitrary snapshot-size mixes.

Plus unit coverage of the chunk planner, the ring-buffer backpressure
fabric itself, the event-driven completion callbacks, and the drain
sweep.
"""

import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clock import VirtualClock
from repro.config import (
    AnalysisConfig,
    ClusterConfig,
    FaultConfig,
    ReduceConfig,
    ResilienceConfig,
    StreamConfig,
)
from repro.core.engine import ScoreEngine
from repro.core.streaming import ChunkPipeline, chunk_sizes_for, plan_chunks
from repro.core.validator import validate_engine
from repro.errors import InjectedCrash, TierOfflineError
from repro.simgpu.stream import Stream
from repro.tiers.base import TierLevel
from repro.tiers.topology import Cluster
from repro.util.rng import make_rng
from repro.util.units import MiB
from repro.workloads.patterns import RestoreOrder, restore_order
from tests.conftest import make_buffer, tiny_config

CKPT = 128 * MiB

STREAMING = StreamConfig(enabled=True)
RESILIENT = ResilienceConfig(enabled=True)


# -- chunk planning ----------------------------------------------------------
class TestChunkPlanning:
    def test_plan_splits_near_equal(self):
        sizes = plan_chunks(100, 30, 2)
        assert sizes == [25, 25, 25, 25]
        assert sum(sizes) == 100

    def test_plan_rejects_small_transfers(self):
        assert plan_chunks(10, 30, 2) is None  # one chunk: stay legacy
        assert plan_chunks(0, 30, 2) is None
        assert plan_chunks(60, 30, 2) == [30, 30]

    def test_chunk_sizes_for_exact_count(self):
        sizes = chunk_sizes_for(10, 3)
        assert sizes == [4, 3, 3]
        assert sum(sizes) == 10

    def test_stage_counts_align_across_sizes(self):
        # Reduced stages move fewer bytes but the same number of chunks.
        wire = plan_chunks(128 * MiB, 16 * MiB, 2)
        reduced = chunk_sizes_for(37 * MiB + 11, len(wire))
        assert len(reduced) == len(wire)
        assert sum(reduced) == 37 * MiB + 11


# -- the pipeline fabric -----------------------------------------------------
class TestChunkPipeline:
    def _pipeline(self, chunks=4, ring=2):
        pipe = ChunkPipeline(0, chunks, ring, VirtualClock())
        pipe.add_stage("a")
        pipe.add_stage("b")
        return pipe

    def test_consumer_waits_for_publish(self):
        pipe = self._pipeline()
        got = []

        def consumer():
            for i in range(pipe.chunks):
                got.append(pipe.await_upstream("b", i))

        t = threading.Thread(target=consumer)
        t.start()
        for i in range(pipe.chunks):
            pipe.publish("a", i)
        t.join(timeout=10.0)
        assert got == [True] * pipe.chunks

    def test_ring_backpressure_parks_producer(self):
        pipe = self._pipeline(chunks=6, ring=2)
        progressed = threading.Event()
        parked = threading.Event()

        def producer():
            for i in range(pipe.chunks):
                if i == pipe.ring:
                    parked.set()
                assert pipe.throttle("a", i)
                pipe.publish("a", i)
            progressed.set()

        t = threading.Thread(target=producer)
        t.start()
        assert parked.wait(timeout=10.0)
        # ring chunks ahead of a consumer that has done nothing: parked.
        assert not progressed.wait(timeout=0.2)
        for i in range(pipe.chunks):
            pipe.publish("b", i)
        assert progressed.wait(timeout=10.0)
        t.join(timeout=10.0)
        assert pipe.stall_s["a"] > 0.0

    def test_upstream_failure_unblocks_consumer(self):
        pipe = self._pipeline()
        pipe.publish("a", 0)
        assert pipe.await_upstream("b", 0)
        result = []
        t = threading.Thread(target=lambda: result.append(pipe.await_upstream("b", 1)))
        t.start()
        pipe.fail("a")
        t.join(timeout=10.0)
        assert result == [False]

    def test_downstream_failure_releases_producer(self):
        pipe = self._pipeline(chunks=6, ring=2)
        pipe.fail("b")
        # The producer keeps charging its own link to completion.
        assert all(pipe.throttle("a", i) for i in range(pipe.chunks))

    def test_skip_counts_as_complete(self):
        pipe = self._pipeline()
        pipe.skip("b")
        assert pipe.skipped("b")
        assert all(pipe.throttle("a", i) for i in range(pipe.chunks))
        assert pipe.await_finished("a", "b")

    def test_finish_beats_late_failure_signal(self):
        pipe = self._pipeline()
        pipe.finish("a")
        pipe.fail("a")  # stream-level error after the commit: kept
        assert pipe.finished("a") and not pipe.failed("a")
        assert pipe.await_upstream("b", pipe.chunks - 1)

    def test_release_refcount(self):
        pipe = self._pipeline()
        pipe.retain(2)
        assert not pipe.release()
        assert pipe.release()  # last worker out owns the metrics roll-up

    def test_overlap_integrator(self):
        pipe = self._pipeline()
        pipe.enter_chunk()
        pipe.enter_chunk()
        pipe.exit_chunk()
        pipe.exit_chunk()
        assert pipe.active_s >= pipe.overlap_s >= 0.0


# -- event-driven completion handoff ----------------------------------------
class TestEventCallbacks:
    def test_callback_fires_on_completion(self):
        stream = Stream("cb-test")
        try:
            gate = threading.Event()
            fired = threading.Event()
            event = stream.submit(gate.wait)
            event.add_done_callback(lambda ev: fired.set())
            assert not fired.is_set()
            gate.set()
            assert fired.wait(timeout=10.0)
        finally:
            stream.close()

    def test_callback_fires_immediately_when_done(self):
        stream = Stream("cb-test")
        try:
            event = stream.submit(lambda: None)
            event.wait(timeout=10.0)
            seen = []
            event.add_done_callback(seen.append)
            assert seen == [event]
        finally:
            stream.close()

    def test_callback_receives_failed_event(self):
        stream = Stream("cb-test")
        try:
            errors = []
            event = stream.submit(lambda: 1 / 0)
            event.add_done_callback(lambda ev: errors.append(ev.error))
            with pytest.raises(ZeroDivisionError):
                event.wait(timeout=10.0)
            assert len(errors) == 1 and isinstance(errors[0], ZeroDivisionError)
        finally:
            stream.close()


# -- disabled == bit-identical ----------------------------------------------
def _equivalence_scenario(stream_cfg):
    """The test_faults_equivalence scenario, parameterized on StreamConfig."""
    import json  # noqa: F401 - kept for symmetry with the faults twin

    cfg = tiny_config(telemetry=True)
    if stream_cfg is not None:
        cfg = cfg.with_(stream=stream_cfg)
    with Cluster(cfg) as cluster:
        ctx = cluster.process_contexts()[0]
        with ScoreEngine(ctx, flush_to_pfs=True) as engine:
            streaming = stream_cfg is not None and stream_cfg.enabled
            assert engine.streaming == streaming
            assert (engine.promote_stream is None) != streaming
            sums = {}
            for v in range(10):
                buf = make_buffer(ctx, CKPT, seed=v)
                sums[v] = buf.checksum()
                engine.checkpoint(v, buf)
                engine.wait_for_flushes(timeout=600.0)
            restored = {}
            out = ctx.device.alloc_buffer(CKPT)
            for v in restore_order(RestoreOrder.IRREGULAR, 10, seed=3):
                engine.restore(v, out)
                restored[v] = out.checksum()
            assert restored == sums
            decisions = [
                {"name": ev.name, "args": ev.args}
                for ev in cluster.telemetry.bus.snapshot()
                if ev.name == "evict-window"
            ]
            layouts = {
                cache.name: [
                    (f.offset, f.size, None if f.is_gap else f.record.ckpt_id)
                    for f in cache.table.fragments()
                ]
                for cache in (engine.gpu_cache, engine.host_cache)
            }
            registry = cluster.telemetry.registry
            tier_bytes = {
                name: registry.counter(name).value
                for name in (
                    "flush.d2h.bytes",
                    "flush.h2f.bytes",
                    "flush.f2p.bytes",
                    "tier.ssd.write_bytes",
                    "tier.pfs.write_bytes",
                )
            }
            snapshot = registry.snapshot()
            metric_names = sorted(snapshot.keys())
            pipelines = snapshot.get("flush.stream.pipelines")
            return decisions, layouts, tier_bytes, metric_names, restored, pipelines


def test_disabled_streaming_is_bit_identical():
    import json

    default = _equivalence_scenario(None)
    # The chunk size non-default; enabled=False must make it inert.
    off = _equivalence_scenario(
        StreamConfig(enabled=False, stream_chunk_bytes=4 * MiB)
    )
    for got, want in zip(off, default):
        assert json.dumps(got, sort_keys=True, default=str) == json.dumps(
            want, sort_keys=True, default=str
        )
    metric_names = default[3]
    # The streaming gauges must not exist in a disabled run's snapshot.
    assert not any("stream" in name for name in metric_names)


# -- streaming on: end-to-end correctness ------------------------------------
class TestStreamedCascade:
    def test_streamed_flush_restores_identical_bytes(self):
        cfg = tiny_config(telemetry=True, stream=STREAMING)
        with Cluster(cfg) as cluster:
            ctx = cluster.process_contexts()[0]
            with ScoreEngine(ctx, flush_to_pfs=True) as engine:
                assert engine.streaming
                sums = {}
                for v in range(8):
                    buf = make_buffer(ctx, CKPT, seed=v)
                    sums[v] = buf.checksum()
                    engine.checkpoint(v, buf)
                assert engine.wait_for_flushes(timeout=600.0)
                for v in range(8):
                    assert engine.catalog.get(v).durable_level is TierLevel.PFS
                out = ctx.device.alloc_buffer(CKPT)
                for v in restore_order(RestoreOrder.IRREGULAR, 8, seed=3):
                    engine.restore(v, out)
                    assert out.checksum() == sums[v]
                reg = cluster.telemetry.registry
                assert reg.counter("flush.stream.pipelines").value == 8
                # Gauges exist and carry sane values (overlap itself is
                # wall-clock dependent, so only bounds are asserted).
                assert 0.0 <= reg.gauge("flush.stream.overlap_ratio").value <= 1.0
                for stage in ("d2h", "h2f", "f2p"):
                    assert reg.gauge(f"flush.{stage}.stall_time").value >= 0.0
                validate_engine(engine)

    def test_small_checkpoints_fall_back_to_legacy(self):
        """A transfer under the two-chunk floor takes the one-chunk plan:
        store-and-forward, indistinguishable from streaming off."""
        disabled = _equivalence_scenario(None)
        one_chunk = _equivalence_scenario(
            StreamConfig(enabled=True, stream_chunk_bytes=CKPT)
        )
        decisions, layouts, tier_bytes, _, restored, pipelines = one_chunk
        assert decisions == disabled[0]
        assert layouts == disabled[1]
        assert tier_bytes == disabled[2]
        assert restored == disabled[4]
        assert pipelines == 0  # streaming on, yet no ring pipeline built

    def test_streaming_with_reduction(self):
        """Chunk recipes reconstruct and CRCs verify under streaming."""
        cfg = tiny_config(
            telemetry=True,
            stream=STREAMING,
            reduce=ReduceConfig(enabled=True),
            resilience=RESILIENT,  # CRC metadata stamped at commit
        )
        with Cluster(cfg) as cluster:
            ctx = cluster.process_contexts()[0]
            with ScoreEngine(ctx, flush_to_pfs=True) as engine:
                sums = {}
                base = make_buffer(ctx, CKPT, seed=0)
                for v in range(6):
                    buf = ctx.device.alloc_buffer(CKPT)
                    # High similarity: dedup/delta engage, physical < wire.
                    buf.payload[:] = base.payload
                    rng = make_rng(v, "stream-reduce")
                    idx = rng.integers(
                        0, buf.payload.size, size=buf.payload.size // 50
                    )
                    buf.payload[idx] ^= v + 1
                    sums[v] = buf.checksum()
                    engine.checkpoint(v, buf)
                assert engine.wait_for_flushes(timeout=600.0)
                pid = engine.process_id
                for v in range(6):
                    key = (pid, v)
                    if engine.ssd.contains(key):
                        assert engine.ssd.verify(key)
                out = ctx.device.alloc_buffer(CKPT)
                for v in range(6):
                    engine.restore(v, out)
                    assert out.checksum() == sums[v]
                validate_engine(engine)


def _ssd_reads(stream_cfg, count=6):
    """Flush ``count`` checkpoints down to the PFS (each upgrade reads the
    SSD copy back) and return the SSD's read counters."""
    cfg = tiny_config(telemetry=True, stream=stream_cfg)
    with Cluster(cfg) as cluster:
        ctx = cluster.process_contexts()[0]
        with ScoreEngine(ctx, flush_to_pfs=True) as engine:
            for v in range(count):
                engine.checkpoint(v, make_buffer(ctx, CKPT, seed=v))
            assert engine.wait_for_flushes(timeout=600.0)
        registry = cluster.telemetry.registry
        return (
            registry.counter("tier.ssd.read_ops").value,
            registry.counter("tier.ssd.read_bytes").value,
        )


def test_ring_read_back_counts_its_read_op():
    """A ring's SSD read-back hands its payload over through the pipeline,
    never through ``finish()``; it is still one read op per checkpoint."""
    disabled = _ssd_reads(StreamConfig(enabled=False))
    ring = _ssd_reads(StreamConfig(enabled=True, stream_chunk_bytes=4 * MiB))
    assert disabled == (6, 6 * CKPT)
    assert ring == disabled


def _await_prefetch_idle(engine, budget_s=600.0):
    """Block until the prefetcher has nothing left to do: no promotion in
    flight and no task it would pick (every state change it waits on
    notifies the monitor, so this is not a fixed sleep)."""
    deadline = engine.clock.now() + budget_s
    with engine.monitor:
        while True:
            inflight = any(r.prefetch_inflight for r in engine.catalog.all_records())
            if not inflight and engine.prefetcher._pick_task() is None:
                return
            assert engine.clock.now() < deadline, "prefetcher never went idle"
            engine.monitor.wait(virtual_timeout=1.0)


def _hinted_scenario(stream_cfg, count=24):
    """Forward hints on every checkpoint that only the SSD still holds,
    more than the GPU prefetch budget admits; returns which checkpoints
    each cache level staged once the prefetcher went idle, and how many
    promotions it ran."""
    cfg = tiny_config()
    if stream_cfg is not None:
        cfg = cfg.with_(stream=stream_cfg)
    with Cluster(cfg) as cluster:
        ctx = cluster.process_contexts()[0]
        with ScoreEngine(ctx) as engine:
            for v in range(count):
                engine.checkpoint(v, make_buffer(ctx, CKPT, seed=v))
                # One flush at a time, so eviction decisions are repeatable.
                assert engine.wait_for_flushes(timeout=600.0)
            with engine.monitor:
                ssd_only = [
                    v
                    for v in range(count)
                    if engine.catalog.get(v).fastest_cached_level() is None
                ]
            assert len(ssd_only) > 4  # the GPU cache holds four
            for v in ssd_only:
                engine.prefetch_enqueue(v)
            engine.prefetch_start()
            _await_prefetch_idle(engine)
            with engine.monitor:
                staged = {
                    level.name: sorted(
                        v
                        for v in range(count)
                        if (inst := engine.catalog.get(v).peek(level)) is not None
                        and inst.has_copy
                    )
                    for level in (TierLevel.GPU, TierLevel.HOST)
                }
            return staged, engine.prefetcher.promotions


def test_one_chunk_prefetch_stages_like_store_and_forward():
    """Prefetch admission under the one-chunk plan matches streaming off:
    a hop that will not fuse claims no GPU extent, so it must not be held
    back by the GPU budget either."""
    disabled = _hinted_scenario(None)
    one_chunk = _hinted_scenario(StreamConfig(enabled=True, stream_chunk_bytes=CKPT))
    assert one_chunk == disabled


# -- streamed promotion: the fused hop and its fallbacks --------------------
PROMOTE_CHUNK = 16 * MiB  # 8 chunks per 128 MiB checkpoint


class TestStreamedPromotion:
    def _engine_cfg(self, **changes):
        return tiny_config(
            telemetry=True,
            analysis=AnalysisConfig(enabled=True),  # promote stage spans
            stream=StreamConfig(enabled=True, stream_chunk_bytes=PROMOTE_CHUNK),
            **changes,
        )

    @staticmethod
    def _promote(engine, record, src, dst, blocking=True):
        """One ``promote_once`` under a causal op: its seconds, and the
        ``chunks`` arg of the ``promote`` stage span it emitted."""
        bus = engine.telemetry.bus
        before = len(bus.snapshot())
        seconds = engine.promote_once(
            record, src, dst, blocking=blocking, allow_pinned=blocking,
            op=engine.ops.prefetch(record.ckpt_id, "test-promote"),
        )
        chunks = [
            ev.args.get("chunks") for ev in bus.snapshot()[before:] if ev.name == "promote"
        ]
        return seconds, chunks

    @staticmethod
    def _durable_only(engine, record):
        """Drop the cached copies so only the durable one is left."""
        engine.gpu_cache.release(record)
        engine.host_cache.release(record)

    @staticmethod
    def _chunk_spans(cluster, ckpt_id):
        counts = {}
        for ev in cluster.telemetry.bus.snapshot():
            if ev.name in ("read-chunk", "h2d-chunk") and ev.args.get("ckpt") == ckpt_id:
                counts[ev.name] = counts.get(ev.name, 0) + 1
        return counts

    @staticmethod
    def _has_copy(record, level):
        inst = record.peek(level)
        return inst is not None and inst.has_copy

    def _restores(self, engine, ctx, v, expected):
        out = ctx.device.alloc_buffer(CKPT)
        engine.restore(v, out)
        assert out.checksum() == expected

    def test_ssd_to_host_fuses_both_levels(self):
        """One SSD→host call lands the host *and* the GPU copy from one
        chunked read, the H2D crossing chunk by chunk behind it."""
        with Cluster(self._engine_cfg()) as cluster:
            ctx = cluster.process_contexts()[0]
            with ScoreEngine(ctx) as engine:
                buf = make_buffer(ctx, CKPT, seed=0)
                engine.checkpoint(0, buf)
                assert engine.wait_for_flushes(timeout=600.0)
                record = engine.catalog.get(0)
                self._durable_only(engine, record)
                seconds, chunks = self._promote(engine, record, TierLevel.SSD, TierLevel.HOST)
                assert seconds is not None and seconds > 0
                assert chunks == [8]
                assert self._has_copy(record, TierLevel.HOST)
                assert self._has_copy(record, TierLevel.GPU)
                assert self._chunk_spans(cluster, 0) == {"read-chunk": 8, "h2d-chunk": 8}
                self._restores(engine, ctx, 0, buf.checksum())
                validate_engine(engine)

    def test_host_site_reduction_takes_the_host_only_hop(self):
        """A host-site decode sits between the two levels: the hop lands
        the host copy only, whole, and the GPU hop decodes afterwards."""
        cfg = self._engine_cfg(reduce=ReduceConfig(enabled=True, site="host"))
        with Cluster(cfg) as cluster:
            ctx = cluster.process_contexts()[0]
            with ScoreEngine(ctx) as engine:
                buf = make_buffer(ctx, CKPT, seed=0)
                engine.checkpoint(0, buf)
                assert engine.wait_for_flushes(timeout=600.0)
                record = engine.catalog.get(0)
                self._durable_only(engine, record)
                assert self._promote(engine, record, TierLevel.SSD, TierLevel.HOST)[0] is not None
                assert self._has_copy(record, TierLevel.HOST)
                assert record.peek(TierLevel.GPU) is None
                assert self._chunk_spans(cluster, 0) == {}
                self._restores(engine, ctx, 0, buf.checksum())
                validate_engine(engine)

    def test_lost_gpu_claim_takes_the_host_only_hop(self):
        """A non-blocking promotion whose GPU claim finds only pinned
        extents still stages the host copy instead of giving up."""
        with Cluster(self._engine_cfg()) as cluster:
            ctx = cluster.process_contexts()[0]
            with ScoreEngine(ctx) as engine:
                sums = {}
                for v in range(5):  # the GPU cache holds four
                    buf = make_buffer(ctx, CKPT, seed=v)
                    sums[v] = buf.checksum()
                    engine.checkpoint(v, buf)
                assert engine.wait_for_flushes(timeout=600.0)
                records = [engine.catalog.get(v) for v in range(5)]
                for record in records:
                    self._durable_only(engine, record)
                for record in records[1:]:
                    # Fused stagings, pinned until consumed: a full GPU cache.
                    engine.promote_once(
                        record, TierLevel.SSD, TierLevel.HOST,
                        blocking=True, allow_pinned=True,
                    )
                    assert self._has_copy(record, TierLevel.GPU)
                seconds, _ = self._promote(
                    engine, records[0], TierLevel.SSD, TierLevel.HOST, blocking=False
                )
                assert seconds is not None
                assert self._has_copy(records[0], TierLevel.HOST)
                assert records[0].peek(TierLevel.GPU) is None
                assert self._chunk_spans(cluster, 0) == {}
                for v in range(5):
                    self._restores(engine, ctx, v, sums[v])
                validate_engine(engine)

    def test_gpudirect_streams_ssd_to_gpu(self):
        """GPUDirect promotions read storage straight into HBM as a ring."""
        with Cluster(self._engine_cfg()) as cluster:
            ctx = cluster.process_contexts()[0]
            with ScoreEngine(ctx, gpudirect=True) as engine:
                buf = make_buffer(ctx, CKPT, seed=0)
                engine.checkpoint(0, buf)
                assert engine.wait_for_flushes(timeout=600.0)
                record = engine.catalog.get(0)
                self._durable_only(engine, record)
                assert engine.promotion_step(record) == (TierLevel.SSD, TierLevel.GPU)
                seconds, chunks = self._promote(engine, record, TierLevel.SSD, TierLevel.GPU)
                assert seconds is not None
                assert chunks == [8]
                assert self._has_copy(record, TierLevel.GPU)
                assert record.peek(TierLevel.HOST) is None
                assert self._chunk_spans(cluster, 0) == {"read-chunk": 8, "h2d-chunk": 8}
                assert engine.host_cache.table.used_bytes == 0
                self._restores(engine, ctx, 0, buf.checksum())
                validate_engine(engine)

    def test_one_chunk_promote_stage_carries_chunks(self):
        """Every promote stage span says how many chunks it moved: 1 for a
        store-and-forward hop, like the flush stage spans."""
        cfg = tiny_config(telemetry=True, analysis=AnalysisConfig(enabled=True))
        with Cluster(cfg) as cluster:
            ctx = cluster.process_contexts()[0]
            with ScoreEngine(ctx) as engine:
                engine.checkpoint(0, make_buffer(ctx, CKPT, seed=0))
                assert engine.wait_for_flushes(timeout=600.0)
                record = engine.catalog.get(0)
                self._durable_only(engine, record)
                for src, dst in ((TierLevel.SSD, TierLevel.HOST), (TierLevel.HOST, TierLevel.GPU)):
                    assert self._promote(engine, record, src, dst)[1] == [1]
                assert self._chunk_spans(cluster, 0) == {}


# -- streaming + faults ------------------------------------------------------
class TestStreamedFaults:
    @pytest.mark.parametrize(
        "point",
        [
            "before-d2h", "after-d2h",
            "before-h2f", "after-h2f",
            "before-f2p", "after-f2p",
        ],
    )
    def test_crash_between_chunk_commits(self, point):
        """Commit-at-end: a crash at a stage boundary mid-stream leaves no
        torn object; the journal recovers exactly what committed."""
        cfg = tiny_config(
            stream=STREAMING,
            faults=FaultConfig(enabled=True, crash_point=point, crash_ckpt=1),
            resilience=RESILIENT,
        )
        with Cluster(cfg) as cluster:
            ctx = cluster.process_contexts()[0]
            engine = ScoreEngine(ctx, flush_to_pfs=True)
            sums = {}
            buf0 = make_buffer(ctx, CKPT, seed=0)
            sums[0] = buf0.checksum()
            engine.checkpoint(0, buf0)
            engine.wait_for_flushes(timeout=600.0)
            buf1 = make_buffer(ctx, CKPT, seed=1)
            sums[1] = buf1.checksum()
            try:
                engine.checkpoint(1, buf1)
            except InjectedCrash:
                pass
            engine.close()
            assert engine.crashed.is_set()
            pid = engine.process_id
            stores = [cluster.nodes[0].ssd, cluster.pfs]
            durable = {
                v for v in (0, 1) if any(s.contains((pid, v)) for s in stores)
            }
            assert 0 in durable
            if point == "before-h2f":
                # Crashed before any durable commit of v1: no torn object.
                assert not cluster.nodes[0].ssd.contains((pid, 1))
            engine2 = ScoreEngine(ctx, flush_to_pfs=True)
            try:
                assert engine2.recover_history() == len(durable)
                out = ctx.device.alloc_buffer(CKPT)
                for v in sorted(durable):
                    engine2.restore(v, out)
                    assert out.checksum() == sums[v]
                validate_engine(engine2)
            finally:
                engine2.close()

    def test_reroute_mid_stream_resumes_at_right_chunk(self):
        """An SSD that dies after consuming some chunks reroutes to the
        PFS, replaying the consumed chunks, and lands verified bytes."""
        cfg = tiny_config(
            telemetry=True, stream=STREAMING, resilience=RESILIENT
        )
        with Cluster(cfg) as cluster:
            ctx = cluster.process_contexts()[0]
            with ScoreEngine(ctx, flush_to_pfs=True) as engine:
                real_open_put = engine.ssd.open_put
                die_after = 2  # chunks the SSD consumes before going dark

                def flaky_open_put(key, nominal_size, payload_size, **kw):
                    handle = real_open_put(key, nominal_size, payload_size, **kw)
                    real_write = handle.write
                    calls = {"n": 0}

                    def flaky_write(nbytes, **wkw):
                        if calls["n"] >= die_after:
                            raise TierOfflineError("ssd died mid-stream")
                        calls["n"] += 1
                        return real_write(nbytes, **wkw)

                    handle.write = flaky_write
                    return handle

                engine.ssd.open_put = flaky_open_put
                try:
                    buf = make_buffer(ctx, CKPT, seed=0)
                    expected = buf.checksum()
                    engine.checkpoint(0, buf)
                    assert engine.wait_for_flushes(timeout=600.0)
                finally:
                    engine.ssd.open_put = real_open_put
                record = engine.catalog.get(0)
                assert record.durable_level is TierLevel.PFS
                assert engine.flusher.rerouted >= 1
                assert not engine.ssd.contains((engine.process_id, 0))
                # The reroute replayed the already-consumed chunks: the PFS
                # moved the full wire size, not just the tail.
                wire = record.wire_size(TierLevel.HOST, TierLevel.SSD)
                reg = cluster.telemetry.registry
                assert reg.counter("tier.pfs.write_bytes").value >= wire
                out = ctx.device.alloc_buffer(CKPT)
                engine.restore(0, out)
                assert out.checksum() == expected
                validate_engine(engine)

    def test_mid_stream_outage_window(self):
        """A time-indexed SSD outage opening mid-run still yields full
        durability (reroute at whatever chunk boundary the gate trips)."""
        cfg = tiny_config(
            stream=STREAMING,
            faults=FaultConfig(
                enabled=True, tier_outages=(("ssd", 0.0, 1e9, 0.0),)
            ),
            resilience=RESILIENT,
        )
        with Cluster(cfg) as cluster:
            ctx = cluster.process_contexts()[0]
            with ScoreEngine(ctx, flush_to_pfs=True) as engine:
                sums = {}
                for v in range(3):
                    buf = make_buffer(ctx, CKPT, seed=v)
                    sums[v] = buf.checksum()
                    engine.checkpoint(v, buf)
                assert engine.wait_for_flushes(timeout=600.0)
                out = ctx.device.alloc_buffer(CKPT)
                for v in range(3):
                    record = engine.catalog.get(v)
                    assert record.durable_level is TierLevel.PFS
                    engine.restore(v, out)
                    assert out.checksum() == sums[v]
                validate_engine(engine)


# -- streaming + the cluster's PFS write aggregator -------------------------
def test_ring_upgrade_around_the_aggregator_is_counted():
    """A ring's PFS upgrade writes its chunks straight to the PFS, around
    an enabled write aggregator, and says so in flush.stream.unaggregated;
    a one-chunk upgrade in the same run still goes through the aggregator."""
    cfg = tiny_config(
        telemetry=True,
        stream=STREAMING,
        cluster=ClusterConfig(enabled=True, replica_factor=1, aggregation=True),
    )
    sizes = [CKPT, CKPT, 8 * MiB]  # two 8-chunk rings, one one-chunk plan
    with Cluster(cfg) as cluster:
        ctx = cluster.process_contexts()[0]
        with ScoreEngine(ctx, flush_to_pfs=True) as engine:
            fabric = engine.fabric
            assert fabric is not None
            aggregated = []
            real_pfs_put = fabric.pfs_put

            def pfs_put(node_id, key, *args, **kw):
                aggregated.append(key)
                return real_pfs_put(node_id, key, *args, **kw)

            fabric.pfs_put = pfs_put
            sums = {}
            for v, size in enumerate(sizes):
                buf = ctx.device.alloc_buffer(size)
                buf.fill_random(make_rng(v, "stream-agg"))
                sums[v] = buf.checksum()
                engine.checkpoint(v, buf)
            assert engine.wait_for_flushes(timeout=600.0)
            snap = cluster.telemetry.registry.snapshot()
            assert snap["flush.stream.pipelines"] == 2
            assert snap["flush.stream.unaggregated"] == 2
            assert aggregated == [(engine.process_id, 2)]  # the one-chunk upgrade
            for v, size in enumerate(sizes):
                assert engine.catalog.get(v).durable_level is TierLevel.PFS
                out = ctx.device.alloc_buffer(size)
                engine.restore(v, out)
                assert out.checksum() == sums[v]
            validate_engine(engine)


# -- drain sweep -------------------------------------------------------------
def test_drain_waits_for_cascading_resubmission():
    """drain() must not return while a later stage still holds queued work
    that an earlier sweep pass missed (the old two-pass sweep bug)."""
    cfg = tiny_config(stream=STREAMING)
    with Cluster(cfg) as cluster:
        ctx = cluster.process_contexts()[0]
        with ScoreEngine(ctx, flush_to_pfs=True) as engine:
            for v in range(6):
                engine.checkpoint(v, make_buffer(ctx, CKPT, seed=v))
            assert engine.wait_for_flushes(timeout=600.0)
            # After a successful drain every stream really is idle and
            # every checkpoint reached the final tier.
            for stream in (
                engine.flusher.d2h_stream,
                engine.flusher.h2f_stream,
                engine.flusher.f2p_stream,
            ):
                assert stream is None or stream.depth == 0
            for v in range(6):
                assert engine.catalog.get(v).durable_level is TierLevel.PFS


# -- property: streamed == store-and-forward payloads ------------------------
@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    sizes=st.lists(
        st.sampled_from([32 * MiB, 48 * MiB, 128 * MiB, 160 * MiB]),
        min_size=2,
        max_size=4,
    ),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_streamed_and_legacy_checksums_identical(sizes, seed):
    def run(stream_cfg):
        cfg = tiny_config()
        if stream_cfg is not None:
            cfg = cfg.with_(stream=stream_cfg)
        with Cluster(cfg) as cluster:
            ctx = cluster.process_contexts()[0]
            with ScoreEngine(ctx, flush_to_pfs=True) as engine:
                sums = {}
                for v, size in enumerate(sizes):
                    buf = ctx.device.alloc_buffer(size)
                    buf.fill_random(make_rng(seed + v, "stream-prop"))
                    sums[v] = buf.checksum()
                    engine.checkpoint(v, buf)
                assert engine.wait_for_flushes(timeout=600.0)
                restored = {}
                for v, size in enumerate(sizes):
                    out = ctx.device.alloc_buffer(size)
                    engine.restore(v, out)
                    restored[v] = out.checksum()
                assert restored == sums
                return sums

    assert run(STREAMING) == run(None)
