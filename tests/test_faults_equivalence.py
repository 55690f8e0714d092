"""``FaultConfig.enabled=False`` / ``ResilienceConfig.enabled=False``
change nothing — the same discipline as ``SchedConfig`` / ``ReduceConfig``.

The fault-injection plumbing (the ``link.fault_injector`` hook, the tier
outage/corruption gates in the stores, the retry/reroute/reverify/journal
paths in the engine and flusher) must be invisible when both switches are
off: no injector attaches, ``engine.retry_policy`` is ``None`` (so every
retry wrapper collapses to a plain call), no CRC is stamped into store
metadata, and the journal never sees a commit.  This test runs the same
deterministic scenario on two fresh clusters — the default config and a
config with every *other* fault/resilience knob set to non-default values
but both ``enabled=False`` — and asserts identical eviction decision
streams, final cache layouts, tier byte counters, store metadata and
restored bytes.

(Checkpoints are serialized with ``wait_for_flushes`` between operations so
thread interleaving cannot perturb eviction order; event timestamps are
excluded, as wall-clock jitter feeds the virtual clock.)
"""

import json

from repro.config import FaultConfig, ResilienceConfig
from repro.core.engine import ScoreEngine
from repro.tiers.topology import Cluster
from repro.util.rng import make_rng
from repro.util.units import MiB
from repro.workloads.patterns import RestoreOrder, restore_order
from tests.conftest import tiny_config

CKPT = 128 * MiB
VERSIONS = 14


def _run_scenario(faults_cfg, resilience_cfg):
    cfg = tiny_config(telemetry=True)
    if faults_cfg is not None:
        cfg = cfg.with_(faults=faults_cfg)
    if resilience_cfg is not None:
        cfg = cfg.with_(resilience=resilience_cfg)
    with Cluster(cfg) as cluster:
        ctx = cluster.process_contexts()[0]
        with ScoreEngine(ctx, flush_to_pfs=True) as engine:
            # The gates under test: nothing attached, nothing active.
            assert cluster.faults.plan is None
            assert not cluster.faults.meta_crc
            assert not cluster.health.enabled
            assert engine.retry_policy is None
            assert not engine.resilient
            sums = {}
            for v in range(VERSIONS):
                buf = ctx.device.alloc_buffer(CKPT)
                buf.fill_random(make_rng(v, "faults-equiv"))
                sums[v] = buf.checksum()
                engine.checkpoint(v, buf)
                # Serialize the cascade: decisions become deterministic.
                engine.wait_for_flushes(timeout=600.0)
            restored = {}
            out = ctx.device.alloc_buffer(CKPT)
            for v in restore_order(RestoreOrder.IRREGULAR, VERSIONS, seed=3):
                engine.restore(v, out)
                restored[v] = out.checksum()
            assert restored == sums
            assert cluster.journal.commits == 0  # journal never engaged
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
            # Store metadata must carry no CRC stamp when both sides are
            # off — byte-identical sidecars to the pre-subsystem runtime.
            metas = {
                str(key): engine.ssd.meta(key) or {}
                for key in sorted(engine.ssd.keys_for_process(engine.process_id))
            }
            durable = {
                v: (
                    engine.catalog.get(v).durable_level.name
                    if engine.catalog.get(v).durable_level is not None
                    else None
                )
                for v in range(VERSIONS)
            }
            return decisions, layouts, tier_bytes, metas, durable, restored


def test_disabled_faults_and_resilience_are_bit_identical():
    default = _run_scenario(None, None)
    # Every non-default knob set; enabled=False must make them all inert.
    off = _run_scenario(
        FaultConfig(
            enabled=False,
            seed=1234,
            transfer_fault_rate=0.8,
            fault_links=("ssd", "pfs"),
            min_fault_fraction=0.1,
            max_fault_fraction=0.2,
            tier_outages=(("ssd", 0.0, 1e9, 0.0),),
            corruption_rate=1.0,
            crash_point="before-h2f",
            crash_ckpt=0,
        ),
        ResilienceConfig(
            enabled=False,
            max_retries=9,
            backoff_base_s=1.0,
            backoff_factor=3.0,
            backoff_max_s=10.0,
            jitter=0.9,
            retry_classes=(("CASCADE_FLUSH", 2),),
            breaker_threshold=1,
            breaker_reset_s=0.1,
        ),
    )
    for got, want in zip(off, default):
        assert json.dumps(got, sort_keys=True, default=str) == json.dumps(
            want, sort_keys=True, default=str
        )
    decisions, _, _, metas, durable, _ = default
    assert len(decisions) > 0  # the scenario must actually exercise eviction
    assert all("stored_crc" not in meta for meta in metas.values())
    assert any(level is not None for level in durable.values())
