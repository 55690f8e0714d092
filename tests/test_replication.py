"""Partner replication across nodes (VELOC resilience strategy), and the
corruption scrub over every replica target."""

import pytest

from repro.config import ClusterConfig, ResilienceConfig
from repro.core.engine import ScoreEngine
from repro.tiers.topology import Cluster
from repro.util.units import MiB
from tests.conftest import make_buffer, tiny_config
from tests.test_faults_recovery import _tamper

CKPT = 128 * MiB


@pytest.fixture
def two_node_cluster():
    with Cluster(tiny_config(num_nodes=2, processes_per_node=1)) as c:
        yield c


class TestReplication:
    def test_copies_land_on_partner_ssd(self, two_node_cluster):
        ctxs = two_node_cluster.process_contexts()
        engine = ScoreEngine(ctxs[0], partner_replication=True)
        try:
            for v in range(3):
                engine.checkpoint(v, make_buffer(ctxs[0], CKPT, seed=v))
            engine.wait_for_flushes()
            partner_ssd = two_node_cluster.nodes[1].ssd
            assert [(node, ssd) for node, ssd, _link in engine.replica_targets] == [
                (1, partner_ssd)
            ]
            for v in range(3):
                assert partner_ssd.contains((engine.process_id, v))
            assert engine.flusher.replicated == 3
        finally:
            engine.close()

    def test_noop_on_single_node(self, cluster, context):
        engine = ScoreEngine(context, partner_replication=True)
        try:
            assert engine.replica_targets == []
            assert engine.flusher.repl_stream is None
            engine.checkpoint(0, make_buffer(context, CKPT))
            engine.wait_for_flushes()
        finally:
            engine.close()

    def test_survives_node_ssd_loss(self, two_node_cluster):
        """The headline scenario: the home node's SSD contents are lost; a
        replacement process recovers everything from the partner node."""
        ctxs = two_node_cluster.process_contexts()
        engine = ScoreEngine(ctxs[0], partner_replication=True)
        sums = {}
        for v in range(4):
            buf = make_buffer(ctxs[0], CKPT, seed=v)
            sums[v] = buf.checksum()
            engine.checkpoint(v, buf)
        engine.wait_for_flushes()
        engine.close()

        # Node 0's SSD dies: drop every object.
        home_ssd = two_node_cluster.nodes[0].ssd
        for v in range(4):
            home_ssd.delete((ctxs[0].process_id, v))

        replacement = ScoreEngine(ctxs[0])
        try:
            recovered = replacement.recover_history()
            assert recovered == 4  # found on the partner's SSD
            out = ctxs[0].device.alloc_buffer(CKPT)
            for v in range(4):
                replacement.restore(v, out)
                assert out.checksum() == sums[v]
        finally:
            replacement.close()

    def test_discarded_checkpoints_not_replicated(self, two_node_cluster):
        ctxs = two_node_cluster.process_contexts()
        engine = ScoreEngine(ctxs[0], partner_replication=True, discard_consumed=True)
        try:
            engine.checkpoint(0, make_buffer(ctxs[0], CKPT))
            out = ctxs[0].device.alloc_buffer(CKPT)
            engine.restore(0, out)  # consumed + discarded immediately
            engine.wait_for_flushes()
            # Either the h2f leg was cancelled entirely, or the replication
            # stage saw the discard and skipped; never a partner copy with
            # cancelled flushes pending.
            partner_ssd = two_node_cluster.nodes[1].ssd
            if partner_ssd.contains((engine.process_id, 0)):
                # the flush won the race — the copy must then be complete
                payload, _ = partner_ssd.get((engine.process_id, 0))
                assert payload.size > 0
        finally:
            engine.close()


def test_corruption_scrub_covers_every_replica():
    """A corrupt blob found at restore is scrubbed from every replica that
    holds one, not only from the first; the restore is served from the
    pristine replica."""
    cfg = tiny_config(
        num_nodes=3,
        processes_per_node=1,
        cluster=ClusterConfig(enabled=True, replica_factor=3),
        resilience=ResilienceConfig(enabled=True),
    )
    with Cluster(cfg) as cluster:
        ctx = cluster.process_contexts()[0]
        with ScoreEngine(ctx) as engine:
            buf = make_buffer(ctx, CKPT, seed=0)
            engine.checkpoint(0, buf)
            assert engine.wait_for_flushes(timeout=600.0)
            key = engine.store_key(engine.catalog.get(0))
            targets = [ssd for _node, ssd, _link in engine.replica_targets]
        home, first, second = cluster.nodes[0].ssd, *targets
        assert all(ssd.contains(key) for ssd in (home, first, second))
        # Rot at rest on the home copy and on the second replica.
        _tamper(home, key)
        _tamper(second, key)
        with ScoreEngine(ctx) as engine2:
            assert engine2.recover_history() == 1
            out = ctx.device.alloc_buffer(CKPT)
            engine2.restore(0, out)
            assert out.checksum() == buf.checksum()
            assert first.contains(key) and first.verify(key)
            assert not home.contains(key)
            assert not second.contains(key)
            reg = cluster.telemetry.registry
            assert reg.counter("resilience.corruption_repairs").value == 2
