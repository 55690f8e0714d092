"""Object stores (SSD/PFS) and cluster topology wiring."""

import numpy as np
import pytest

from repro.clock import VirtualClock
from repro.config import FaultConfig, HardwareSpec, ResilienceConfig, ScaleModel
from repro.errors import CheckpointNotFound, ConfigError
from repro.faults.injector import FaultDomain
from repro.tiers.base import TierLevel
from repro.tiers.pfs import PfsStore
from repro.tiers.ssd import SsdStore
from repro.tiers.topology import Cluster
from repro.util.rng import make_rng
from repro.util.units import KiB, MiB
from tests.conftest import tiny_config

SCALE = ScaleModel(data_scale=64 * KiB, alignment=64 * KiB, time_scale=0.002)


def _clock():
    return VirtualClock(time_scale=0.002)


def _payload(nominal):
    return make_rng(2, "store").integers(0, 256, SCALE.payload_bytes(nominal), dtype=np.uint8)


class TestTierLevel:
    def test_ordering(self):
        assert TierLevel.GPU < TierLevel.HOST < TierLevel.SSD < TierLevel.PFS

    def test_slower_faster(self):
        assert TierLevel.GPU.slower == TierLevel.HOST
        assert TierLevel.PFS.slower is None
        assert TierLevel.GPU.faster is None
        assert TierLevel.HOST.faster == TierLevel.GPU


def _flip_stored_byte(store, key):
    """Rot one byte of a stored blob behind the store's back."""
    if getattr(store, "_directory", None) is not None:
        with open(store._path(key), "r+b") as fh:
            first = fh.read(1)[0]
            fh.seek(0)
            fh.write(bytes([first ^ 0xFF]))
        return
    with store._blob_lock:
        bad = store._blobs[key].copy()
        bad[0] ^= 0xFF
        store._blobs[key] = bad


class TestSsdStore:
    """The store contract, on every backend: SSD in memory, SSD on files,
    and the PFS."""

    @pytest.fixture(params=["memory", "file", "pfs"])
    def make_store(self, request, tmp_path):
        def make(crc=False):
            clock = _clock()
            faults = None
            if crc:
                # Resilience on stamps a CRC at put() without injecting faults.
                faults = FaultDomain(FaultConfig(), ResilienceConfig(enabled=True), clock)
            if request.param == "pfs":
                return PfsStore(HardwareSpec(), SCALE, clock, faults=faults)
            directory = str(tmp_path / "ssd") if request.param == "file" else None
            return SsdStore(0, HardwareSpec(), SCALE, clock, directory=directory, faults=faults)

        return make

    @pytest.fixture
    def store(self, make_store):
        return make_store()

    def test_verify_detects_a_flipped_byte(self, make_store):
        store = make_store(crc=True)
        store.put((0, 1), _payload(1 * MiB), 1 * MiB)
        assert store.verify((0, 1))
        _flip_stored_byte(store, (0, 1))
        assert not store.verify((0, 1))

    def test_put_get_roundtrip(self, store):
        data = _payload(1 * MiB)
        seconds = store.put((0, 1), data, 1 * MiB)
        assert seconds > 0
        out, read_seconds = store.get((0, 1))
        assert np.array_equal(out[: data.size], data)
        assert read_seconds > 0

    def test_contains(self, store):
        assert not store.contains((0, 1))
        store.put((0, 1), _payload(1 * MiB), 1 * MiB)
        assert store.contains((0, 1))

    def test_missing_get_raises(self, store):
        with pytest.raises(CheckpointNotFound):
            store.get((9, 9))

    def test_delete(self, store):
        store.put((0, 1), _payload(1 * MiB), 1 * MiB)
        store.delete((0, 1))
        assert not store.contains((0, 1))
        with pytest.raises(CheckpointNotFound):
            store.get((0, 1))

    def test_delete_missing_is_noop(self, store):
        store.delete((5, 5))

    def test_stored_bytes_and_count(self, store):
        store.put((0, 1), _payload(1 * MiB), 1 * MiB)
        store.put((0, 2), _payload(2 * MiB), 2 * MiB)
        assert store.stored_bytes() == 3 * MiB
        assert store.object_count() == 2

    def test_overwrite_replaces(self, store):
        store.put((0, 1), _payload(1 * MiB), 1 * MiB)
        data2 = make_rng(3, "other").integers(0, 256, SCALE.payload_bytes(1 * MiB), dtype=np.uint8)
        store.put((0, 1), data2, 1 * MiB)
        out, _ = store.get((0, 1))
        assert np.array_equal(out[: data2.size], data2)
        assert store.object_count() == 1


class TestPfsStore:
    def test_roundtrip_and_node_links(self):
        store = PfsStore(HardwareSpec(), SCALE, _clock(), num_nodes=2)
        data = _payload(1 * MiB)
        store.put((0, 1), data, 1 * MiB, node_id=1)
        out, _ = store.get((0, 1), node_id=0)
        assert np.array_equal(out[: data.size], data)

    def test_node_links_cached(self):
        store = PfsStore(HardwareSpec(), SCALE, _clock())
        w1, r1 = store.node_links(0)
        w2, r2 = store.node_links(0)
        assert w1 is w2 and r1 is r2

    def test_missing_raises(self):
        store = PfsStore(HardwareSpec(), SCALE, _clock())
        with pytest.raises(CheckpointNotFound):
            store.get((1, 2))


class TestTopology:
    def test_processes_per_node_default(self):
        with Cluster(tiny_config(processes_per_node=None)) as c:
            assert len(c.process_contexts()) == 8

    def test_two_nodes(self):
        with Cluster(tiny_config(num_nodes=2, processes_per_node=2)) as c:
            ctxs = c.process_contexts()
            assert len(ctxs) == 4
            assert ctxs[0].node.node_id == 0
            assert ctxs[2].node.node_id == 1
            # process ids follow node * gpus_per_node + local rank
            assert ctxs[2].process_id == 8

    def test_pcie_link_shared_by_pairs(self):
        with Cluster(tiny_config(processes_per_node=8)) as c:
            devices = c.nodes[0].devices
            assert devices[0].d2h_link is devices[1].d2h_link
            assert devices[0].d2h_link is not devices[2].d2h_link
            assert devices[2].h2d_link is devices[3].h2d_link

    def test_ssd_shared_within_node(self):
        with Cluster(tiny_config(num_nodes=2, processes_per_node=2)) as c:
            ctxs = c.process_contexts()
            assert ctxs[0].ssd is ctxs[1].ssd
            assert ctxs[0].ssd is not ctxs[2].ssd

    def test_pfs_shared_across_nodes(self):
        with Cluster(tiny_config(num_nodes=2, processes_per_node=1)) as c:
            ctxs = c.process_contexts()
            assert ctxs[0].pfs is ctxs[1].pfs

    def test_arenas_cached_per_context(self):
        with Cluster(tiny_config()) as c:
            ctx = c.process_contexts()[0]
            assert ctx.gpu_cache_arena() is ctx.gpu_cache_arena()
            assert ctx.host_cache_arena() is ctx.host_cache_arena()

    def test_bad_local_rank_rejected(self):
        with Cluster(tiny_config()) as c:
            with pytest.raises(ConfigError):
                c.nodes[0].process_context(99)

    def test_host_usable_capacity_without_costs(self):
        with Cluster(tiny_config(charge_allocation_cost=False)) as c:
            ctx = c.process_contexts()[0]
            arena = ctx.host_cache_arena()
            assert ctx.host_usable_capacity() == arena.nominal_capacity

    def test_host_usable_capacity_grows_lazily(self):
        cfg = tiny_config(charge_allocation_cost=True, lazy_host_pinning=True)
        with Cluster(cfg) as c:
            ctx = c.process_contexts()[0]
            arena = ctx.host_cache_arena()
            early = ctx.host_usable_capacity()
            assert early < arena.nominal_capacity
            # 2 GiB at 4 GiB/s pins fully in 0.5 nominal seconds.
            c.clock.sleep(1.0)
            assert ctx.host_usable_capacity() == arena.nominal_capacity

    def test_eager_pinning_charges_up_front(self):
        cfg = tiny_config(charge_allocation_cost=True, lazy_host_pinning=False)
        with Cluster(cfg) as c:
            ctx = c.process_contexts()[0]
            before = c.clock.now()
            ctx.host_cache_arena()
            elapsed = c.clock.now() - before
            # 2 GiB at 4 GiB/s = 0.5 nominal seconds, paid synchronously.
            assert elapsed >= 0.4
            assert ctx.host_usable_capacity() == ctx.host_cache_arena().nominal_capacity

    def test_cluster_close_idempotent(self):
        c = Cluster(tiny_config())
        c.close()
        c.close()

    def test_ssd_directory_backend(self, tmp_path):
        cfg = tiny_config(ssd_directory=str(tmp_path))
        with Cluster(cfg) as c:
            ctx = c.process_contexts()[0]
            data = _payload(1 * MiB)
            ctx.ssd.put((0, 0), data, 1 * MiB)
            out, _ = ctx.ssd.get((0, 0))
            assert np.array_equal(out[: data.size], data)


class TestInternodeFabric:
    def test_link_shared_and_symmetric(self):
        with Cluster(tiny_config(num_nodes=3, processes_per_node=1)) as c:
            link = c.internode_link(0, 1)
            assert link is c.internode_link(1, 0)
            assert link is not c.internode_link(0, 2)

    def test_self_link_rejected(self):
        with Cluster(tiny_config(num_nodes=2, processes_per_node=1)) as c:
            with pytest.raises(ConfigError):
                c.internode_link(1, 1)

    def test_bandwidth_from_spec(self):
        cfg = tiny_config(num_nodes=2, processes_per_node=1)
        with Cluster(cfg) as c:
            link = c.internode_link(0, 1)
            assert link.bandwidth == pytest.approx(cfg.hardware.internode_bandwidth)


class TestStoreMetadata:
    def test_meta_roundtrip(self, tmp_path):
        store = SsdStore(0, HardwareSpec(), SCALE, _clock())
        store.put((3, 7), _payload(1 * MiB), 1 * MiB, meta={"checksum": 42, "true_size": 999})
        assert store.meta((3, 7)) == {"checksum": 42, "true_size": 999}
        assert store.size_of((3, 7)) == 1 * MiB

    def test_meta_missing_key_raises(self):
        store = SsdStore(0, HardwareSpec(), SCALE, _clock())
        with pytest.raises(CheckpointNotFound):
            store.meta((1, 1))

    def test_keys_for_process(self):
        store = SsdStore(0, HardwareSpec(), SCALE, _clock())
        for key in ((0, 2), (0, 1), (1, 5)):
            store.put(key, _payload(1 * MiB), 1 * MiB)
        assert store.keys_for_process(0) == [(0, 1), (0, 2)]
        assert store.keys_for_process(1) == [(1, 5)]
        assert store.keys_for_process(9) == []

    def test_file_backend_reindexes_on_restart(self, tmp_path):
        directory = str(tmp_path / "ssd")
        store = SsdStore(0, HardwareSpec(), SCALE, _clock(), directory=directory)
        store.put((0, 3), _payload(1 * MiB), 1 * MiB, meta={"checksum": 7})
        # A new store over the same directory (simulated restart):
        reborn = SsdStore(0, HardwareSpec(), SCALE, _clock(), directory=directory)
        assert reborn.contains((0, 3))
        assert reborn.meta((0, 3))["checksum"] == 7
        out, _ = reborn.get((0, 3))
        assert out.size > 0
