import dataclasses
import threading

import pytest

from perfbench import tracing, workloads
from repro.core.engine import ScoreEngine


class FakeClock:
    """Advances only when the code under test says it worked."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_uninstall_restores_every_class_attribute():
    table = tracing.shims()
    before = {(s.cls, s.attr): vars(s.cls).get(s.attr) for s in table}
    with tracing.installed(tracing.Tracer(), table):
        for s in table:
            assert vars(s.cls)[s.attr] is not before[(s.cls, s.attr)]
    for s in table:
        assert vars(s.cls).get(s.attr) is before[(s.cls, s.attr)]


def test_uninstall_removes_a_wrapper_over_an_inherited_method():
    class Base:
        def work(self):
            return "base"

    class Child(Base):
        pass

    tracer = tracing.Tracer()
    with tracing.installed(tracer, [tracing.Shim(Child, "work", "core.engine")]):
        assert "work" in vars(Child)
        assert Child().work() == "base"
    assert "work" not in vars(Child)
    assert tracer.totals()["core.engine"].calls == 1


def test_failed_install_leaves_nothing_patched():
    class Thing:
        def ok(self):
            pass

        @staticmethod
        def static():
            pass

    original = vars(Thing)["ok"]
    table = [tracing.Shim(Thing, "ok", "clock"), tracing.Shim(Thing, "static", "clock")]
    with pytest.raises(TypeError):
        tracing.install(tracing.Tracer(), table)
    assert vars(Thing)["ok"] is original


def test_self_time_excludes_nested_spans():
    wall, cpu = FakeClock(), FakeClock()
    tracer = tracing.Tracer(wall=wall, cpu=cpu)

    def spend(seconds, cpu_seconds):
        wall.now += seconds
        cpu.now += cpu_seconds

    def inner():
        spend(3.0, 0.5)

    def same_layer():
        spend(1.0, 0.1)
        tracer.call("core.cache", "k.inner", inner, (), {})

    def outer():
        spend(1.0, 0.2)
        tracer.call("core.cache", "k.same", same_layer, (), {})
        spend(2.0, 0.3)

    tracer.call("core.engine", "k.outer", outer, (), {})
    totals = tracer.totals()
    engine, cache = totals["core.engine"], totals["core.cache"]
    assert engine.busy_s == pytest.approx(3.0)
    assert engine.cpu_s == pytest.approx(0.5)
    # core.cache entered once from outside, with a nested core.cache call.
    assert cache.calls == 1
    assert cache.busy_s == pytest.approx(4.0)
    assert cache.cpu_s == pytest.approx(0.6)
    assert engine.busy_s + cache.busy_s == pytest.approx(wall.now)
    assert tracer.counters()["k.inner"] == 1


def test_errors_are_counted_and_reraised():
    tracer = tracing.Tracer()

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tracer.call("tiers", "k", boom, (), {})
    assert tracer.totals()["tiers"].errors == 1
    assert tracer.totals()["tiers"].calls == 1


def test_threads_keep_separate_stacks():
    tracer = tracing.Tracer()
    barrier = threading.Barrier(2)

    def body():
        barrier.wait(timeout=10)

    threads = [
        threading.Thread(target=tracer.call, args=("clock", "k", body, (), {}))
        for _ in range(2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert tracer.totals()["clock"].calls == 2


def test_link_kinds():
    assert tracing.link_kind("gpu0-hbm") == "d2d"
    assert tracing.link_kind("node0-pcie1-d2h") == "d2h"
    assert tracing.link_kind("node1-pcie0-h2d") == "h2d"
    assert tracing.link_kind("node0-ssd-write") == "ssd-write"
    assert tracing.link_kind("node0-ssd-read") == "ssd-read"
    assert tracing.link_kind("pfs-write") == "pfs-write"
    assert tracing.link_kind("node1-pfs-read") == "pfs-read"
    assert tracing.link_kind("fabric-0-1") == "fabric"
    assert tracing.link_kind("peer-0-1") == "fabric"


def test_traced_episode_then_untraced_code():
    wl = dataclasses.replace(workloads.WORKLOADS["rtm-prefetch"], ops=12)
    inputs = workloads.make_inputs(wl, seed=1, episode=0)
    tracer = tracing.Tracer()
    original = vars(ScoreEngine)["checkpoint"]
    with tracing.installed(tracer):
        episode = workloads.run_episode(wl, inputs)
    assert vars(ScoreEngine)["checkpoint"] is original
    assert episode.failed == 0, episode.errors
    assert episode.attempted == 2 * wl.ops * wl.ranks
    layers = tracing.layer_metrics(tracer, [episode.registry], process_cpu_s=1.0)
    # checkpoint + restore per snapshot and rank, one drain per rank.
    assert layers["core.engine.calls"] == (2 * wl.ops + 1) * wl.ranks
    assert layers["sched.calls"] > 0 and layers["predict.calls"] > 0
    assert layers["cluster.calls"] == 0
    assert layers["simgpu.d2d.bytes"] > 0
    assert layers["core.prefetcher.promotions"] > 0
    # Untraced again: the same episode runs and the tracer sees nothing new.
    calls = tracer.totals()["core.engine"].calls
    assert workloads.run_episode(wl, inputs).failed == 0
    assert tracer.totals()["core.engine"].calls == calls
