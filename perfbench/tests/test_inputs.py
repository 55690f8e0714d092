import numpy as np
import pytest

from perfbench import run, workloads


def _flatten(inputs):
    if inputs.kv is not None:
        kv = inputs.kv
        return (
            [(e.at, e.session, e.restore_id, e.suspend_id) for e in kv.schedule],
            [p.tobytes() for p in kv.payloads],
            kv.checksums,
        )
    return [
        (r.sizes, r.order, [p.tobytes() for p in r.payloads], r.checksums) for r in inputs.ranks
    ]


def _shape(inputs):
    if inputs.kv is not None:
        return len(inputs.kv.schedule), len(inputs.kv.payloads)
    return [(len(r.sizes), sorted(r.order)) for r in inputs.ranks]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    wl = workloads.WORKLOADS[name]
    a = workloads.make_inputs(wl, seed=5, episode=1)
    b = workloads.make_inputs(wl, seed=5, episode=1)
    assert _flatten(a) == _flatten(b)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_other_seed_other_inputs_same_shape(name):
    wl = workloads.WORKLOADS[name]
    a = workloads.make_inputs(wl, seed=5, episode=0)
    b = workloads.make_inputs(wl, seed=6, episode=0)
    c = workloads.make_inputs(wl, seed=5, episode=1)
    assert _flatten(a) != _flatten(b)
    assert _flatten(a) != _flatten(c)
    assert _shape(a) == _shape(b) == _shape(c)


def test_inputs_match_the_workload():
    wl = workloads.WORKLOADS["rtm-durable"]
    inputs = workloads.make_inputs(wl, seed=3, episode=0)
    assert len(inputs.ranks) == wl.ranks
    for rank in inputs.ranks:
        assert len(rank.sizes) == wl.ops
        assert len(set(rank.sizes)) > 1  # variable sizes
        assert sorted(rank.order) == list(range(wl.ops))
        for size, payload in zip(rank.sizes, rank.payloads):
            assert payload.dtype == np.uint8
            assert payload.size == workloads.SCALE.payload_bytes(size)
    kv = workloads.make_inputs(workloads.WORKLOADS["kv-serve"], seed=3, episode=0).kv
    restored = [e.restore_id for e in kv.schedule if e.restore_id is not None]
    assert len(restored) == len(set(restored)) > 0


def test_episode_plan_fills_the_run():
    assert run.plan_episodes(8.0, 40, trace=False) == (5, 0)
    assert run.plan_episodes(8.0, 40, trace=True) == (3, 2)
    assert run.plan_episodes(20.0, 40, trace=True) == (1, 1)
    assert run.plan_episodes(20.0, 5, trace=False) == (1, 0)
