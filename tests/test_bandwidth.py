"""Link (shared bandwidth) behaviour.

The transfer contract (latency paid once, zero-byte transfers, stats,
cancellation before and during a transfer) holds for both ways a chunk is
granted: the unarbitrated FIFO interleave, and a :class:`LinkScheduler`
serving request-tagged transfers in quanta.  The module-level tests take
the ``grant`` fixture; :class:`TestScheduledGrant` re-runs them with the
scheduler attached.
"""

import threading

import pytest

from repro.clock import VirtualClock
from repro.config import SchedConfig
from repro.errors import ConfigError, TransferError
from repro.sched.request import TransferClass, TransferRequest
from repro.sched.scheduler import LinkScheduler
from repro.simgpu.bandwidth import Link
from repro.util.units import MiB


class FifoGrant:
    """A plain link: chunks interleave through its FIFO mutex."""

    def link(self, clock, **kw):
        return Link("t", clock=clock, **kw)

    def transfer(self, link, nbytes, **kw):
        return link.transfer(nbytes, **kw)


class ScheduledGrant(FifoGrant):
    """A link with a LinkScheduler attached and request-tagged transfers."""

    def link(self, clock, **kw):
        link = super().link(clock, **kw)
        link.scheduler = LinkScheduler(link, SchedConfig(enabled=True), clock)
        return link

    def transfer(self, link, nbytes, **kw):
        kw.setdefault("request", TransferRequest(TransferClass.DEMAND_READ))
        return link.transfer(nbytes, **kw)


@pytest.fixture
def clock():
    return VirtualClock(time_scale=0.001)


@pytest.fixture
def grant():
    return FifoGrant()


def test_transfer_duration_accounted(clock):
    link = Link("t", bandwidth=100 * MiB, clock=clock, latency=0.0)
    seconds = link.transfer(50 * MiB)
    assert seconds == pytest.approx(0.5, rel=0.05)


def test_latency_added_once(clock, grant):
    link = grant.link(clock, bandwidth=100 * MiB, latency=0.25)
    seconds = grant.transfer(link, 25 * MiB)
    assert seconds == pytest.approx(0.5, rel=0.05)


def test_zero_bytes_costs_latency_only(clock, grant):
    link = grant.link(clock, bandwidth=100 * MiB, latency=0.1)
    assert grant.transfer(link, 0) == pytest.approx(0.1, rel=0.2)


def test_negative_bytes_rejected(clock):
    link = Link("t", bandwidth=100 * MiB, clock=clock)
    with pytest.raises(ValueError):
        link.transfer(-1)


def test_stats_accumulate(clock, grant):
    link = grant.link(clock, bandwidth=100 * MiB)
    grant.transfer(link, 10 * MiB)
    grant.transfer(link, 20 * MiB)
    assert link.bytes_moved == 30 * MiB
    assert link.transfer_count == 2
    assert link.busy_time == pytest.approx(0.3, rel=0.05)
    assert link.pending_bytes == 0


def test_estimate_includes_backlog(clock):
    link = Link("t", bandwidth=100 * MiB, clock=clock, latency=0.0)
    base = link.estimate(100 * MiB)
    assert base == pytest.approx(1.0)
    with link._stats_lock:
        link._pending_bytes += 100 * MiB
    assert link.estimate(100 * MiB) == pytest.approx(2.0)
    assert link.estimate(100 * MiB, include_pending=False) == pytest.approx(1.0)


def test_contention_halves_throughput():
    clock = VirtualClock(time_scale=0.01)
    link = Link("t", bandwidth=100 * MiB, clock=clock, chunk_size=1 * MiB)
    barrier = threading.Barrier(2)
    results = []

    def worker():
        barrier.wait()
        # 10 s virtual = 100 ms wall: long enough that OS scheduling jitter
        # cannot accidentally serialize the two transfers.
        results.append(link.transfer(1000 * MiB))

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # Two concurrent 10 s transfers share the link: fairness of the split
    # depends on lock scheduling, but whoever loses pays for the winner's
    # chunks — at least one transfer must observe clear slowdown, and
    # neither can beat its solo time.
    assert max(results) > 13.0
    for seconds in results:
        assert seconds >= 9.5


def test_cancellation_raises_and_releases_pending(clock, grant):
    link = grant.link(clock, bandwidth=1 * MiB, chunk_size=64 * 1024)
    cancelled = threading.Event()
    cancelled.set()
    with pytest.raises(TransferError):
        grant.transfer(link, 10 * MiB, cancelled=cancelled)
    assert link.pending_bytes == 0


def test_zero_progress_cancellation_before_any_accounting(clock, grant):
    """An already-cancelled transfer aborts before *any* progress: no
    latency is paid, no pending bytes are announced, no transfer counted —
    even for zero-byte transfers (regression: the old check lived inside
    the chunk loop, so it only fired once chunks remained)."""
    link = grant.link(clock, bandwidth=100 * MiB, latency=0.5)
    cancelled = threading.Event()
    cancelled.set()
    before = clock.now()
    with pytest.raises(TransferError):
        grant.transfer(link, 0, cancelled=cancelled)
    with pytest.raises(TransferError):
        grant.transfer(link, 10 * MiB, cancelled=cancelled)
    assert link.pending_bytes == 0
    assert link.transfer_count == 0  # never admitted
    assert link.bytes_moved == 0
    # The 0.5 s submission latency was never slept.
    assert clock.now() - before < 0.25


def test_request_cancel_event_aborts_with_zero_progress(clock, grant):
    """A request's cancellation event doubles as the ``cancelled`` channel
    and honours the same zero-progress abort."""
    link = grant.link(clock, bandwidth=100 * MiB, latency=0.5)
    request = TransferRequest(TransferClass.SPECULATIVE_PREFETCH)
    request.cancel_event.set()
    with pytest.raises(TransferError):
        grant.transfer(link, 10 * MiB, request=request)
    assert link.transfer_count == 0
    assert link.pending_bytes == 0


def test_mid_transfer_cancellation(grant):
    clock = VirtualClock(time_scale=0.01)
    link = grant.link(clock, bandwidth=10 * MiB, chunk_size=1 * MiB)
    cancelled = threading.Event()
    errors = []
    started = threading.Event()

    def worker():
        started.set()
        try:
            grant.transfer(link, 1000 * MiB, cancelled=cancelled)  # 100 s virtual
        except TransferError as exc:
            errors.append(exc)

    t = threading.Thread(target=worker)
    t.start()
    started.wait(timeout=5)
    clock.sleep(1.0)
    cancelled.set()
    t.join(timeout=10)
    assert errors, "transfer should have been cancelled"
    assert link.pending_bytes == 0


def test_invalid_construction():
    clock = VirtualClock(0.001)
    with pytest.raises(ConfigError):
        Link("t", bandwidth=0, clock=clock)
    with pytest.raises(ConfigError):
        Link("t", bandwidth=1, clock=clock, latency=-1)
    with pytest.raises(ConfigError):
        Link("t", bandwidth=1, clock=clock, chunk_size=0)


def test_serialized_link_whole_object():
    """chunk_size larger than any transfer serializes whole objects."""
    clock = VirtualClock(time_scale=0.01)
    link = Link("ssd", bandwidth=100 * MiB, clock=clock, chunk_size=1 << 62)
    barrier = threading.Barrier(3)
    durations = []
    lock = threading.Lock()

    def worker():
        barrier.wait()
        seconds = link.transfer(100 * MiB)
        with lock:
            durations.append(seconds)

    threads = [threading.Thread(target=worker) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    durations.sort()
    # Serialized completions stream out: ~1 s, ~2 s, ~3 s.
    assert durations[0] == pytest.approx(1.0, rel=0.4)
    assert durations[-1] == pytest.approx(3.0, rel=0.4)


class TestScheduledGrant:
    """The transfer contract again, each chunk granted by a scheduler."""

    @pytest.fixture
    def clock(self):
        # Admission and each grant cost tens of microseconds of host time,
        # which the module clock's 1000x compression would read as tens of
        # nominal milliseconds; 100x keeps that under the tolerances.
        return VirtualClock(time_scale=0.01)

    @pytest.fixture
    def grant(self):
        return ScheduledGrant()

    test_latency_added_once = staticmethod(test_latency_added_once)
    test_zero_bytes_costs_latency_only = staticmethod(test_zero_bytes_costs_latency_only)
    test_stats_accumulate = staticmethod(test_stats_accumulate)
    test_cancellation_raises_and_releases_pending = staticmethod(
        test_cancellation_raises_and_releases_pending
    )
    test_zero_progress_cancellation_before_any_accounting = staticmethod(
        test_zero_progress_cancellation_before_any_accounting
    )
    test_request_cancel_event_aborts_with_zero_progress = staticmethod(
        test_request_cancel_event_aborts_with_zero_progress
    )
    test_mid_transfer_cancellation = staticmethod(test_mid_transfer_cancellation)
