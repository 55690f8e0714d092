"""Shared-interconnect bandwidth model.

A :class:`Link` represents one finite-bandwidth resource: a PCIe Gen 4 link
(shared by two GPUs on a DGX-A100), the per-GPU HBM fabric, a node-local
NVMe drive, or a node's share of the parallel file system.

Contention model: a transfer is split into fixed-size nominal chunks and the
chunks of concurrent transfers interleave through a FIFO mutex.  Two steady
concurrent users therefore each observe ~half the link bandwidth — the
behaviour the paper's scalability study depends on — while head-of-line
blocking is bounded by one chunk.  With a QoS scheduler attached, the same
chunk loop asks the scheduler for each chunk (a quantum) instead of the
mutex.  The per-transfer ``latency`` models command submission cost and is
paid once per transfer, before the first grant.

The link also keeps running totals (``busy_time``, ``bytes_moved``,
``pending_bytes``) used both for metrics and by the Score runtime's
``predict_evictable`` estimator (Section 4.2: the estimation accounts for
"other enqueued flushes and prefetches that compete for bandwidth").
"""

from __future__ import annotations

import threading
import time
from typing import Optional, TYPE_CHECKING

from repro.clock import SPIN_THRESHOLD, VirtualClock
from repro.errors import ConfigError, TransferError
from repro.util.units import MiB

if TYPE_CHECKING:  # pragma: no cover
    from repro.sched.request import TransferRequest
    from repro.sched.scheduler import LinkScheduler

#: Contended transfers fold this many chunks of stats into one lock
#: acquisition; the batch is always flushed when the transfer finishes (or
#: is cancelled), so ``pending_bytes`` drifts by at most one batch.
STATS_BATCH_CHUNKS = 8


class Link:
    """A finite-bandwidth interconnect shared by any number of clients."""

    def __init__(
        self,
        name: str,
        bandwidth: float,
        clock: VirtualClock,
        latency: float = 0.0,
        chunk_size: int = 8 * MiB,
    ) -> None:
        if bandwidth <= 0:
            raise ConfigError(f"bandwidth must be positive: {bandwidth}")
        if latency < 0:
            raise ConfigError(f"latency must be non-negative: {latency}")
        if chunk_size <= 0:
            raise ConfigError(f"chunk_size must be positive: {chunk_size}")
        self.name = name
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self.chunk_size = int(chunk_size)
        self._clock = clock
        #: optional QoS arbiter (:class:`repro.sched.LinkScheduler`); when
        #: attached, transfers carrying a :class:`TransferRequest` are served
        #: in priority/WFQ order in bounded quanta instead of the FIFO chunk
        #: interleave.  Attached by :class:`repro.sched.SchedContext`.
        self.scheduler: Optional["LinkScheduler"] = None
        #: optional fault source (:class:`repro.faults.LinkFaultInjector`);
        #: when attached (by :class:`repro.faults.FaultDomain`), transfers
        #: may fail mid-flight with :class:`TransientTransferError` after a
        #: deterministically-drawn fraction of their bytes — the moved
        #: bytes stay charged on the virtual clock and the link stats.
        self.fault_injector = None
        self._mutex = threading.Lock()
        self._stats_lock = threading.Lock()
        self._busy_time = 0.0
        self._bytes_moved = 0
        self._pending_bytes = 0
        self._transfers = 0
        self._active = 0  # transfers currently inside transfer()

    # -- observability ----------------------------------------------------
    @property
    def busy_time(self) -> float:
        """Total nominal seconds this link spent moving bytes."""
        with self._stats_lock:
            return self._busy_time

    @property
    def bytes_moved(self) -> int:
        with self._stats_lock:
            return self._bytes_moved

    @property
    def pending_bytes(self) -> int:
        """Bytes announced (via :meth:`transfer`) but not yet moved."""
        with self._stats_lock:
            return self._pending_bytes

    @property
    def transfer_count(self) -> int:
        with self._stats_lock:
            return self._transfers

    def estimate(self, nbytes: int, include_pending: bool = True) -> float:
        """Nominal seconds to move ``nbytes``, optionally queueing behind
        the bytes already announced on this link."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        backlog = self.pending_bytes if include_pending else 0
        return self.latency + (nbytes + backlog) / self.bandwidth

    # -- the transfer itself ----------------------------------------------
    def transfer(
        self,
        nbytes: int,
        cancelled: Optional[threading.Event] = None,
        request: Optional["TransferRequest"] = None,
    ) -> float:
        """Move ``nbytes`` nominal bytes across the link, blocking the
        caller for the (contended) transfer duration.

        Returns the *accounted* nominal duration: submission latency, plus
        bytes over bandwidth, plus the time spent waiting for the link to
        be granted.  The accounted figure is what callers should charge to
        blocking-time metrics — it excludes the Python-level bookkeeping
        around the sleeps, which at aggressive ``time_scale`` would
        otherwise dominate short transfers when measured by wall clock.

        If ``cancelled`` is set while chunks remain, raises
        :class:`TransferError` — the flusher uses this to abandon flushes of
        consumed checkpoints (condition (5) of the problem formulation).
        Cancellation is honoured *before any progress is made* (including
        the latency span and zero-byte transfers), so an already-cancelled
        transfer aborts immediately.

        One chunk loop serves both grant policies.  By default the FIFO
        mutex grants each chunk (a transfer alone on the link moves its
        whole remainder in one span).  When a
        :class:`repro.sched.LinkScheduler` is attached and the caller tags
        the transfer with a ``request``, the scheduler grants one quantum
        at a time instead, so priority classes, WFQ shares and token
        buckets are enforced between quanta; admission (``open``) runs
        before any bytes are announced as pending, and ``request``'s
        cancellation event also cancels this transfer (preemption), even
        mid-quantum.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        if request is not None and cancelled is None:
            cancelled = request.cancel_event
        if cancelled is not None and cancelled.is_set():
            # Zero-progress abort: no pending-byte accounting to undo.
            raise self._cancel_error(nbytes)
        fail_after = None
        if self.fault_injector is not None and nbytes > 0:
            fail_after = self.fault_injector.draw(nbytes)
        sched = self.scheduler if request is not None else None
        # Admission first: a shed transfer must not perturb pending_bytes
        # (the Score runtime's flush/prefetch estimator reads it).
        entry = sched.open(request, nbytes) if sched is not None else None
        with self._stats_lock:
            self._pending_bytes += nbytes
            self._transfers += 1
            self._active += 1
        remaining = nbytes
        accounted = 0.0
        moved_unflushed = 0
        busy_unflushed = 0.0
        batch = STATS_BATCH_CHUNKS * self.chunk_size
        try:
            if self.latency:
                if self._sleep_span(self.latency, cancelled):
                    raise self._cancel_error(nbytes)
                accounted += self.latency
            per_byte = 1.0 / self.bandwidth
            while remaining > 0:
                if cancelled is not None and cancelled.is_set():
                    raise self._cancel_error(nbytes)
                if fail_after is not None and nbytes - remaining >= fail_after:
                    raise self.fault_injector.fault(nbytes, nbytes - remaining)
                if sched is not None:
                    span = min(remaining, sched.quantum)
                else:
                    # Adaptive coalescing: when this is the only transfer in
                    # flight, interleaving chunks through the mutex buys
                    # nothing — move the whole remainder in one span.  Under
                    # contention the per-chunk interleave (and its
                    # halved-throughput semantics) is preserved.
                    with self._stats_lock:
                        alone = self._active == 1
                    span = remaining if alone else min(remaining, self.chunk_size)
                if fail_after is not None:
                    span = min(span, fail_after - (nbytes - remaining))
                queued_at = self._clock.now()
                if sched is None:
                    self._mutex.acquire()
                else:
                    sched.acquire(entry)  # raises TransferError when cancelled
                served = 0
                try:
                    accounted += self._clock.now() - queued_at  # contention
                    if self._sleep_span(span * per_byte, cancelled):
                        raise self._cancel_error(nbytes)
                    served = span
                finally:
                    if sched is None:
                        self._mutex.release()
                    else:
                        sched.release(entry, served)
                accounted += span * per_byte
                busy_unflushed += span * per_byte
                moved_unflushed += span
                remaining -= span
                if moved_unflushed >= batch:
                    with self._stats_lock:
                        self._busy_time += busy_unflushed
                        self._bytes_moved += moved_unflushed
                        self._pending_bytes -= moved_unflushed
                    moved_unflushed = 0
                    busy_unflushed = 0.0
        finally:
            if sched is not None:
                sched.finish(entry)
            with self._stats_lock:
                self._active -= 1
                self._busy_time += busy_unflushed
                self._bytes_moved += moved_unflushed
                # release both moved-but-unflushed and (if cancelled) unmoved
                self._pending_bytes -= moved_unflushed + remaining
        return accounted

    def _cancel_error(self, nbytes: int) -> TransferError:
        return TransferError(f"transfer of {nbytes} bytes on link {self.name!r} cancelled")

    def _sleep_span(
        self, virtual_seconds: float, cancelled: Optional[threading.Event]
    ) -> bool:
        """Sleep a virtual span, waking early if ``cancelled`` fires.

        Returns ``True`` when the span was cut short by cancellation.
        Coalesced spans can be long, so a cancellation must not have to wait
        for the whole span — ``Event.wait`` gives the wake-up, with the same
        short spin tail as :meth:`VirtualClock.sleep` for timing precision.
        """
        if cancelled is None:
            self._clock.sleep(virtual_seconds)
            return False
        deadline = time.monotonic() + self._clock.to_real(virtual_seconds)
        while True:
            remaining_real = deadline - time.monotonic()
            if remaining_real <= 0:
                return cancelled.is_set()
            if remaining_real > SPIN_THRESHOLD:
                if cancelled.wait(remaining_real - SPIN_THRESHOLD):
                    return True
            elif cancelled.is_set():
                return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Link({self.name!r}, {self.bandwidth:.3g} B/s)"
