"""Per-layer tracing for the benchmark's traced run.

:func:`installed` replaces the public entry points of each runtime layer with
wrappers that time every call (wall clock and the calling thread's CPU) and
charge it to the layer; on exit it puts the original class attributes back,
so untraced runs execute unpatched code.  The wrappers live only in the
benchmark: no runtime code changes.

A layer's *self* time is a call's duration minus the part of it spent in
wrapped calls nested inside it (any layer), so the self times of all layers
add up to the time spent inside spans.  A layer's ``calls`` and ``errors``
count entries into the layer from outside it: a ``get`` that calls
``open_get`` on the same store is one tier call.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.clock import VirtualClock
from repro.cluster.aggregator import PfsWriteAggregator
from repro.cluster.directory import ReplicaDirectory
from repro.cluster.fabric import ClusterFabric, PeerSsdStore
from repro.core.cache import CacheBuffer
from repro.core.engine import ScoreEngine
from repro.core.flusher import Flusher
from repro.core.scoring import ScorePolicy
from repro.predict.runtime import PredictRuntime
from repro.sched.scheduler import LinkScheduler
from repro.simgpu.bandwidth import Link
from repro.tiers.pfs import PfsStore
from repro.tiers.ssd import SsdStore

#: the runtime's layers, in report order.
LAYERS = (
    "core.engine",
    "core.cache",
    "core.scoring",
    "core.prefetcher",
    "core.flusher",
    "simgpu",
    "tiers",
    "sched",
    "cluster",
    "predict",
    "clock",
)

#: layers that work in every workload.  The others — the prefetcher without
#: hints in rtm-durable; sched, cluster and predict where their feature is
#: off — have busy and CPU times that are zero by construction.
BUSY_EVERYWHERE = (
    "core.engine",
    "core.cache",
    "core.scoring",
    "core.flusher",
    "simgpu",
    "tiers",
    "clock",
)

#: link kinds, from the link names the topology gives them.
LINK_KINDS = ("d2d", "d2h", "h2d", "ssd-write", "ssd-read", "pfs-write", "pfs-read", "fabric")
#: link kinds that move bytes in every workload.
LINKS_EVERYWHERE = ("d2d", "d2h", "h2d", "ssd-write", "ssd-read")


def link_kind(name: str) -> str:
    if name.endswith("-hbm"):
        return "d2d"
    if name.startswith(("fabric-", "peer-")):
        return "fabric"
    for kind in LINK_KINDS[1:7]:
        if name.endswith(kind):
            return kind
    return "other"


@dataclass
class LayerTotals:
    calls: int = 0
    busy_s: float = 0.0
    cpu_s: float = 0.0
    errors: int = 0

    def add(self, other: "LayerTotals") -> None:
        self.calls += other.calls
        self.busy_s += other.busy_s
        self.cpu_s += other.cpu_s
        self.errors += other.errors


class _ThreadState:
    """One thread's span stack and running totals (no locking needed)."""

    __slots__ = ("stack", "depth", "layers", "counters")

    def __init__(self) -> None:
        #: per open span: [wall, cpu] of the wrapped calls nested in it.
        self.stack: List[List[float]] = []
        self.depth: Dict[str, int] = defaultdict(int)
        self.layers: Dict[str, LayerTotals] = defaultdict(LayerTotals)
        self.counters: Dict[str, float] = defaultdict(float)


#: ``observe(counters, args, kwargs, result, failed, wall_s)``, run after a
#: call returns or raises, to count what the call did.
Observer = Callable[[Dict[str, float], tuple, dict, object, bool, float], None]


class Tracer:
    """Collects span totals per thread; :meth:`totals` merges them."""

    def __init__(
        self,
        wall: Callable[[], float] = time.perf_counter,
        cpu: Callable[[], float] = time.thread_time,
    ) -> None:
        self._wall = wall
        self._cpu = cpu
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadState] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
        return state

    def call(
        self,
        layer: str,
        key: str,
        fn: Callable,
        args: tuple,
        kwargs: dict,
        observe: Optional[Observer] = None,
    ):
        """Run ``fn(*args, **kwargs)`` inside a span of ``layer``."""
        state = self._state()
        depth = state.depth[layer]
        state.depth[layer] = depth + 1
        nested = [0.0, 0.0]
        state.stack.append(nested)
        failed = True
        result = None
        wall0 = self._wall()
        cpu0 = self._cpu()
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            wall_s = self._wall() - wall0
            cpu_s = self._cpu() - cpu0
            state.stack.pop()
            if state.stack:
                parent = state.stack[-1]
                parent[0] += wall_s
                parent[1] += cpu_s
            state.depth[layer] = depth
            totals = state.layers[layer]
            totals.busy_s += wall_s - nested[0]
            totals.cpu_s += cpu_s - nested[1]
            if depth == 0:
                totals.calls += 1
                totals.errors += failed
            state.counters[key] += 1
            if observe is not None:
                observe(state.counters, args, kwargs, result, failed, wall_s)

    def totals(self) -> Dict[str, LayerTotals]:
        merged = {layer: LayerTotals() for layer in LAYERS}
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for layer, totals in list(state.layers.items()):
                merged.setdefault(layer, LayerTotals()).add(totals)
        return merged

    def counters(self) -> Dict[str, float]:
        merged: Dict[str, float] = defaultdict(float)
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for name, value in list(state.counters.items()):
                merged[name] += value
        return merged


# -- what each wrapped call counts -------------------------------------------------
def _blocking(counters, args, kwargs, result, failed, wall_s) -> None:
    """Engine checkpoint/restore: returned blocking time vs the call's span."""
    if not failed:
        counters["core.engine.accounted_block_s"] += result
        counters["core.engine.outside_block_s"] += wall_s


def _inclusive(name: str) -> Observer:
    def observe(counters, args, kwargs, result, failed, wall_s) -> None:
        counters[name] += wall_s

    return observe


def _transfer(counters, args, kwargs, result, failed, wall_s) -> None:
    link = args[0]
    nbytes = args[1] if len(args) > 1 else kwargs["nbytes"]
    kind = link_kind(link.name)
    counters[f"simgpu.{kind}.bytes"] += nbytes
    counters[f"simgpu.{kind}.busy_s"] += wall_s
    if failed:
        counters[f"simgpu.{kind}.cancelled"] += 1


def _put_bytes(counters, args, kwargs, result, failed, wall_s) -> None:
    nominal = args[2] if len(args) > 2 else kwargs["nominal_size"]
    counters["tiers.bytes"] += nominal


def _batch_bytes(counters, args, kwargs, result, failed, wall_s) -> None:
    entries = args[1] if len(args) > 1 else kwargs["entries"]
    counters["tiers.bytes"] += sum(entry[2] for entry in entries)


def _get_bytes(counters, args, kwargs, result, failed, wall_s) -> None:
    if not failed:
        counters["tiers.bytes"] += getattr(result, "nominal_size", 0) or 0


def _promote_layer() -> str:
    """Promotions run by a prefetcher thread belong to the prefetcher."""
    if threading.current_thread().name.startswith("prefetcher-"):
        return "core.prefetcher"
    return "core.engine"


@dataclass(frozen=True)
class Shim:
    cls: type
    attr: str
    layer: Union[str, Callable[[], str]]
    observe: Optional[Observer] = None


def shims() -> List[Shim]:
    """Every wrapped entry point, grouped by layer."""
    table = [
        Shim(ScoreEngine, "checkpoint", "core.engine", _blocking),
        Shim(ScoreEngine, "restore", "core.engine", _blocking),
        Shim(ScoreEngine, "wait_for_flushes", "core.engine"),
        Shim(ScoreEngine, "promote_once", _promote_layer),
        Shim(CacheBuffer, "reserve", "core.cache", _inclusive("core.cache.reserve_busy_s")),
        Shim(CacheBuffer, "evict", "core.cache"),
        Shim(CacheBuffer, "release", "core.cache"),
        Shim(ScorePolicy, "select", "core.scoring"),
        Shim(Flusher, "schedule", "core.flusher"),
        Shim(Flusher, "drain", "core.flusher", _inclusive("core.flusher.drain_busy_s")),
        Shim(Link, "transfer", "simgpu", _transfer),
        Shim(LinkScheduler, "open", "sched"),
        Shim(LinkScheduler, "acquire", "sched"),
        Shim(LinkScheduler, "release", "sched"),
        Shim(LinkScheduler, "finish", "sched"),
        Shim(ReplicaDirectory, "publish", "cluster"),
        Shim(ClusterFabric, "pfs_put", "cluster"),
        Shim(PfsWriteAggregator, "submit", "cluster"),
        Shim(PeerSsdStore, "get", "cluster"),
        Shim(VirtualClock, "sleep", "clock"),
        Shim(VirtualClock, "wait_for", "clock"),
    ]
    for store in (SsdStore, PfsStore):
        table += [
            Shim(store, "put", "tiers"),
            Shim(store, "get", "tiers"),
            Shim(store, "open_put", "tiers", _put_bytes),
            Shim(store, "open_get", "tiers", _get_bytes),
        ]
    table.append(Shim(PfsStore, "put_batch", "tiers", _batch_bytes))
    for attr in sorted(vars(PredictRuntime)):
        if attr.startswith("on_") or attr == "refresh":
            table.append(Shim(PredictRuntime, attr, "predict"))
    return table


def method_key(cls: type, attr: str) -> str:
    return f"calls.{cls.__name__}.{attr}"


def _wrap(tracer: Tracer, shim: Shim, fn: Callable) -> Callable:
    key = method_key(shim.cls, shim.attr)
    observe = shim.observe
    layer = shim.layer
    if callable(layer):

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(layer(), key, fn, args, kwargs, observe)

    else:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(layer, key, fn, args, kwargs, observe)

    return wrapper


#: (class, attribute, the class's own value or None when inherited)
Saved = Tuple[type, str, Optional[object]]


def install(tracer: Tracer, table: Optional[List[Shim]] = None) -> List[Saved]:
    """Wrap every shim's method; returns what :func:`uninstall` restores."""
    saved: List[Saved] = []
    try:
        for shim in table if table is not None else shims():
            own = vars(shim.cls).get(shim.attr)
            fn = getattr(shim.cls, shim.attr)
            if not callable(fn) or isinstance(own, (staticmethod, classmethod)):
                raise TypeError(f"{shim.cls.__name__}.{shim.attr} is not a plain method")
            saved.append((shim.cls, shim.attr, own))
            setattr(shim.cls, shim.attr, _wrap(tracer, shim, fn))
    except BaseException:
        uninstall(saved)
        raise
    return saved


def uninstall(saved: List[Saved]) -> None:
    """Put back the class attributes :func:`install` replaced."""
    for cls, attr, own in reversed(saved):
        if own is None:
            delattr(cls, attr)
        else:
            setattr(cls, attr, own)
    saved.clear()


@contextlib.contextmanager
def installed(tracer: Tracer, table: Optional[List[Shim]] = None) -> Iterator[Tracer]:
    saved = install(tracer, table)
    try:
        yield tracer
    finally:
        uninstall(saved)


def _sum_registry(registries: List[dict], prefix: str, suffix: str = "") -> float:
    total = 0.0
    for registry in registries:
        for name, value in registry.items():
            if name.startswith(prefix) and name.endswith(suffix):
                total += value["sum"] if isinstance(value, dict) else value
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer, registries: List[dict], process_cpu_s: float
) -> Dict[str, float]:
    """The per-layer metrics of the traced episodes.

    ``registries`` are the telemetry registry snapshots of those episodes and
    ``process_cpu_s`` the process CPU over them; what no span covers is
    reported as ``unattributed.cpu_s``.
    """
    totals = tracer.totals()
    counters = tracer.counters()
    out: Dict[str, float] = {}
    for layer in LAYERS:
        t = totals[layer]
        out[f"{layer}.calls"] = t.calls
        out[f"{layer}.busy_s"] = t.busy_s
        out[f"{layer}.cpu_s"] = t.cpu_s
        out[f"{layer}.errors"] = t.errors
    out["process.cpu_s"] = process_cpu_s
    out["unattributed.cpu_s"] = process_cpu_s - sum(t.cpu_s for t in totals.values())

    def reg(prefix: str, suffix: str = "") -> float:
        return _sum_registry(registries, prefix, suffix)

    out["core.engine.accounted_block_s"] = counters["core.engine.accounted_block_s"]
    out["core.engine.outside_block_s"] = counters["core.engine.outside_block_s"]
    out["core.cache.reserve_busy_s"] = counters["core.cache.reserve_busy_s"]
    out["core.cache.evictions"] = reg("cache.", ".evictions")
    out["core.cache.forced_evictions"] = reg("cache.", ".forced_evictions")
    promote = method_key(ScoreEngine, "promote_once")
    prefetcher_promotions = totals["core.prefetcher"].calls
    out["core.prefetcher.promotions"] = prefetcher_promotions
    out["core.prefetcher.demand_promotions"] = counters[promote] - prefetcher_promotions
    out["core.prefetcher.gpu_hit_ratio"] = _ratio(
        reg("restore.source.gpu"), reg("engine.restore.ops")
    )
    out["core.flusher.drain_busy_s"] = counters["core.flusher.drain_busy_s"]
    out["core.flusher.abandoned_ratio"] = _ratio(
        reg("flush.abandoned"), reg("engine.checkpoint.ops")
    )
    for kind in LINK_KINDS:
        for what in ("bytes", "busy_s", "cancelled"):
            name = f"simgpu.{kind}.{what}"
            out[name] = counters[name]
    out["tiers.bytes"] = counters["tiers.bytes"]
    out["sched.preemptions"] = reg("sched.preemptions")
    out["sched.first_grant_wait_s"] = reg("sched.", ".first_grant_wait_s")
    out["cluster.pfs_ops_per_batch"] = _ratio(
        counters[method_key(PfsWriteAggregator, "submit")],
        counters[method_key(PfsStore, "put")] + counters[method_key(PfsStore, "put_batch")],
    )
    out["cluster.repl_bytes"] = reg("flush.repl.bytes")
    hits = reg("predict.spec_hits")
    out["predict.spec_hit_ratio"] = _ratio(hits, hits + reg("predict.spec_wastes"))
    return out


def reported_names() -> List[str]:
    """The per-layer metrics of the result line, in order.

    The printed table shows every metric :func:`layer_metrics` computes; the
    result line leaves out the times that are zero by construction on some
    workload, which say nothing about a change.
    """
    names: List[str] = []
    for layer in LAYERS:
        names += [f"{layer}.calls", f"{layer}.errors"]
        if layer in BUSY_EVERYWHERE:
            names += [f"{layer}.busy_s", f"{layer}.cpu_s"]
    names += [
        "process.cpu_s",
        "unattributed.cpu_s",
        "core.engine.accounted_block_s",
        "core.engine.outside_block_s",
        "core.cache.reserve_busy_s",
        "core.cache.evictions",
        "core.cache.forced_evictions",
        "core.prefetcher.promotions",
        "core.prefetcher.demand_promotions",
        "core.prefetcher.gpu_hit_ratio",
        "core.flusher.drain_busy_s",
        "core.flusher.abandoned_ratio",
    ]
    for kind in LINK_KINDS:
        names += [f"simgpu.{kind}.bytes", f"simgpu.{kind}.cancelled"]
        if kind in LINKS_EVERYWHERE:
            names.append(f"simgpu.{kind}.busy_s")
    names += [
        "tiers.bytes",
        "sched.preemptions",
        "cluster.pfs_ops_per_batch",
        "cluster.repl_bytes",
        "predict.spec_hit_ratio",
    ]
    return names
