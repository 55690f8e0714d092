#!/usr/bin/env python3
"""End-to-end benchmark of the checkpoint runtime.

Runs one named workload on the unscaled clock for about ``--seconds`` of wall
time, checks every restored byte (and, in ``rtm-durable``, that every
checkpoint reached the PFS and its SSD replicas), prints the metrics by name
and unit, and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (the table also
prints the ones in :data:`UNGATED`, ``failed_frac`` and how late the load
generator ran).  With ``--trace 1`` half of the episodes run untraced and
half run with every layer's entry points wrapped in spans
(:mod:`perfbench.tracing`); the metrics are then the per-layer ones, plus the
tracing overhead (traced minus untraced) of each end-to-end metric.
End-to-end figures come from untraced runs only.

Usage, from the repository root::

    python3 perfbench/run.py --workload rtm-prefetch --seed 1 --seconds 60 --trace 0
    python3 -m pytest perfbench/tests      # the benchmark's own tests

Exit codes: 0 when every output checked out, 1 when an operation failed or
a restored buffer mismatched (the result line still prints), 2 when the
runtime sources are missing, 3 when a run gathered too few samples for its
tail percentiles.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import os
import platform
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("makespan_s", "s"),
    ("durable_s", "s"),
    ("ckpt_p50_s", "s"),
    ("ckpt_p95_s", "s"),
    ("restore_p50_s", "s"),
    ("restore_p95_s", "s"),
    ("ckpt_GiBps", "GiB/s"),
    ("restore_GiBps", "GiB/s"),
    ("sim_cpu_ms_per_op", "ms"),
    ("setup_s", "s"),
    ("peak_rss_MiB", "MiB"),
)
#: printed but left out of the result line: they are mostly interpreter time
#: (a checkpoint's or a GPU-cached restore's median latency is about three
#: quarters call overhead), so they follow the host's CPU speed, which drifted
#: 20-35% within an hour on a shared 2-core VM — more than any bound the
#: result line may carry.
UNGATED = ("ckpt_p50_s", "restore_p50_s", "sim_cpu_ms_per_op")
#: cluster + engine builds measured per run (episodes included); set-up is
#: milliseconds, so its median needs many samples.
SETUP_SAMPLES = 15
#: a hung runtime becomes a traceback and a non-zero exit, not a stuck run.
WATCHDOG_S = 175


def _commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, time_scale: float) -> dict:
    import numpy

    return {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "time_scale": time_scale,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(episodes, setups, stats) -> dict:
    """The end-to-end metrics of ``episodes`` (pooled samples, medians)."""
    ckpt = [s for ep in episodes for s in ep.ckpt_s]
    restore = [s for ep in episodes for s in ep.restore_s]
    ops = len(ckpt) + len(restore)
    gib = float(1 << 30)
    return {
        "makespan_s": stats.median([ep.makespan_s for ep in episodes]),
        "durable_s": stats.median([d for ep in episodes for d in ep.durable_s]),
        "ckpt_p50_s": stats.percentile(ckpt, 50),
        "ckpt_p95_s": stats.tail_percentile(ckpt, 95),
        "restore_p50_s": stats.percentile(restore, 50),
        "restore_p95_s": stats.tail_percentile(restore, 95),
        "ckpt_GiBps": sum(ep.ckpt_bytes for ep in episodes) / sum(ckpt) / gib,
        "restore_GiBps": sum(ep.restore_bytes for ep in episodes) / sum(restore) / gib,
        "sim_cpu_ms_per_op": 1e3 * sum(ep.cpu_s for ep in episodes) / ops,
        "setup_s": stats.median(setups),
        "peak_rss_MiB": peak_rss_mib(),
    }


def plan_episodes(episode_s: float, seconds: int, trace: bool):
    """(untraced, traced) episode counts that fill about ``seconds``."""
    total = max(1, int(seconds // episode_s))
    if not trace:
        return total, 0
    traced = max(1, total // 2)
    return max(1, total - traced), traced


def _print_table(title: str, rows) -> None:
    print(title)
    for name, value, unit, note in rows:
        print(f"  {name:<34} {value:>14.6g} {unit:<8} {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: runtime sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True)
    try:
        return _run(args)
    finally:
        faulthandler.cancel_dump_traceback_later()


def _run(args) -> int:
    from perfbench import stats, tracing, workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    wl = workloads.WORKLOADS[args.workload]
    untraced_n, traced_n = plan_episodes(wl.episode_s, args.seconds, bool(args.trace))
    # Every input is generated before the first timed region.
    inputs = [
        workloads.make_inputs(wl, args.seed, i) for i in range(untraced_n + traced_n)
    ]
    record = {
        "provenance": provenance(args, workloads.SCALE.time_scale),
        "config": workloads.describe(wl, workloads.runtime_config(wl, inputs[0])),
        "episodes": {"untraced": untraced_n, "traced": traced_n},
    }
    print(json.dumps(record, default=str))

    extra = max(0, SETUP_SAMPLES - untraced_n)
    setups = [workloads.measure_setup(wl, inputs[0]) for _ in range(extra)]
    untraced = [workloads.run_episode(wl, inp) for inp in inputs[:untraced_n]]
    setups += [ep.setup_s for ep in untraced]
    traced = []
    tracer = tracing.Tracer()
    if traced_n:
        cpu0 = time.process_time()
        with tracing.installed(tracer):
            traced = [workloads.run_episode(wl, inp) for inp in inputs[untraced_n:]]
        traced_cpu = time.process_time() - cpu0

    episodes = untraced + traced
    attempted = sum(ep.attempted for ep in episodes)
    failed = sum(ep.failed for ep in episodes)
    for ep in episodes:
        for what in ep.errors:
            print(f"FAILED: {what}", file=sys.stderr)
    try:
        e2e = end_to_end(untraced, setups, stats)
        if traced:
            e2e_traced = end_to_end(traced, [ep.setup_s for ep in traced], stats)
    except stats.TooFewSamples as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    units = dict(END_TO_END)
    if not traced:
        ckpt_n = sum(len(ep.ckpt_s) for ep in untraced)
        restore_n = sum(len(ep.restore_s) for ep in untraced)
        notes = {
            "makespan_s": f"median of {untraced_n} episodes",
            "durable_s": f"n={sum(len(ep.durable_s) for ep in untraced)}",
            "ckpt_p50_s": f"n={ckpt_n}",
            "ckpt_p95_s": f"n={ckpt_n}",
            "restore_p50_s": f"n={restore_n}",
            "restore_p95_s": f"n={restore_n}",
            "setup_s": f"median of {len(setups)} builds",
        }
        _print_table(
            f"{wl.name}: end to end ({untraced_n} untraced episodes)",
            [
                (name, e2e[name], unit, notes.get(name, "") + (" (table only)" * (name in UNGATED)))
                for name, unit in END_TO_END
            ]
            + [
                ("failed_frac", failed / attempted, "", f"{failed}/{attempted}"),
                (
                    "loadgen.late_p95_s",
                    stats.percentile([s for ep in untraced for s in ep.late_s], 95),
                    "s",
                    "",
                ),
            ],
        )
        metrics = {
            name: {"value": e2e[name], "unit": unit}
            for name, unit in END_TO_END
            if name not in UNGATED
        }
    else:
        layers = tracing.layer_metrics(
            tracer, [ep.registry for ep in traced], traced_cpu
        )
        layers["loadgen.late_p95_s"] = stats.percentile(
            [s for ep in untraced for s in ep.late_s], 95
        )
        for name, unit in END_TO_END:
            if name != "peak_rss_MiB":
                layers[f"overhead.{name}"] = e2e_traced[name] - e2e[name]
        _print_layers(layers, tracing.LAYERS)
        metrics = {
            name: {"value": layers[name], "unit": layer_unit(name, units)}
            for name in per_layer_names()
        }
    correct = failed == 0
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


def per_layer_names() -> list:
    """The per-layer metrics of a traced run's result line, in order."""
    from perfbench import tracing

    return (
        tracing.reported_names()
        + ["loadgen.late_p95_s"]
        + [f"overhead.{name}" for name, _ in END_TO_END if name != "peak_rss_MiB"]
    )


def layer_unit(name: str, units: dict) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.startswith("overhead."):
        return units[name[len("overhead."):]]
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes") or name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio") or name.endswith("_per_batch"):
        return "ratio"
    return "count"


def _print_layers(layers: dict, order) -> None:
    process = layers["process.cpu_s"]
    print("per layer (traced episodes): self time, nested spans excluded")
    print(f"  {'layer':<16} {'calls':>9} {'busy_s':>10} {'cpu_s':>9} {'cpu%':>6} {'errors':>7}")
    for layer in order:
        cpu = layers[f"{layer}.cpu_s"]
        print(
            f"  {layer:<16} {layers[f'{layer}.calls']:>9.0f} {layers[f'{layer}.busy_s']:>10.3f}"
            f" {cpu:>9.3f} {100 * cpu / process if process else 0:>6.1f}"
            f" {layers[f'{layer}.errors']:>7.0f}"
        )
    unattributed = layers["unattributed.cpu_s"]
    print(
        f"  {'unattributed':<16} {'':>9} {'':>10} {unattributed:>9.3f}"
        f" {100 * unattributed / process if process else 0:>6.1f}"
    )
    print(f"  {'process':<16} {'':>9} {'':>10} {process:>9.3f} {100.0:>6.1f}")
    skip = {f"{layer}.{what}" for layer in order for what in ("calls", "busy_s", "cpu_s", "errors")}
    skip |= {"process.cpu_s", "unattributed.cpu_s"}
    for name, value in layers.items():
        if name not in skip:
            print(f"  {name:<40} {value:>14.6g}")


if __name__ == "__main__":
    sys.exit(main())
