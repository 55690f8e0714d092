"""BENCHMARK.json names exactly what the benchmark prints."""

import json
import os

from perfbench import run, workloads

MANIFEST = os.path.join(run.ROOT, "BENCHMARK.json")


def _manifest():
    with open(MANIFEST) as fh:
        return json.load(fh)


def test_workloads_match():
    for entry in _manifest()["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why


def test_end_to_end_metrics_match():
    declared = [(m["name"], m["unit"]) for m in _manifest()["end_to_end"]]
    assert declared == [(n, u) for n, u in run.END_TO_END if n not in run.UNGATED]


def test_per_layer_metrics_match():
    units = dict(run.END_TO_END)
    declared = [(m["name"], m["unit"]) for m in _manifest()["per_layer"]]
    assert declared == [(n, run.layer_unit(n, units)) for n in run.per_layer_names()]
