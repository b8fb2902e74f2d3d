"""Span recorder: self-time arithmetic, patching, and the metric names it reports."""

import json
from collections import Counter
from pathlib import Path

import pytest

import run
import spans
from spans import Span


def test_self_time_subtracts_nested_children():
    tree = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.leaf", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 9.0, 0, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    tree = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("x", 1.0, 5.0, 0, 0),
        Span("y", 4.0, 6.0, 0, 0),
        Span("z", 9.0, 12.0, 0, 0),  # runs past its parent: only [9, 10] counts
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_pass_totals_sum_self_time_by_name():
    tree = [Span("f", 0.0, 2.0, -1, 0), Span("g", 0.5, 1.0, 0, 0), Span("f", 3.0, 4.0, -1, 1)]
    totals = spans.pass_totals(tree, Counter({"f.calls": 2}))
    assert totals["f_s"] == pytest.approx(2.5)
    assert totals["g_s"] == pytest.approx(0.5)
    assert totals["f.calls"] == 2


def test_merge_shifts_parent_indices():
    merged = [Span("p", 0.0, 1.0, -1, 0)]
    spans.merge(merged, [Span("q", 2.0, 3.0, -1, 1), Span("r", 2.1, 2.2, 0, 1)])
    assert [s.parent for s in merged] == [-1, -1, 1]


def test_recorder_wraps_from_imports_and_restores_them():
    import chainrate.cli as cli
    import chainrate.noise as noise

    original = noise.noise_parameter
    recorder = spans.Recorder(op_id=4)
    recorder.install()
    try:
        assert cli.noise_parameter is not original and noise.noise_parameter is not original
        noise.noise_report(noise.uniform_chain(3, 0.02, 1, 1))
    finally:
        recorder.uninstall()
    assert cli.noise_parameter is original and noise.noise_parameter is original
    names = [(s.name, s.parent, s.op_id) for s in recorder.spans]
    assert names == [("noise.noise_report", -1, 4), ("noise.noise_parameter", 0, 4)]
    assert recorder.counts["bell.convolve.calls"] > 0


def test_sample_rounds_counters():
    import numpy as np

    from chainrate import montecarlo, noise

    recorder = spans.Recorder()
    recorder.install()
    try:
        montecarlo.sample_rounds(noise.uniform_chain(5, 0.03, 2, 2), 1000, np.random.default_rng(0))
    finally:
        recorder.uninstall()
    counts = recorder.counts
    assert counts["montecarlo.sample_rounds.rounds"] == 1000
    assert counts["montecarlo.sample_rounds.draws"] == 6 * 1000
    assert counts["montecarlo.sample_rounds.bytes_computed"] == 1000 * 6 * spans.BYTES_PER_LINK_ROUND


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.WORKLOADS)
