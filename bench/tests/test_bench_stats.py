"""Reported percentiles carry their sample counts."""

import run


def test_median_only_below_eleven_samples():
    assert run.summarize([3.0, 1.0, 2.0]) == {"n": 3, "p50": 2.0}


def test_highest_percentile_with_ten_samples_above():
    values = [float(i) for i in range(1, 101)]
    summary = run.summarize(values)
    assert summary["n"] == 100 and summary["p50"] == 50.5
    assert summary["p90"] == 90.0  # exactly ten samples lie above it
    assert sum(v > summary["p90"] for v in values) == 10


def test_described_line_names_unit_and_count():
    line = run.describe("cmd_p50_s", "s", [0.2] * 30 + [0.3] * 15, "command processes")
    assert line.startswith("cmd_p50_s = 0.2 s")
    assert "median of 45 command processes" in line
    assert ", p77 0.3 s" in line
