"""`compare` of `.github/bench-pairs.py` on synthetic parent/change runs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / ".github" / "bench-pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

HIGHER = {"unit": "steps/s", "better": "higher", "bound": 0.2}
LOWER = {"unit": "s", "better": "lower", "bound": 0.25}
PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 100.0]
WIDE = [60.0, 140.0, 80.0, 120.0, 100.0, 60.0, 140.0, 80.0, 120.0, 100.0]


def compare(metric: dict, parent: list, change: list) -> dict:
    return bench_pairs.compare(metric, {"parent": parent, "change": change})


class TestCompare:
    def test_a_clear_gain(self):
        m = compare(HIGHER, PARENT, [1.5 * p for p in PARENT])
        assert m["change_better_pairs"] == 10
        assert m["median_change"] == pytest.approx(0.5)
        assert m["within_bound"] and not m["unresolved"] and m["gain"]

    @pytest.mark.parametrize("change,better,gain", [
        ([110.0] * 9 + [100.0], 9, True),   # nine wins and a tie: nine tenths
        ([110.0] * 8 + [100.0] * 2, 8, False),  # ties count for neither side
        ([110.0] * 8 + [90.0] * 2, 8, False)])
    def test_gain_needs_nine_tenths_of_the_pairs(self, change, better, gain):
        m = compare(HIGHER, [100.0] * 10, change)
        assert (m["change_better_pairs"], m["gain"]) == (better, gain)

    def test_gain_needs_ten_pairs(self):
        assert not compare(HIGHER, [100.0] * 9, [200.0] * 9)["gain"]
        assert compare(HIGHER, [100.0] * 10, [200.0] * 10)["gain"]

    def test_a_gap_within_the_parents_spread_is_no_gain(self):
        # better in every pair, by 5 against an interquartile range of 40
        m = compare(HIGHER, WIDE, [p + 5 for p in WIDE])
        assert m["change_better_pairs"] == 10 and m["parent_iqr"] == 40.0
        assert not m["gain"]
        assert m["unresolved"]  # 40 > 0.2 x 100, and the sides overlap

    def test_separated_sides_resolve_a_wide_parent(self):
        m = compare(HIGHER, WIDE, [200.0] * 10)
        assert not m["unresolved"] and m["gain"]

    def test_lower_is_better(self):
        m = compare(LOWER, [1.0] * 10, [0.5] * 10)
        assert m["median_change"] == pytest.approx(-0.5)
        assert m["change_better_pairs"] == 10 and m["within_bound"] and m["gain"]

    @pytest.mark.parametrize("metric,change,within", [
        (LOWER, 1.25, True), (LOWER, 1.3, False),
        (HIGHER, 0.8, True), (HIGHER, 0.7, False)])
    def test_bound(self, metric, change, within):
        m = compare(metric, [1.0] * 10, [change] * 10)
        assert m["within_bound"] is within
        assert m["change_better_pairs"] == 0 and not m["gain"]
