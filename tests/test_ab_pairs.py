import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "ab_pairs.py")
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)

METRICS = [{"name": "throughput_rps", "better": "higher", "bound": 0.25},
           {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]


def _pairs(base_rps, change_rps, base_rss, change_rss):
    return [({"throughput_rps": a, "peak_rss_mb": c},
             {"throughput_rps": b, "peak_rss_mb": d})
            for a, b, c, d in zip(base_rps, change_rps, base_rss, change_rss)]


def test_quartiles_inclusive_and_single_value():
    assert ab_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summary_counts_wins_by_direction_and_ties():
    pairs = _pairs([10, 11, 12, 13, 14], [20, 21, 11, 13, 30],
                   [5.0, 5.0, 5.0, 5.0, 5.0], [4.0, 6.0, 5.0, 4.5, 5.0])
    rps, rss = ab_pairs.summarize(pairs, METRICS)
    assert rps["base"] == (11, 12, 13) and rps["change"] == (13, 20, 21)
    assert (rps["wins"], rps["ties"], rps["pairs"]) == (3, 1, 5)
    assert rps["relative"] == pytest.approx(8 / 12)
    assert rps["clears_base_iqr"] and not rps["worse_than_bound"]
    # Lower is better: 4.0 and 4.5 win, 6.0 loses, two ties.
    assert (rss["wins"], rss["ties"]) == (2, 2)
    assert rss["change"][1] == 5.0 and not rss["clears_base_iqr"]
    assert not rss["worse_than_bound"]


def test_summary_flags_a_median_worse_than_its_bound():
    # Throughput -24 % is inside its 25 % bound and -26 % is not; peak RSS
    # +12.5 % is over its 10 % bound.
    inside = _pairs([10, 10, 10], [7, 7.6, 8], [20, 20, 20], [20, 20, 20])
    outside = _pairs([10, 10, 10], [7, 7.4, 8], [20, 20, 21], [22.1, 22.5, 23])
    assert not ab_pairs.summarize(inside, METRICS)[0]["worse_than_bound"]
    rps, rss = ab_pairs.summarize(outside, METRICS)
    assert rps["wins"] == 0 and rps["worse_than_bound"]
    assert rss["worse_than_bound"] and not rss["clears_base_iqr"]


def test_summary_gives_the_median_per_pair_ratio_beside_the_change_of_medians():
    # The base median comes from the second pair and the change median from
    # the third, so the medians read +10 %, while the median pair reads
    # 22/30 - 1, about -27 %.
    pairs = _pairs([10, 20, 30], [33, 11, 22], [5, 5, 10], [5, 5, 10])
    rps, rss = ab_pairs.summarize(pairs, METRICS)
    assert rps["relative"] == pytest.approx(0.1)
    assert rps["pair_relative"] == pytest.approx(22 / 30 - 1)
    assert rss["relative"] == rss["pair_relative"] == 0
    zero = ab_pairs.summarize(_pairs([0, 0], [1, 2], [0, 0], [0, 0]), METRICS)
    assert zero[0]["pair_relative"] is None


def test_summary_marks_a_wide_overlapping_spread_unresolved():
    # Throughput's base IQR, 40 - 20, is more than 0.25 times its median, 30,
    # and the runs overlap; peak RSS has no spread at all.
    pairs = _pairs([10, 20, 30, 40, 50], [12, 22, 28, 45, 55], [5.0] * 5, [5.0] * 5)
    rps, rss = ab_pairs.summarize(pairs, METRICS)
    assert rps["unresolved"] and not rps["worse_than_bound"]
    assert not rss["unresolved"]


def test_summary_resolves_a_wide_spread_when_every_change_run_wins():
    # Both base IQRs are wider than their bounds, but every change run beats
    # every base run, in each direction.
    pairs = _pairs([10, 20, 30, 40, 50], [60, 70, 80, 90, 100],
                   [5.0, 6.0, 7.0, 8.0, 9.0], [1.0, 2.0, 3.0, 4.0, 4.5])
    rps, rss = ab_pairs.summarize(pairs, METRICS)
    assert not rps["unresolved"] and not rss["unresolved"]
    assert rps["wins"] == rss["wins"] == 5
