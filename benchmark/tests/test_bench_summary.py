"""The percentile rule and the size walker."""

import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import summary  # noqa: E402


@pytest.mark.parametrize("values", [[3.0, 1.0, 2.0], list(range(1, 101)),
                                    [5.0, 5.0, 1.0, 9.0, 2.5, 7.0, 7.5]])
def test_percentile_matches_inclusive_quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    assert summary.percentile(values, 25) == pytest.approx(q1)
    assert summary.percentile(values, 50) == pytest.approx(q2)
    assert summary.percentile(values, 75) == pytest.approx(q3)
    assert summary.percentile(values, 0) == min(values)
    assert summary.percentile(values, 100) == max(values)


def test_p90_of_one_to_hundred():
    assert summary.percentile(range(1, 101), 90) == pytest.approx(90.1)
    assert summary.percentile([7.0], 90) == 7.0


def test_tail_needs_ten_samples_beyond_it():
    assert summary.samples_beyond(100, 90) == 10
    assert summary.tail_is_resolved(100, 90)
    assert summary.tail_is_resolved(92, 90)
    assert not summary.tail_is_resolved(91, 90)
    assert not summary.tail_is_resolved(10, 90)
    xs = list(range(92))
    p90 = summary.percentile(xs, 90)
    assert sum(1 for x in xs if x > p90) == summary.samples_beyond(92, 90)


def test_array_nbytes_counts_shared_arrays_and_views_once():
    shared = np.zeros(100)            # 800 bytes
    own = np.ones((10, 10))           # 800 bytes

    class Sample:
        def __init__(self, g, h):
            self.g = g
            self.h = h

    samples = [Sample(shared, own[:5]), Sample(shared, own[5:]), Sample(shared, np.zeros(3))]
    assert summary.array_nbytes({"samples": samples, "n": 3}) == 800 + 800 + 24
