"""The scaling of a unit's time by the reference probes around it."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import reference  # noqa: E402


def test_bracket_scales_by_the_mean_of_the_two_probes(monkeypatch):
    now = [0.0]
    probe_times = iter([0.010, 0.030])   # a machine 4x slower than nominal on average

    def kernel():
        now[0] += next(probe_times)

    def unit():
        now[0] += 2.0
        return "done"

    monkeypatch.setattr(reference, "clock", lambda: now[0])
    monkeypatch.setattr(reference, "reference_kernel", kernel)
    monkeypatch.setattr(reference, "REF_NOMINAL_S", 0.005)
    ref = reference.Reference()
    result, raw, scaled = ref.bracket(unit)
    assert result == "done"
    assert raw == pytest.approx(2.0)          # the probes are not in the unit's time
    assert scaled == pytest.approx(0.5)
    assert ref.probes == pytest.approx([0.010, 0.030])
    assert ref.slowdown() == pytest.approx(4.0)


def test_kernel_is_deterministic():
    assert reference.reference_kernel() == reference.reference_kernel()
