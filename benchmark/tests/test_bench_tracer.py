"""The tracer's self-time arithmetic and its install/restore of wrappers."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import tracer  # noqa: E402
from tracer import Target, Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def spend(self, dt):
        self.now += dt


def traced(tr, name, fn):
    return tr.wrap(fn, Target(owner=None, attr=name, name=name))


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    leaf = traced(tr, "leaf", clock.spend)

    def middle_body():
        clock.spend(1.0)
        leaf(2.0)

    middle = traced(tr, "middle", middle_body)

    def outer_body():
        clock.spend(0.5)
        middle()
        clock.spend(0.25)
        leaf(4.0)

    traced(tr, "outer", outer_body)()

    outer, mid, lf = tr.stats("outer"), tr.stats("middle"), tr.stats("leaf")
    assert (outer.calls, outer.total_s, outer.self_s) == (1, 7.75, 0.75)
    assert (mid.calls, mid.total_s, mid.self_s) == (1, 3.0, 1.0)
    assert (lf.calls, lf.total_s, lf.self_s) == (2, 6.0, 6.0)
    # every second of the run is some span's self time exactly once
    assert outer.self_s + mid.self_s + lf.self_s == outer.total_s


def test_span_that_raises_is_recorded_and_unwinds():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def failing():
        clock.spend(1.0)
        raise RuntimeError("boom")

    inner = traced(tr, "inner", failing)

    def outer_body():
        clock.spend(2.0)
        with pytest.raises(RuntimeError):
            inner()

    traced(tr, "outer", outer_body)()
    assert tr.stats("inner").calls == 1
    assert tr.stats("outer").self_s == 2.0
    assert tr._child_time == []


def _bindings():
    """Every attribute of every gridstab module, and of ScreeningModel."""
    from gridstab import model

    owners = [m for name, m in sys.modules.items()
              if name == "gridstab" or name.startswith("gridstab.")]
    owners.append(model.ScreeningModel)
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_install_patches_imported_names_and_restores_everything():
    from gridstab import cli, features, model, report

    before = _bindings()
    tr = Tracer()
    with tr.installed(tracer.gridstab_targets()):
        assert report.featurize is not before[(id(report), "featurize")]
        assert report.featurize is features.featurize
        assert cli.featurize is features.featurize
        assert model.calibrate_threshold.__wrapped__ is before[
            (id(model), "calibrate_threshold")]
        assert "forward" in vars(model.ScreeningModel)
        assert model.ScreeningModel.forward is not before[
            (id(model.ScreeningModel), "forward")]
    assert _bindings() == before

    with pytest.raises(KeyError):
        with tr.installed(tracer.gridstab_targets()):
            raise KeyError("interrupted run")
    assert _bindings() == before


def test_calls_through_imported_names_are_timed():
    from gridstab import features, report, synth

    config = synth.SynthConfig(n_bus=12, days=1, slots_per_day=1, seed=0)
    network, snapshots, faults, _ = synth.build_dataset(config)
    tr = Tracer()
    with tr.installed(tracer.gridstab_targets()):
        report.featurize(network, snapshots, faults[:3], features.default_feature_spec())
    assert tr.stats("features.featurize").calls == 1
    assert tr.stats("features.local_subgraph").calls == 3
    assert tr.stats("features.global_stats").calls == 1
    top = tr.stats("features.featurize")
    children = tr.stats("features.local_subgraph").total_s + tr.stats(
        "features.global_stats").total_s
    assert top.self_s == pytest.approx(top.total_s - children)
