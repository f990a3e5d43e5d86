"""Workloads on a tiny world: failure counting, output checks and the metric
names against BENCHMARK.json."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import results  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from gridstab import cli, model, synth  # noqa: E402

TINY_BUS = 16


def tiny(cls, **kw):
    ac_lines = len(synth.generate_network(
        synth.SynthConfig(n_bus=TINY_BUS, seed=0)).ac_line_ids())
    return cls(0, n_bus=TINY_BUS, ac_lines=ac_lines, epochs=1, **kw)


def test_ledger_counts_a_forced_failure():
    ledger = workloads.Ledger()
    assert ledger.run("ok", lambda: 7) == 7
    assert ledger.run("boom", lambda: 1 / 0) is None
    assert not ledger.verify("bad output", workloads.check, False, "wrong")
    assert (ledger.attempted, ledger.failed) == (2, 2)
    assert ledger.error_rate == 1.0
    assert "ZeroDivisionError" in ledger.errors[0]


def test_screen_counts_a_bad_score_as_a_failed_snapshot(monkeypatch):
    w = tiny(workloads.Screen, slots=10)
    w.setup()
    real = model.scores_for
    calls = []

    def nan_once(result, ds):
        scores = real(result, ds)
        calls.append(1)
        return np.full_like(scores, np.nan) if len(calls) == 2 else scores

    monkeypatch.setattr(model, "scores_for", nan_once)
    ledger = workloads.Ledger()
    passes = w.measure(0.0, ledger)
    assert ledger.attempted == w.slots
    assert ledger.failed == 1
    assert "non-finite score" in ledger.errors[0]
    assert len(passes[0].snapshot_ms) == w.slots - 1
    assert not passes[0].complete


def test_screen_pass_checks_and_reports(monkeypatch):
    w = tiny(workloads.Screen, slots=10)
    w.setup()
    ledger = workloads.Ledger()
    passes = w.measure(0.0, ledger)
    assert ledger.failed == 0 and ledger.attempted == w.slots
    assert passes[0].complete and passes[0].faults == w.slots * w.ac_lines
    assert w.quality is not None and w.scores_digest
    assert w.bytes_per_sample > 0


@pytest.mark.parametrize("code,failed,feasible", [(1, 2, None), (3, 0, False)])
def test_cli_exit_codes(monkeypatch, tmp_path, code, failed, feasible):
    """Exit 3 completes ``train`` and records infeasibility; exit 1 fails it,
    and ``eval`` then fails for want of a checkpoint."""
    real = cli.main

    def train_exits(argv):
        if argv[0] != "train":
            return real(argv)
        if code == cli.EXIT_INFEASIBLE:
            real(argv)
        return code

    monkeypatch.setattr(cli, "main", train_exits)
    w = tiny(workloads.Cli, work_root=tmp_path)
    w.setup()
    ledger = workloads.Ledger()
    w.measure(0.0, ledger)
    assert ledger.attempted == 4
    assert ledger.failed == failed
    if feasible is not None:
        assert w.feasible == [feasible]
    assert list(tmp_path.iterdir()) == []


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    w = tiny(workloads.Screen, slots=10)
    w.setup()
    passes = w.measure(0.0, workloads.Ledger())
    e2e = results.end_to_end(w, [1.0], passes)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in e2e.items()}

    tr = tracer.Tracer()
    with tr.installed(tracer.gridstab_targets()):
        traced = w.run_pass(workloads.Ledger())
    layers = results.per_layer(w, tr, passes[0].wall_s, traced.wall_s)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v["unit"] for k, v in layers.items()}
    assert layers["features.featurize.calls"]["value"] == w.slots
    assert layers["nn.gcn_forward.l1.calls"]["value"] > 0
