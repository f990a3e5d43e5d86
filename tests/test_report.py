"""`gridstab report`: one pass over the day pairs, each day featurized once,
and `--compare` on the last daily pair with the daily system's row reused."""

import csv
import hashlib

import pytest

from gridstab import cli, report
from gridstab.cli import main
from gridstab.synth import SynthConfig

DAYS = 3
TINY = ["--buses", "24", "--days", str(DAYS), "--slots", "8", "--seed", "7"]
# sha256 of the report CSVs on the TINY world (--epochs 2 --seed 7), as
# written when report featurized each middle day twice and trained the
# comparison's GraphModel or DeepCnn5 row again.
COMPARE_SHA = "d32fdfa7a6f0c4e6239f3a413390a5c8866958b8715998c63b60b37bcfefb488"
DAILY_SHA = {
    "graph": "348e20c585509368cc844ee90f40b33cbf3fa2e059c8fb2c134ce20cc0a291aa",
    "deepcnn5": "338cbf86d9cf31eecc0b5fba7a1e33183f90f0fa7f99286ccfc7cee0bf0041f2",
}
SYSTEM_ROW = {"graph": "GraphModel", "deepcnn5": "DeepCnn5"}


@pytest.fixture(scope="module")
def tiny_world(tmp_path_factory):
    data = tmp_path_factory.mktemp("report") / "data"
    assert main(["synth", "--out", str(data), *TINY]) == 0
    return data


def _spy(monkeypatch, name, calls):
    real = getattr(report, name)

    def spy(*args, **kwargs):
        calls.append(kwargs.get("include_raw"))
        return real(*args, **kwargs)

    monkeypatch.setattr(report, name, spy)


def _rows(path):
    with open(path, newline="") as fh:
        return {row["date"]: {k: v for k, v in row.items() if k != "date"}
                for row in csv.DictReader(fh)}


@pytest.mark.parametrize("variant,compare", [
    ("graph", True), ("deepcnn5", True), ("graph", False),
], ids=["graph-compare", "deepcnn5-compare", "graph-daily"])
def test_report_featurizes_each_day_once_and_reuses_the_last_pair(
        tmp_path, monkeypatch, tiny_world, variant, compare):
    featurized, trained = [], []
    _spy(monkeypatch, "featurize", featurized)
    _spy(monkeypatch, "train", trained)
    flags = ["--compare"] if compare else []
    assert main(["report", "--data", str(tiny_world), "--out", str(tmp_path), "--variant",
                 variant, "--epochs", "2", "--seed", "7", *flags]) == 0

    files = {"report_daily.csv": DAILY_SHA[variant]}
    if compare:
        files["report_compare.csv"] = COMPARE_SHA
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
    for name, digest in files.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
    # one featurize call a day, with raw states when any system of the run
    # (DeepCnn5, in the comparison or as the daily system) reads them
    assert featurized == [compare or variant == "deepcnn5"] * DAYS
    # the comparison trains MLP, GraphModel, GraphPool and DeepCnn5, less the
    # daily system's, whose row it reuses
    assert len(trained) == (DAYS - 1) + (3 if compare else 0)
    if compare:
        daily = _rows(tmp_path / "report_daily.csv")
        assert _rows(tmp_path / "report_compare.csv")[SYSTEM_ROW[variant]] == daily[
            str(DAYS - 1)]


def test_report_compare_with_one_day_names_the_day(tmp_path, capsys, monkeypatch):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), *TINY, "--days", "1"]) == 0
    featurized = []
    _spy(monkeypatch, "featurize", featurized)
    capsys.readouterr()
    assert main(["report", "--data", str(data), "--compare", "--epochs", "1"]) == 1
    err = capsys.readouterr().err
    assert "day 0" in err and "Traceback" not in err
    assert featurized == [] and not (data / "report_daily.csv").exists()


@pytest.mark.parametrize("command", [["baseline", "--baseline", "svm"], ["ablate"]],
                         ids=["baseline", "ablate"])
def test_a_same_day_pair_is_rejected_before_featurizing(
        tmp_path, capsys, monkeypatch, tiny_world, command):
    featurized = []
    _spy(monkeypatch, "featurize", featurized)
    out = tmp_path / "out.csv"
    capsys.readouterr()
    assert main([*command, "--data", str(tiny_world), "--train-day", "1", "--eval-day", "1",
                 "--epochs", "1", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "train day 1 and eval day 1 are one day" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert featurized == [] and not out.exists()


def test_a_bundle_counts_its_days_from_its_snapshots(tiny_world):
    """A loaded dataset's day count is its own, and loading it leaves the
    run config as it was."""
    cfg = report.ExperimentConfig()
    bundle = cli._bundle_from_dir(tiny_world, cfg)
    assert bundle.days == DAYS != cfg.synth.days
    assert cfg.synth == SynthConfig()
    assert report.Bundle(cfg, bundle.network, [], [], bundle.spec, "").days == 0
