"""The benchmark's workloads: ``screen``, ``compare`` and ``cli``.

Each is a closed loop with one caller in this process. ``setup`` builds the
workload's inputs from its seed; ``run_pass`` does one pass of the timed work
and checks the outputs. Every operation goes through a ``Ledger``, which
counts what was attempted and what failed.

All three use the same world size: 54 buses, and only networks with exactly
48 AC lines, so that every seed gives the same amount of work per snapshot.

Every timed unit of work is bracketed by reference probes, and its time is
scaled to idle-machine speed (see ``reference.Reference``).
"""

from __future__ import annotations

import contextlib
import copy
import csv
import dataclasses
import hashlib
import io
import math
import re
import shutil
import statistics
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gridstab import cli, features, metrics, model, report, synth
from reference import Reference
from summary import array_nbytes

N_BUS = 54
AC_LINES = 48
EPOCHS = 5
NEURAL_SYSTEMS = ("GraphModel", "GraphPool", "DeepCnn5", "MlpOnly")

clock = time.perf_counter

class OutputError(Exception):
    """An output failed one of the benchmark's correctness checks."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise OutputError(message)


@dataclass
class Ledger:
    """Operations attempted and failed; a failed output check fails its operation."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def run(self, name: str, fn, *args):
        """Attempt one operation; on an exception record it and return None."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:   # the run goes on and reports the failure
            self.fail(name, traceback.format_exc(limit=3))
            return None

    def verify(self, name: str, fn, *args) -> bool:
        """Check the outputs of an operation already counted as attempted."""
        try:
            fn(*args)
            return True
        except Exception:   # a failed check fails the operation it checks
            self.fail(name, traceback.format_exc(limit=3))
            return False

    def fail(self, name: str, detail: str) -> None:
        self.failed += 1
        self.errors.append(f"{name}: {detail.strip()}")

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class PassResult:
    """One pass of a workload's timed work; times are at idle-machine speed."""

    wall_s: float
    raw_wall_s: float
    faults: int
    snapshot_ms: list[float]
    train_sample_passes: int = 0
    train_s: float = 0.0
    complete: bool = True


def find_world_seed(seed: int, n_bus: int, ac_lines: int, tries: int = 4000) -> int:
    """First synth seed from ``1000 * seed`` on whose network has exactly
    ``ac_lines`` AC lines."""
    for candidate in range(1000 * seed, 1000 * seed + tries):
        network = synth.generate_network(synth.SynthConfig(n_bus=n_bus, seed=candidate))
        if len(network.ac_line_ids()) == ac_lines:
            return candidate
    raise ValueError(f"no {n_bus}-bus network with {ac_lines} AC lines near seed {seed}")


def check_scores(scores, n: int) -> None:
    scores = np.asarray(scores)
    check(scores.shape == (n,), f"{scores.shape} scores for {n} samples")
    check(bool(np.all(np.isfinite(scores))), "non-finite score")
    check(bool(np.all((scores >= 0.0) & (scores <= 1.0))), "score outside [0, 1]")


def check_row(row) -> None:
    check(isinstance(row, metrics.MetricRow), f"not a MetricRow: {row!r}")
    for name in ("kkd", "ryd", "ysl", "acc"):
        value = getattr(row, name)
        check(math.isfinite(value) and 0.0 <= value <= 100.0, f"{name}={value}")
    check(math.isfinite(row.threshold), f"threshold={row.threshold}")


def check_per_snapshot(ds, ac_lines: int) -> None:
    counts: dict[tuple, int] = {}
    for s in ds.samples:
        counts[(s.day, s.slot)] = counts.get((s.day, s.slot), 0) + 1
    bad = {k: v for k, v in counts.items() if v != ac_lines}
    check(not bad, f"snapshots without {ac_lines} samples: {bad}")


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


class Workload:
    name = ""
    days_per_pass = 1
    cuttable = False

    def __init__(self, seed: int, n_bus: int = N_BUS, ac_lines: int = AC_LINES,
                 slots: int = 12, epochs: int = EPOCHS):
        self.seed = seed
        self.n_bus = n_bus
        self.ac_lines = ac_lines
        self.slots = slots
        self.epochs = epochs
        self.world_seed = -1
        self.quality: metrics.MetricRow | None = None
        self.info: dict = {}
        self.scores_digest = ""
        self.bytes_per_sample = 0.0
        self.disk_bytes_per_fault = 0.0
        self.setup_train_s: list[float] = []
        self.setup_train_passes = 0
        self.ref = Reference()

    def config(self) -> dict:
        return {"n_bus": self.n_bus, "ac_lines": self.ac_lines, "slots_per_day": self.slots,
                "epochs": self.epochs, "world_seed": self.world_seed}

    @property
    def snapshots_per_pass(self) -> int:
        return self.days_per_pass * self.slots

    def setup(self) -> None:
        raise NotImplementedError

    def timed_setup(self) -> tuple[float, float]:
        """Set up; return (seconds at idle-machine speed, raw seconds)."""
        _, raw, scaled = self.ref.bracket(self.setup)
        return scaled, raw

    def run_pass(self, ledger: Ledger, deadline: float | None = None) -> PassResult:
        raise NotImplementedError

    def measure(self, seconds: float, ledger: Ledger) -> list[PassResult]:
        """Passes until ``seconds`` are used up; the first pass always completes.

        A cuttable pass (screen) stops at the deadline after its current
        snapshot. Any other pass is started only when the median pass so far,
        in raw time, still fits in the time left.
        """
        deadline = clock() + seconds
        passes = [self.run_pass(ledger)]
        while True:
            left = deadline - clock()
            typical = statistics.median(p.raw_wall_s for p in passes)
            if left <= 0 or (not self.cuttable and typical > left):
                return passes
            passes.append(self.run_pass(ledger, deadline if self.cuttable else None))


# ------------------------------------------------------------------ screen

class Screen(Workload):
    """Online screening: one snapshot at a time, in arrival order.

    Setup trains a GraphModel on day 0 (the first 80% of its slots, balanced)
    and calibrates its threshold on the rest of the day. The timed loop then
    takes held-out days 1, 2, ... as they are generated; for each snapshot it
    featurizes that snapshot's AC-line faults, scores them and flags them
    against the threshold. A pass is one held-out day.
    """

    name = "screen"
    cuttable = True

    def setup(self) -> None:
        self.world_seed = find_world_seed(self.seed, self.n_bus, self.ac_lines)
        cfg = report.ExperimentConfig(synth=synth.SynthConfig(
            n_bus=self.n_bus, days=1, slots_per_day=self.slots, seed=self.world_seed))
        cfg.train.epochs = self.epochs
        cfg.train.seed = self.seed
        network, snapshots, faults, oracle = synth.build_dataset(cfg.synth)
        spec = features.default_feature_spec(cfg.feature_regions)
        cut = max(1, int(round(self.slots * (1.0 - cfg.calibration_frac))))
        train_faults = metrics.undersample_balance(
            [f for f in faults if f.slot < cut], cfg.train.seed)
        cal_faults = [f for f in faults if f.slot >= cut]
        kw = dict(spec=spec, max_nodes=cfg.max_nodes)
        train_ds = features.featurize(network, snapshots, train_faults, **kw)
        cal_ds = features.featurize(network, snapshots, cal_faults, **kw)
        check_per_snapshot(cal_ds, self.ac_lines)
        self.bytes_per_sample = array_nbytes(cal_ds) / len(cal_ds.samples)
        tc = dataclasses.replace(cfg.train, balance=False)
        result, _, train_s = self.ref.bracket(
            model.train, "GraphModel", train_ds, cal_ds, cfg.model, tc)
        self.setup_train_s.append(train_s)
        self.setup_train_passes = len(train_ds.samples) * self.epochs
        self.cfg, self.network, self.oracle, self.spec = cfg, network, oracle, spec
        self.result = result
        self.next_day = 1
        self.info.update(train_samples=len(train_ds.samples), threshold=result.threshold,
                         calibration_feasible=result.calibration_feasible)

    def run_pass(self, ledger: Ledger, deadline: float | None = None) -> PassResult:
        day = self.next_day
        self.next_day += 1
        snaps = synth.generate_day(self.network, day, self.cfg.synth)
        latencies, raws, all_scores, labels = [], [], [], []
        for snap in snaps:
            if deadline is not None and clock() >= deadline:
                break
            faults = synth.enumerate_faults(self.network, snap)
            outcome = ledger.run(f"screen d{day}s{snap.slot}", self.ref.bracket,
                                 self._screen, snap, faults)
            if outcome is None:
                continue
            (ds, scores, flags), raw, latency = outcome
            if not ledger.verify(f"check d{day}s{snap.slot}", self._check, ds, scores, flags):
                continue
            latencies.append(latency)
            raws.append(raw)
            all_scores.append(scores)
            truth = {f.element_id: f.label for f in self.oracle.label_snapshot(snap)}
            labels += [truth[s.element_id] for s in ds.samples]
        complete = len(latencies) == len(snaps)
        if day == 1 and complete:
            ledger.verify("check day 1", self._score_day, np.concatenate(all_scores), labels)
        n = len(latencies) * self.ac_lines
        return PassResult(wall_s=sum(latencies), raw_wall_s=sum(raws), faults=n,
                          snapshot_ms=[1000.0 * x for x in latencies], complete=complete)

    def _screen(self, snap, faults):
        ds = features.featurize(self.network, [snap], faults, self.spec,
                                max_nodes=self.cfg.max_nodes)
        scores = model.scores_for(self.result, ds)
        return ds, scores, scores >= self.result.threshold

    def _check(self, ds, scores, flags):
        check(len(ds.samples) == self.ac_lines, f"{len(ds.samples)} samples")
        check_scores(scores, self.ac_lines)
        check(flags.shape == scores.shape, "flag count")

    def _score_day(self, scores, labels):
        self.quality = metrics.compute_metrics(scores, labels, self.result.threshold)
        check_row(self.quality)
        self.scores_digest = digest(scores.tobytes())


# ----------------------------------------------------------------- compare

class Compare(Workload):
    """The comparison table on one day pair, featurized in setup.

    A pass trains and evaluates GraphModel, GraphPool, DeepCnn5 and MlpOnly,
    then runs the SVM and previous-day baselines: everything
    ``report.comparison_table`` runs after ``report.prepare_day_pair``.
    """

    name = "compare"
    days_per_pass = 2

    def __init__(self, seed: int, **kw):
        super().__init__(seed, **kw)
        self.first_rows: dict | None = None

    def setup(self) -> None:
        self.world_seed = find_world_seed(self.seed, self.n_bus, self.ac_lines)
        cfg = report.ExperimentConfig(synth=synth.SynthConfig(
            n_bus=self.n_bus, days=2, slots_per_day=self.slots, seed=self.world_seed))
        cfg.train.epochs = self.epochs
        cfg.train.seed = self.seed
        bundle = report.build_bundle(cfg)
        pair = report.prepare_day_pair(bundle, 0, 1, include_raw=True)
        check_per_snapshot(pair.cal_ds, self.ac_lines)
        check_per_snapshot(pair.eval_ds, self.ac_lines)
        self.cfg, self.bundle, self.pristine = cfg, bundle, pair
        self.info["train_samples"] = len(pair.train_ds.samples)
        self.bytes_per_sample = array_nbytes(pair.eval_ds) / len(pair.eval_ds.samples)

    def run_pass(self, ledger: Ledger, deadline: float | None = None) -> PassResult:
        # A fresh copy per pass: training caches normalized adjacencies on
        # the samples, which one comparison run pays for once.
        pair = copy.deepcopy(self.pristine)
        (train_s, results, rows), raw, wall = self.ref.bracket(self._compare, ledger, pair)
        ledger.verify("check compare", self._check, pair, results, rows)
        return PassResult(
            wall_s=wall, raw_wall_s=raw, faults=len(pair.eval_ds.samples),
            snapshot_ms=[1000.0 * wall / self.snapshots_per_pass],
            train_sample_passes=len(NEURAL_SYSTEMS) * len(pair.train_ds.samples) * self.epochs,
            train_s=train_s * wall / raw)

    def _compare(self, ledger: Ledger, pair):
        cfg = self.cfg
        target = cfg.train.target_kkd
        train_s = 0.0
        results, rows = {}, {}
        for variant in NEURAL_SYSTEMS:
            start = clock()
            result = ledger.run(f"train {variant}", report.train_on_pair,
                                pair, variant, cfg.model, cfg.train)
            train_s += clock() - start
            if result is not None:
                results[variant] = result
                rows[variant] = ledger.run(f"eval {variant}", report.evaluate_model,
                                           pair, result)
        rows["SVM"] = ledger.run("SVM", report.run_svm, self.bundle, pair, target)
        rows["Baseline"] = ledger.run("Baseline", report.run_prev_day, self.bundle, pair,
                                      target)
        return train_s, results, rows

    def _check(self, pair, results, rows):
        for name, row in rows.items():
            check(row is not None, f"{name} produced no row")
            check_row(row)
        if self.first_rows is not None:
            check(rows == self.first_rows, "rows differ from the first pass")
            return
        labels = pair.eval_ds.labels()
        parts = []
        for variant, result in results.items():
            scores = model.scores_for(result, pair.eval_ds)
            check_scores(scores, len(labels))
            check(metrics.compute_metrics(scores, labels, result.threshold) == rows[variant],
                  f"{variant} row does not match its scores")
            self.info[f"{variant}.calibration_feasible"] = result.calibration_feasible
            parts.append(scores.tobytes())
        self.first_rows = rows
        self.quality = rows["GraphModel"]
        self.scores_digest = digest(*parts, sorted(rows.items()))


# --------------------------------------------------------------------- cli

class Cli(Workload):
    """The file-based workflow through ``gridstab.cli.main``, in process.

    A pass runs ``synth``, ``featurize --days 0,1``, ``train --train-day 0``
    (graph variant) and ``eval --day 1`` in a fresh directory. Exit code 3
    (infeasible calibration) completes an operation; any other non-zero code
    fails it.
    """

    name = "cli"
    days_per_pass = 2

    def __init__(self, seed: int, work_root: Path, slots: int = 6, **kw):
        super().__init__(seed, slots=slots, **kw)
        self.work_root = work_root
        self.feasible: list[bool] = []
        self.first_digest: str | None = None

    def setup(self) -> None:
        # The workflow builds its world itself. Setup chooses the seed and
        # measures the in-memory size of one featurized snapshot.
        self.world_seed = find_world_seed(self.seed, self.n_bus, self.ac_lines)
        config = synth.SynthConfig(n_bus=self.n_bus, days=1, slots_per_day=self.slots,
                                   seed=self.world_seed)
        network, snapshots, faults, _ = synth.build_dataset(config)
        first = [f for f in faults if f.slot == 0]
        ds = features.featurize(network, snapshots[:1], first,
                                features.default_feature_spec())
        check_per_snapshot(ds, self.ac_lines)
        self.bytes_per_sample = array_nbytes(ds) / len(ds.samples)
        self.work_root.mkdir(parents=True, exist_ok=True)

    def run_pass(self, ledger: Ledger, deadline: float | None = None) -> PassResult:
        work = Path(tempfile.mkdtemp(prefix="cli-", dir=self.work_root))
        try:
            return self._workflow(ledger, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def _workflow(self, ledger: Ledger, work: Path) -> PassResult:
        data, feats = work / "data", work / "features.jsonl"
        ckpt, table = work / "checkpoint.json", work / "eval.csv"
        seed = str(self.world_seed)
        steps = [
            ("synth", ["synth", "--out", str(data), "--seed", seed, "--buses", str(self.n_bus),
                       "--days", "2", "--slots", str(self.slots)]),
            ("featurize", ["featurize", "--data", str(data), "--days", "0,1",
                           "--out", str(feats)]),
            ("train", ["train", "--features", str(feats), "--train-day", "0",
                       "--epochs", str(self.epochs), "--seed", seed, "--out", str(ckpt)]),
            ("eval", ["eval", "--features", str(feats), "--checkpoint", str(ckpt),
                      "--day", "1", "--out", str(table)]),
        ]
        n_faults = self.snapshots_per_pass * self.ac_lines
        # Each command is its own unit: a pass is long enough for the load on
        # the machine to change within it.
        times, raws, outcomes = {}, {}, {}
        for name, argv in steps:
            outcomes[name], raws[name], times[name] = self.ref.bracket(
                ledger.run, f"cli {name}", _call_cli, argv)
        wall, raw = sum(times.values()), sum(raws.values())

        disk = sum(p.stat().st_size for p in work.rglob("*") if p.is_file())
        self.disk_bytes_per_fault = disk / n_faults
        for name, outcome in outcomes.items():
            if outcome is not None:
                ledger.verify(f"check cli {name}", self._check_step, name, outcome,
                              n_faults, ckpt, table)
        train_day_samples = self.slots * self.ac_lines
        return PassResult(
            wall_s=wall, raw_wall_s=raw, faults=n_faults,
            snapshot_ms=[1000.0 * wall / self.snapshots_per_pass],
            train_sample_passes=train_day_samples * self.epochs,
            train_s=times["train"])

    def _check_step(self, name, outcome, n_faults, ckpt, table):
        code, out = outcome
        check(code in (cli.EXIT_OK, cli.EXIT_INFEASIBLE), f"exit code {code}")
        if name == "train":
            self.feasible.append(code == cli.EXIT_OK)
            self.info["calibration_feasible"] = all(self.feasible)
        elif name == "featurize":
            found = re.search(r"(\d+) samples", out)
            check(found is not None and int(found.group(1)) == n_faults,
                  f"featurize wrote {found.group(1) if found else '?'} samples, "
                  f"expected {n_faults}")
        elif name == "eval":
            self._check_eval(ckpt, table)

    def _check_eval(self, ckpt: Path, table: Path):
        with open(table, newline="") as fh:
            rows = list(csv.DictReader(fh))
        check(len(rows) == 1, f"{len(rows)} eval rows")
        row = metrics.MetricRow(**{k: float(rows[0][k])
                                   for k in ("kkd", "ryd", "ysl", "acc", "threshold")})
        check_row(row)
        self.quality = row
        this = digest(ckpt.read_bytes(), table.read_bytes())
        if self.first_digest is None:
            self.first_digest = self.scores_digest = this
        check(this == self.first_digest, "outputs differ from the first pass")


def _call_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


WORKLOADS = {w.name: w for w in (Screen, Compare, Cli)}
