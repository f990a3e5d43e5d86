"""gridstab benchmark: one workload, one seed, one run.

    python3 benchmark/run.py --workload screen --seed 1 --seconds 30 --trace 0

Run from the repository root. With ``--trace 0`` the last line of standard
output is a JSON object holding the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of a separate traced run. The full record of the
run, including the environment and output digests, goes to
``benchmark/out/BENCH_<workload>.json``. See benchmark/README.md.
"""

import os

# Pinned before numpy is imported, so that BLAS starts one thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import results  # noqa: E402
import summary  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
OUT_DIR = HERE / "out"


def make_workload(name: str, seed: int) -> workloads.Workload:
    cls = workloads.WORKLOADS[name]
    if cls is workloads.Cli:
        return cls(seed, OUT_DIR / "work")
    return cls(seed)


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    w = make_workload(name, seed)
    ledger = workloads.Ledger()
    setups = [w.timed_setup() for _ in range(1 if trace else SETUP_REPEATS)]
    setup_s = [scaled for scaled, _ in setups]
    passes = w.measure(seconds, ledger)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "setup_s": setup_s,
        "raw_setup_s": [raw for _, raw in setups],
        "passes": [vars(p) | {"snapshot_ms": len(p.snapshot_ms)} for p in passes],
        "distribution": results.distribution(w, passes),
        "metrics": results.end_to_end(w, setup_s, passes),
    }
    result_metrics = record["metrics"]
    if trace:
        untraced = statistics.median(p.wall_s for p in passes if p.complete)
        tr = tracer.Tracer()
        with tr.installed(tracer.gridstab_targets()):
            w.setup()
            traced = w.run_pass(ledger)
        result_metrics = results.per_layer(w, tr, untraced, traced.wall_s)
        record["per_layer"] = result_metrics
        record["spans_by_batch"] = {f"{k[0]} {k[1]}": vars(v) for k, v in tr.detailed.items()}
        record["roadmap_baseline_ms"] = results.ROADMAP_BASELINE_MS
    record.update({
        "world": w.config(),
        "quality": vars(w.quality) if w.quality else None,
        "scores_digest": w.scores_digest,
        "info": w.info,
        "attempted": ledger.attempted, "failed": ledger.failed,
        "error_rate": ledger.error_rate, "errors": ledger.errors[:20],
    })
    result = {
        "correct": ledger.failed == 0 and w.quality is not None,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": result_metrics,
    }
    return record, result


def parse_args(argv=None):
    def non_negative(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("seed must be >= 0")
        return value

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=non_negative, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    record, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    record["environment"] = summary.environment(ROOT, THREAD_VARS)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"BENCH_{args.workload}.json").write_text(json.dumps(record, indent=1) + "\n")
    for key in ("workload", "seed", "world", "quality", "scores_digest", "info",
                "distribution", "error_rate", "errors"):
        print(f"# {key}: {json.dumps(record[key])}")
    print(f"# environment: {json.dumps(record['environment'])}")
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
