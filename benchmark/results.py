"""The metrics one run reports, computed from its passes and its trace."""

from __future__ import annotations

import resource
import statistics

import summary
import tracer
import workloads

ROADMAP_BASELINE_MS = {   # ROADMAP.md "Measured baseline", for the cross-check
    "xcheck.local_subgraph_ms_per_sample": 4.45,
    "xcheck.global_stats_ms_per_snapshot": 5.9,
    "xcheck.batch64_build_ms": 2.2,
    "xcheck.batch64_forward_ms": 13.7,
    "xcheck.batch64_backward_ms": 8.9,
    "xcheck.gcn_l1_forward_ms": 6.5,
    "xcheck.gcn_l1_backward_ms": 7.1,
    "xcheck.conv_forward_ms": 6.2,
    "xcheck.conv_backward_ms": 6.8,
}


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(w: workloads.Workload, setup_s: list[float],
               passes: list[workloads.PassResult]) -> dict:
    """The end-to-end metrics; every time is at idle-machine speed."""
    complete = [p.wall_s for p in passes if p.complete]
    latencies = [ms for p in passes for ms in p.snapshot_ms]
    if not complete or not latencies:
        raise SystemExit("no pass of the workload completed")
    if w.setup_train_s:
        train_rate = w.setup_train_passes / statistics.median(w.setup_train_s)
    else:
        train_rate = sum(p.train_sample_passes for p in passes) / sum(p.train_s for p in passes)
    return {
        "setup_s": metric(statistics.median(setup_s), "s"),
        "wall_s": metric(statistics.median(complete), "s"),
        "faults_per_s": metric(sum(p.faults for p in passes) / sum(p.wall_s for p in passes),
                               "1/s"),
        "snapshot_ms_p50": metric(summary.percentile(latencies, 50), "ms"),
        "snapshot_ms_p90": metric(summary.percentile(latencies, 90), "ms"),
        "train_samples_per_s": metric(train_rate, "1/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def distribution(w: workloads.Workload, passes: list[workloads.PassResult]) -> dict:
    """Sample counts, raw pass times and the machine's slowdown, for the record."""
    n = sum(len(p.snapshot_ms) for p in passes)
    return {
        "passes": len(passes),
        "snapshots_timed": n,
        "p90_resolved": summary.tail_is_resolved(n, 90),
        "raw_wall_s": [p.raw_wall_s for p in passes],
        "reference_probes": len(w.ref.probes),
        "slowdown": w.ref.slowdown(),
    }


def per_layer(w: workloads.Workload, tr: tracer.Tracer, untraced_wall_s: float,
              traced_wall_s: float) -> dict:
    out = {}
    for name in tracer.SPAN_NAMES:
        s = tr.stats(name)
        out[f"{name}.calls"] = metric(s.calls, "count")
        out[f"{name}.total_s"] = metric(s.total_s, "s")
        out[f"{name}.self_s"] = metric(s.self_s, "s")
    local, glob = tr.stats("features.local_subgraph"), tr.stats("features.global_stats")
    xcheck = {
        "xcheck.local_subgraph_ms_per_sample":
            1000.0 * local.total_s / local.calls if local.calls else 0.0,
        "xcheck.global_stats_ms_per_snapshot":
            1000.0 * glob.total_s / glob.calls if glob.calls else 0.0,
        "xcheck.batch64_build_ms": tr.mean_ms("model.build_batch", "GraphModel@64"),
        "xcheck.batch64_forward_ms": tr.mean_ms("model.forward", "GraphModel@64"),
        "xcheck.batch64_backward_ms": tr.mean_ms("model.backward", "GraphModel@64"),
        "xcheck.gcn_l1_forward_ms": tr.mean_ms("nn.gcn_forward.l1", "@64"),
        "xcheck.gcn_l1_backward_ms": tr.mean_ms("nn.gcn_backward.l1", "@64"),
        "xcheck.conv_forward_ms": tr.mean_ms("nn.conv_maxpool_forward", "@64"),
        "xcheck.conv_backward_ms": tr.mean_ms("nn.conv_maxpool_backward", "@64"),
    }
    out.update({k: metric(v, "ms") for k, v in xcheck.items()})
    out["features.bytes_per_sample"] = metric(w.bytes_per_sample, "B")
    out["persist.disk_bytes_per_fault"] = metric(w.disk_bytes_per_fault, "B")
    out["trace.overhead_s"] = metric(traced_wall_s - untraced_wall_s, "s")
    out["quality.kkd"] = metric(w.quality.kkd if w.quality else 0.0, "%")
    out["quality.ysl"] = metric(w.quality.ysl if w.quality else 0.0, "%")
    return out
