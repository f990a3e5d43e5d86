"""Call-boundary tracing for the benchmark's traced run.

The tracer wraps public functions of the ``gridstab`` modules from outside
the package. Per span name it keeps the number of calls, the total time and
the self time: a span's duration minus the time its child spans cover. The
program is single-threaded, so spans nest strictly and the children's time is
the sum of their durations.

A function that another module bound with ``from ... import`` is reached
through that module's own name, so installing a target patches every
``gridstab`` module attribute that holds the same function object, and
restoring puts back each one.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0

    def add(self, total: float, self_time: float) -> None:
        self.calls += 1
        self.total_s += total
        self.self_s += self_time


@dataclass(frozen=True)
class Target:
    """One function to time.

    ``owner`` is the module or class that defines ``attr``. ``suffix`` maps
    ``(args, kwargs, result)`` of a call to a suffix of the span name, and
    ``detail`` maps them to a key, such as a batch size, under which the
    call is also counted. Neither is asked about a call that raised.
    """

    owner: object
    attr: str
    name: str
    suffix: Callable | None = None
    detail: Callable | None = None


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: dict[str, SpanStats] = {}
        self.detailed: dict[tuple[str, str], SpanStats] = {}
        self._child_time: list[float] = []

    def wrap(self, fn: Callable, target: Target) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._child_time.append(0.0)
            start = self.clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                total = self.clock() - start
                children = self._child_time.pop()
                if self._child_time:
                    self._child_time[-1] += total
                self._record(target, args, kwargs, result, total, total - children)

        return traced

    def _record(self, target, args, kwargs, result, total, self_time):
        name = target.name
        if target.suffix is not None and result is not None:
            name = f"{name}.{target.suffix(args, kwargs, result)}"
        self.spans.setdefault(name, SpanStats()).add(total, self_time)
        if target.detail is not None and result is not None:
            key = (name, target.detail(args, kwargs, result))
            self.detailed.setdefault(key, SpanStats()).add(total, self_time)

    @contextmanager
    def installed(self, targets):
        """Wrap every target for the duration of the block, then restore."""
        patches: list[tuple[object, str, object]] = []
        try:
            for target in targets:
                original = vars(target.owner)[target.attr]
                traced = self.wrap(original, target)
                for owner in _owners_of(target.owner):
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            patches.append((owner, attr, value))
                            setattr(owner, attr, traced)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def stats(self, name: str) -> SpanStats:
        return self.spans.get(name, SpanStats())

    def mean_ms(self, name: str, detail: str) -> float:
        """Mean duration in ms of the span's calls under ``detail``; 0 when none."""
        s = self.detailed.get((name, detail))
        return 1000.0 * s.total_s / s.calls if s and s.calls else 0.0


def _owners_of(owner) -> list:
    """Where a target's function may be bound: its class, or every loaded
    module of its top-level package."""
    if isinstance(owner, type):
        return [owner]
    root = owner.__name__.split(".")[0]
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == root or name.startswith(root + "."))]


# ------------------------------------------------------------ gridstab spans

SPAN_NAMES = (
    "synth.build_dataset",
    "report.prepare_day_pair",
    "features.featurize",
    "features.local_subgraph",
    "features.global_stats",
    "model.fit_scalers",
    "model.build_batch",
    "model.forward",
    "model.backward",
    "model.predict",
    "nn.normalize_adjacency",
    "nn.gcn_forward.l1",
    "nn.gcn_forward.l23",
    "nn.gcn_backward.l1",
    "nn.gcn_backward.l23",
    "nn.conv_maxpool_forward",
    "nn.conv_maxpool_backward",
    "nn.dense_forward",
    "nn.dense_backward",
    "nn.embedding_forward",
    "nn.embedding_backward",
    "nn.bce_loss",
    "nn.adam_step",
    "metrics.calibrate_threshold",
    "metrics.compute_metrics",
    "baselines.svm_train_expanded",
    "report.run_svm",
    "report.run_prev_day",
    "persist.save_features",
    "persist.load_features",
    "persist.save_snapshots",
    "persist.load_snapshots",
    "persist.save_checkpoint",
    "persist.load_checkpoint",
    "cli.synth",
    "cli.featurize",
    "cli.train",
    "cli.eval",
)


def gridstab_targets() -> list[Target]:
    """The spans of SPAN_NAMES, as wrappers on gridstab's public functions."""
    from gridstab import (
        baselines, cli, features, metrics, model, nn, persist, report, synth,
    )

    # Layer 1 is the only GCN layer whose input is a raw node-feature row.
    def gcn_forward_layer(args, kwargs, result):
        w = args[2] if len(args) > 2 else kwargs["w"]
        return "l1" if w.shape[0] == features.NODE_FEATURES else "l23"

    def gcn_backward_layer(args, kwargs, result):
        return "l1" if result[1].shape[0] == features.NODE_FEATURES else "l23"

    def cli_command(args, kwargs, result):
        argv = args[0] if args else kwargs.get("argv")
        return argv[0] if argv else "none"

    # Batch-size keys: "@B" for layers, "<variant>@B" for model methods.
    def leading_dim(args, kwargs, result):
        return f"@{result[0].shape[0]}"

    def variant_of(model_self) -> str:
        return getattr(getattr(model_self, "variant", None), "name", "?")

    def n_indices(args, kwargs, result):
        indices = args[2] if len(args) > 2 else kwargs["indices"]
        return f"{variant_of(args[0])}@{len(indices)}"

    def n_scores(args, kwargs, result):
        return f"{variant_of(args[0])}@{len(result[0])}"

    def n_grads(args, kwargs, result):
        grad_y = args[3] if len(args) > 3 else kwargs["grad_y"]
        return f"{variant_of(args[0])}@{len(grad_y)}"

    cls = model.ScreeningModel
    targets = [
        Target(synth, "build_dataset", "synth.build_dataset"),
        Target(report, "prepare_day_pair", "report.prepare_day_pair"),
        Target(features, "featurize", "features.featurize"),
        Target(features, "local_subgraph", "features.local_subgraph"),
        Target(features, "global_stats", "features.global_stats"),
        Target(cls, "fit_scalers", "model.fit_scalers"),
        Target(cls, "build_batch", "model.build_batch", detail=n_indices),
        Target(cls, "forward", "model.forward", detail=n_scores),
        Target(cls, "backward", "model.backward", detail=n_grads),
        Target(cls, "predict", "model.predict"),
        Target(nn, "normalize_adjacency", "nn.normalize_adjacency"),
        Target(nn, "gcn_forward", "nn.gcn_forward", suffix=gcn_forward_layer,
               detail=leading_dim),
        Target(nn, "gcn_backward", "nn.gcn_backward", suffix=gcn_backward_layer,
               detail=leading_dim),
        Target(nn, "conv_maxpool_forward", "nn.conv_maxpool_forward", detail=leading_dim),
        Target(nn, "conv_maxpool_backward", "nn.conv_maxpool_backward", detail=leading_dim),
    ]
    for attr in ("dense_forward", "dense_backward", "embedding_forward",
                 "embedding_backward", "bce_loss", "adam_step"):
        targets.append(Target(nn, attr, f"nn.{attr}"))
    targets += [
        Target(metrics, "calibrate_threshold", "metrics.calibrate_threshold"),
        Target(metrics, "compute_metrics", "metrics.compute_metrics"),
        Target(baselines, "svm_train_expanded", "baselines.svm_train_expanded"),
        Target(report, "run_svm", "report.run_svm"),
        Target(report, "run_prev_day", "report.run_prev_day"),
    ]
    for attr in ("save_features", "load_features", "save_snapshots",
                 "load_snapshots", "save_checkpoint", "load_checkpoint"):
        targets.append(Target(persist, attr, f"persist.{attr}"))
    targets.append(Target(cli, "main", "cli", suffix=cli_command))
    return targets
