"""Span tracer for the traced benchmark run.

The tracer wraps navfuse's public functions at the module attribute through
which their callers look them up (``pipeline.py`` calls ``G.project_points``,
``fusion.py`` calls its own imported ``project_points``), so nothing inside
``src/navfuse`` records anything. Spans stay in memory until the run ends.

A span is ``[name, start, end, parent, frame]``: ``parent`` is the index of
the enclosing span (-1 for a root) and ``frame`` the id of the enclosing
``pipeline_step`` call (-1 outside a frame).
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter

# (module, attribute, span name). A function looked up through two modules
# is wrapped at both names under one span name.
SPANS = (
    ("navfuse.pipeline", "pipeline_step", "pipeline.pipeline_step"),
    ("navfuse.train", "pipeline_step", "pipeline.pipeline_step"),
    ("navfuse.pipeline", "init_pipeline", "pipeline.init_pipeline"),
    ("navfuse.geometry", "lidar_to_camera", "geometry.lidar_to_camera"),
    ("navfuse.geometry", "project_points", "geometry.project_points"),
    ("navfuse.fusion", "project_points", "geometry.project_points"),
    ("navfuse.geometry", "render_sparse_depth_arrays", "geometry.render_sparse_depth"),
    ("navfuse.fusion", "reliability_image", "fusion.reliability_image"),
    ("navfuse.fusion", "reliability_cloud", "fusion.reliability_cloud"),
    ("navfuse.fusion", "semantic_map", "fusion.semantic_map"),
    ("navfuse.fusion", "fusion_weights", "fusion.gate"),
    ("navfuse.fusion", "fuse", "fusion.fuse"),
    ("navfuse.pipeline", "rgb_forward", "backbones.rgb_forward"),
    ("navfuse.pipeline", "point_forward", "backbones.point_forward"),
    ("navfuse.backbones", "attention_block", "backbones.attention_block"),
    ("navfuse.backbones", "dynamic_sample_count", "backbones.dynamic_sample_count"),
    ("navfuse.backbones", "fps_sample", "backbones.fps_sample"),
    ("navfuse.backbones", "group_and_encode", "backbones.group_and_encode"),
    ("navfuse.tensor", "conv2d", "tensor.conv2d"),
    ("navfuse.tensor", "batch_norm", "tensor.batch_norm"),
    ("navfuse.temporal", "temporal_delta", "temporal.temporal_delta"),
    ("navfuse.temporal", "recurrent_step", "temporal.recurrent_step"),
    ("navfuse.temporal", "temporal_attention", "temporal.temporal_attention"),
    ("navfuse.temporal", "decision_forward", "temporal.decision_forward"),
    ("navfuse.temporal", "nav_loss", "temporal.nav_loss"),
    ("navfuse.train", "train", "train.train"),
    ("navfuse.train", "validation_loss", "train.validation_loss"),
    ("navfuse.train", "augment_frame", "kitti.augment_frame"),
    ("navfuse.train", "clip_global_norm", "optim.clip_global_norm"),
    ("navfuse.train", "adam_step", "optim.adam_step"),
    ("navfuse.cli", "main", "cli.synth"),
    ("navfuse.simulate", "render_frame", "simulate.render_frame"),
    ("navfuse.simulate", "scan_frame", "simulate.scan_frame"),
    ("navfuse.simulate", "degrade_image", "simulate.degrade_image"),
    ("navfuse.simulate", "degrade_cloud", "simulate.degrade_cloud"),
    ("navfuse.kitti", "load_sequences", "kitti.load_sequences"),
    ("navfuse.kitti", "parse_velodyne_bin", "kitti.parse_velodyne_bin"),
    ("navfuse.kitti", "load_ppm", "kitti.load_ppm"),
)
FRAME_ROOT = "pipeline.pipeline_step"

# Tape ops in navfuse.tensor that are counted but not timed: there are a few
# hundred calls per frame, and a span each would cost more than most of them.
TENSOR_OPS = ("add", "mul", "powc", "relu", "tanh", "sigmoid", "exp", "log", "tsum",
              "tmean", "reshape", "transpose", "take", "concat", "matmul", "softmax",
              "dropout", "conv2d", "batch_norm")


class Tracer:
    """Collects spans and op counts while installed; restores every wrapped
    attribute on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.op_calls: Counter = Counter()
        self.t0 = time.perf_counter()
        self._stack: list[int] = []
        self._frame = -1
        self._frames_seen = 0
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        # count first so that conv2d and batch_norm are counted inside their span
        for op in TENSOR_OPS:
            self._count(importlib.import_module("navfuse.tensor"), op)
        for module, attr, name in SPANS:
            self._span(importlib.import_module(module), attr, name)
        tensor_cls = importlib.import_module("navfuse.tensor").Tensor
        self._span(tensor_cls, "backward", "tensor.backward")
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _span(self, owner, attr: str, name: str):
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack
        frame_root = name == FRAME_ROOT

        def traced(*args, **kwargs):
            outer_frame = self._frame
            if frame_root:
                self._frames_seen += 1
                self._frame = self._frames_seen
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self._frame]
            spans.append(rec)
            stack.append(idx)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                self._frame = outer_frame

        self._patched.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def _count(self, owner, attr: str):
        fn = getattr(owner, attr)
        calls = self.op_calls

        def counted(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)

        self._patched.append((owner, attr, fn))
        setattr(owner, attr, counted)

    def write(self, path):
        """Write every span as one JSON line, times in seconds from tracer start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, frame in self.spans:
                fh.write(json.dumps({"name": name, "start": start - self.t0,
                                     "end": end - self.t0, "parent": parent,
                                     "frame": frame}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another on one thread, so the time
    they cover is the sum of their durations; ``check_tree`` verifies that.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, covered)]


def check_tree(spans: list[list], tol: float = 1e-9) -> list[str]:
    """Problems with the span tree: children outside their parent, siblings
    that overlap, or a negative self time. Empty when well formed."""
    problems = []
    last_child_end: dict[int, float] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} {name} ends before it starts")
        if parent >= 0:
            _, p_start, p_end, _, _ = spans[parent]
            if parent >= i or start < p_start or end > p_end:
                problems.append(f"span {i} {name} lies outside its parent {parent}")
            if start < last_child_end.get(parent, p_start):
                problems.append(f"span {i} {name} overlaps an earlier sibling")
            last_child_end[parent] = end
    for i, s in enumerate(self_times(spans)):
        if s < -tol:
            problems.append(f"span {i} {spans[i][0]} has negative self time {s}")
    return problems
