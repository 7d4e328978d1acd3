"""Run-level evaluation: navigation accuracy, localization precision,
throughput, robustness index."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError
from .kitti import LabeledFrame
from .pipeline import ModelState, rollout
from .temporal import NavOutput

NA_THRESHOLD_DEFAULT = 0.5  # meters
FPS_BASELINE = 20.0


def metric_na(predictions: list[NavOutput], labels: list[LabeledFrame],
              threshold: float = NA_THRESHOLD_DEFAULT) -> float:
    """Fraction of frames whose waypoint deviates strictly less than threshold."""
    if not predictions or len(predictions) != len(labels):
        raise ContractError("metric_na needs equal-length non-empty inputs")
    if threshold <= 0:
        raise ContractError("threshold must be > 0")
    hits = sum(
        1 for p, lf in zip(predictions, labels)
        if float(np.linalg.norm(p.waypoint - lf.waypoint)) < threshold)
    return hits / len(predictions)


def metric_lp(predictions: list[NavOutput], labels: list[LabeledFrame]) -> float:
    """Mean 3-D Euclidean error of the predicted ego-motion translation."""
    if not predictions or len(predictions) != len(labels):
        raise ContractError("metric_lp needs equal-length non-empty inputs")
    errs = [float(np.linalg.norm(p.ego_delta - lf.ego_delta))
            for p, lf in zip(predictions, labels)]
    return float(np.mean(errs))


def metric_fps(frame_count: int, wall_seconds: float) -> float:
    if wall_seconds <= 0:
        raise ContractError("wall_seconds must be > 0")
    return frame_count / wall_seconds


def metric_ri(na_special: float, na_standard: float) -> float:
    if na_standard <= 0:
        raise ContractError("metric_ri needs na_standard > 0")
    return na_special / na_standard


@dataclass
class RunMetrics:
    na: float
    lp: float
    fps: float
    ri: float | None
    per_scenario: dict[str, tuple[float, float]] = field(default_factory=dict)
    per_scenario_ri: dict[str, float] = field(default_factory=dict)
    mean_weights: dict[str, tuple[float, float]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "na": self.na,
            "lp": self.lp,
            "fps": self.fps,
            "ri": self.ri,
            "per_scenario": {k: {"na": v[0], "lp": v[1]} for k, v in self.per_scenario.items()},
            "per_scenario_ri": dict(self.per_scenario_ri),
            "mean_weights": {k: {"w_rgb": v[0], "w_lidar": v[1]}
                             for k, v in self.mean_weights.items()},
        }


def evaluate_run(dataset: list[tuple[str, list[LabeledFrame]]], model: ModelState,
                 na_threshold: float = NA_THRESHOLD_DEFAULT) -> RunMetrics:
    """Eval-mode pipeline over tagged sequences; aggregates the four metrics.

    FPS is measured over pipeline_step wall time only; RI relates each
    non-standard scenario's NA to the pooled standard NA.
    """
    if not any(tag == "standard" for tag, _ in dataset):
        raise ConfigError("evaluate_run needs at least one 'standard' sequence")
    by_scenario: dict[str, dict] = {}
    all_hits_pred: list[NavOutput] = []
    all_labels: list[LabeledFrame] = []
    total_frames = 0
    total_time = 0.0
    for tag, frames in dataset:
        bucket = by_scenario.setdefault(tag, {"preds": [], "labels": [], "weights": []})
        for lf, (res, seconds) in zip(frames, rollout(model, [lf.frame for lf in frames])):
            total_time += seconds
            bucket["preds"].append(res.nav)
            bucket["labels"].append(lf)
            bucket["weights"].append((res.fused.weights.w_rgb, res.fused.weights.w_lidar))
            all_hits_pred.append(res.nav)
            all_labels.append(lf)
            total_frames += 1
    per_scenario = {}
    mean_weights = {}
    for tag, bucket in by_scenario.items():
        per_scenario[tag] = (metric_na(bucket["preds"], bucket["labels"], na_threshold),
                             metric_lp(bucket["preds"], bucket["labels"]))
        ws = np.asarray(bucket["weights"])
        mean_weights[tag] = (float(ws[:, 0].mean()), float(ws[:, 1].mean()))
    na_std = per_scenario["standard"][0]
    per_scenario_ri = {}
    for tag in per_scenario:
        if tag != "standard" and na_std > 0:
            per_scenario_ri[tag] = metric_ri(per_scenario[tag][0], na_std)
    ri = float(np.mean(list(per_scenario_ri.values()))) if per_scenario_ri else None
    return RunMetrics(
        na=metric_na(all_hits_pred, all_labels, na_threshold),
        lp=metric_lp(all_hits_pred, all_labels),
        fps=metric_fps(total_frames, total_time) if total_time > 0 else float("inf"),
        ri=ri,
        per_scenario=per_scenario,
        per_scenario_ri=per_scenario_ri,
        mean_weights=mean_weights,
    )
