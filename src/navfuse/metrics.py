"""Run-level evaluation: navigation accuracy, localization precision,
throughput, robustness index."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError
from .kitti import LabeledFrame
from .pipeline import ModelState, rollout

NA_THRESHOLD_DEFAULT = 0.5  # meters
FPS_BASELINE = 20.0


def metric_na(wp_err: np.ndarray, threshold: float = NA_THRESHOLD_DEFAULT) -> float:
    """Fraction of frames whose waypoint error is strictly below threshold."""
    if len(wp_err) == 0:
        raise ContractError("metric_na needs a non-empty error array")
    if threshold <= 0:
        raise ContractError("threshold must be > 0")
    return int(np.count_nonzero(wp_err < threshold)) / len(wp_err)


def metric_lp(ego_err: np.ndarray) -> float:
    """Mean 3-D Euclidean error of the predicted ego-motion translation."""
    if len(ego_err) == 0:
        raise ContractError("metric_lp needs a non-empty error array")
    return float(np.mean(ego_err))


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
    """Aggregate metrics and one row per scenario:
    {tag: {"na", "lp", "ri", "w_rgb", "w_lidar"}}, in dataset order."""
    na: float
    lp: float
    fps: float
    ri: float | None
    scenarios: dict[str, dict]


def evaluate_run(dataset: list[tuple[str, list[LabeledFrame]]], model: ModelState,
                 na_threshold: float = NA_THRESHOLD_DEFAULT) -> RunMetrics:
    """Eval-mode pipeline over tagged sequences; aggregates the four metrics.

    Every scenario row and the aggregate derive from one per-frame table of
    scenario, waypoint error, ego error and fusion weights. FPS is measured
    over pipeline_step wall time only; RI relates each non-standard
    scenario's NA to the pooled standard NA.
    """
    if not any(tag == "standard" for tag, _ in dataset):
        raise ConfigError("evaluate_run needs at least one 'standard' sequence")
    tags, wp_err, ego_err, weights = [], [], [], []
    total_time = 0.0
    for tag, frames in dataset:
        for lf, (res, seconds) in zip(frames, rollout(model, [lf.frame for lf in frames])):
            total_time += seconds
            tags.append(tag)
            wp_err.append(float(np.linalg.norm(res.nav.waypoint - lf.waypoint)))
            ego_err.append(float(np.linalg.norm(res.nav.ego_delta - lf.ego_delta)))
            weights.append((res.fused.weights.w_rgb, res.fused.weights.w_lidar))
    tags, wp_err, ego_err, weights = map(np.asarray, (tags, wp_err, ego_err, weights))
    scenarios = {}
    for tag in dict.fromkeys(tag for tag, _ in dataset):
        sel = tags == tag
        scenarios[tag] = {"na": metric_na(wp_err[sel], na_threshold),
                          "lp": metric_lp(ego_err[sel]),
                          "w_rgb": float(weights[sel, 0].mean()),
                          "w_lidar": float(weights[sel, 1].mean())}
    na_std = scenarios["standard"]["na"]
    for tag, row in scenarios.items():
        row["ri"] = (metric_ri(row["na"], na_std) if tag != "standard" and na_std > 0
                     else None)
    ris = [row["ri"] for row in scenarios.values() if row["ri"] is not None]
    return RunMetrics(
        na=metric_na(wp_err, na_threshold),
        lp=metric_lp(ego_err),
        fps=metric_fps(len(tags), total_time) if total_time > 0 else float("inf"),
        ri=float(np.mean(ris)) if ris else None,
        scenarios=scenarios,
    )
