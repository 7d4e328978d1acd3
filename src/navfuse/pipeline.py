"""End-to-end per-frame pipeline: geometry -> backbones -> fusion -> temporal
modeling -> navigation decision."""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from . import fusion as F
from . import geometry as G
from . import temporal as TM
from .backbones import (PointBranchConfig, RgbBranchConfig, init_point_params,
                        init_rgb_params, point_forward, rgb_forward)
from .errors import ConfigError
from .kitti import Frame, LabeledFrame
from .params import ParamRegistry, make_rng
from .tensor import Tensor, no_grad


@dataclass
class PipelineConfig:
    rgb: RgbBranchConfig = field(default_factory=RgbBranchConfig)
    point: PointBranchConfig = field(default_factory=PointBranchConfig)
    fusion_dim: int = 64
    hidden_dim: int = 64
    window: int = 4
    max_step: float = 5.0
    lambda_ego: float = 1.0
    beta: float = 1.0
    tau_img: float = F.TAU_IMG_DEFAULT
    n_ref: int = F.N_REF_DEFAULT
    z_near: float = G.Z_NEAR_DEFAULT
    depth_max: float = G.DEPTH_MAX_DEFAULT
    dropout_rate: float = 0.1
    use_attention: bool = True
    use_temporal: bool = True
    modality: str = "both"  # rgb | lidar | both

    def validate(self):
        self.rgb.validate()
        self.point.validate()
        if self.modality not in ("rgb", "lidar", "both"):
            raise ConfigError(f"unknown modality {self.modality!r}")
        if not (np.isfinite(self.beta) and self.beta >= 0):
            raise ConfigError("beta must be finite and >= 0")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ConfigError("dropout_rate must be in [0, 1)")
        if self.window < 1 or self.n_ref < 1:
            raise ConfigError("window and n_ref must be >= 1")
        for name in ("fusion_dim", "hidden_dim", "max_step", "depth_max", "tau_img"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")
        return self


@dataclass
class ModelState:
    params: ParamRegistry
    cfg: PipelineConfig
    # always empty: perfbench/workloads.py:train_unit copies and restores it
    buffers: dict[str, np.ndarray] = field(default_factory=dict)


def init_pipeline(cfg: PipelineConfig, seed: int = 0) -> ModelState:
    """Build all learnable parameters of one model."""
    cfg.validate()
    rng = make_rng(seed)
    params = ParamRegistry()
    init_rgb_params(cfg.rgb, params, rng)
    init_point_params(cfg.point, params, rng)
    F.init_fusion_params(params, rng, cfg.rgb.out_dim, cfg.fusion_dim)
    TM.init_recurrent_params(params, rng, 2 * cfg.fusion_dim, cfg.hidden_dim)
    TM.init_temporal_attention_params(params, rng, cfg.hidden_dim, cfg.fusion_dim)
    TM.init_decision_params(params, rng, cfg.hidden_dim + 2 * cfg.fusion_dim, cfg.hidden_dim)
    return ModelState(params=params, cfg=cfg)


@dataclass
class StepResult:
    nav: TM.NavOutput
    fused: F.FusedFeature
    state: TM.TemporalState
    loss: Tensor | None = None


def initial_state(cfg: PipelineConfig) -> TM.TemporalState:
    return TM.TemporalState(hidden=Tensor(np.zeros(cfg.hidden_dim)))


def pipeline_step(frame: Frame, state: TM.TemporalState, model: ModelState,
                  mode: str = "eval", rng: np.random.Generator | None = None,
                  label: LabeledFrame | None = None,
                  timings: dict[str, float] | None = None) -> StepResult:
    """One full perception-to-decision step; returns output, fused feature,
    the updated temporal state, and (with a label) the loss.

    A step records a tape only when it is given a label: without one there
    is no loss to differentiate, so it runs under tensor.no_grad() and the
    state it returns holds no graph of earlier frames.

    With a timings dict, per-stage wall time accumulates under the keys
    'backbones', 'fusion', 'temporal'.
    """
    with (contextlib.nullcontext() if label is not None else no_grad()):
        cfg = model.cfg
        params = model.params
        w, h = frame.image.width, frame.image.height

        t0 = time.perf_counter() if timings is not None else 0.0
        cam_cloud = G.lidar_to_camera(frame.cloud, frame.calib)
        u, v, depth, in_frustum = G.project_points(cam_cloud.xyz, frame.calib.P, w, h,
                                                   cfg.z_near)
        sparse_depth = G.render_sparse_depth_arrays(u, v, depth, w, h,
                                                   depth_max=cfg.depth_max)

        use_rgb = cfg.modality in ("rgb", "both")
        use_lidar = cfg.modality in ("lidar", "both") and len(cam_cloud) > 0

        if use_rgb:
            r_rgb = F.reliability_image(frame.image, cfg.tau_img)
            rgb_feat = rgb_forward(frame.image, sparse_depth, cfg.rgb, params,
                                   use_attention=cfg.use_attention)
        else:
            r_rgb = F.REL_FLOOR
            rgb_feat = Tensor(np.zeros(cfg.rgb.out_dim))
        if use_lidar:
            r_lidar = F.reliability_cloud(len(in_frustum), cfg.n_ref)
            pt_feat = point_forward(cam_cloud, cfg.point, params, rng=rng)
        else:
            r_lidar = F.REL_FLOOR
            pt_feat = Tensor(np.zeros(cfg.point.out_dim))

        if timings is not None:
            t1 = time.perf_counter()
            timings["backbones"] = timings.get("backbones", 0.0) + (t1 - t0)
            t0 = t1

        rel = F.ReliabilityScores(r_rgb=r_rgb, r_lidar=r_lidar)
        f_rgb = F.semantic_map(rgb_feat, params, "rgb")
        f_lidar = F.semantic_map(pt_feat, params, "lidar")
        weights = F.fusion_weights(f_rgb, f_lidar, rel, params, cfg.beta)
        fused = F.fuse(f_rgb, f_lidar, weights, rel)

        if timings is not None:
            t1 = time.perf_counter()
            timings["fusion"] = timings.get("fusion", 0.0) + (t1 - t0)
            t0 = t1

        if cfg.use_temporal:
            delta = TM.temporal_delta(fused.vector, state.prev_fused)
            hidden = TM.recurrent_step(delta, state.hidden, params)
            window = (state.window + [fused.vector])[-cfg.window:]
        else:
            hidden = Tensor(np.zeros(cfg.hidden_dim))
            window = []
        context = (TM.temporal_attention(hidden, window, params) if cfg.use_temporal
                   else Tensor(np.zeros(cfg.fusion_dim)))

        nav, out5 = TM.decision_forward(
            hidden, context, fused.vector, params, mode=mode, rng=rng,
            dropout_rate=cfg.dropout_rate, max_step=cfg.max_step)

        loss = None
        if label is not None:
            loss = TM.nav_loss(out5, label.waypoint, label.ego_delta, cfg.lambda_ego)

        if timings is not None:
            timings["temporal"] = timings.get("temporal", 0.0) + (time.perf_counter() - t0)

        new_state = TM.TemporalState(hidden=hidden, window=window, prev_fused=fused.vector)
        return StepResult(nav=nav, fused=fused, state=new_state, loss=loss)


def rollout(model: ModelState, frames: Iterable[Frame],
            timings: dict[str, float] | None = None) -> Iterator[tuple[StepResult, float]]:
    """Run the pipeline in eval mode over one frame stream from a fresh state,
    carrying the state from frame to frame; yields each step's result and
    its wall seconds. timings accumulates per-stage time as in pipeline_step.

    Every step gets its own make_rng(0): a cloud above the point budget is
    subsampled from it, so a frame's subsample does not depend on its
    position in the stream.
    """
    state = initial_state(model.cfg)
    for frame in frames:
        t0 = time.perf_counter()
        res = pipeline_step(frame, state, model, mode="eval", rng=make_rng(0),
                            timings=timings)
        yield res, time.perf_counter() - t0
        state = res.state
