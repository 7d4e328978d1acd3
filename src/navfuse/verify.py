"""Gradient verification suite: per-op finite-difference checks plus the full
unrolled pipeline at desk shapes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .backbones import PointBranchConfig, RgbBranchConfig
from .gradcheck import GradCheckReport, grad_check
from .params import ParamRegistry, make_rng
from .pipeline import PipelineConfig, init_pipeline
from .simulate import CameraConfig, LidarConfig, World, _default_boxes, make_trajectory, synth_sequence
from .train import sequence_loss


@dataclass
class SuiteEntry:
    name: str
    max_rel_err: float
    passed: bool


OP_CLOSURES = [
    ("add", lambda p: T.tsum(T.mul(T.add(p["a2"], p["row"]), p["a2"]))),
    ("mul", lambda p: T.tsum(T.mul(p["a2"], p["a2"]))),
    ("powc", lambda p: T.tsum(T.powc(T.mul(p["vec"], p["vec"]), 1.5))),
    ("relu", lambda p: T.tsum(T.relu(p["vec"]))),
    ("tanh", lambda p: T.tsum(T.tanh(p["vec"]))),
    ("sigmoid", lambda p: T.tsum(T.sigmoid(p["vec"]))),
    ("exp", lambda p: T.tsum(T.exp(p["vec"]))),
    ("log", lambda p: T.tsum(T.log(T.add(T.mul(p["vec"], p["vec"]), 1.0)))),
    ("sum", lambda p: T.tsum(p["a2"]) * 2.0),
    ("mean", lambda p: T.tmean(T.mul(p["a2"], p["a2"]))),
    ("reshape", lambda p: T.tsum(T.tanh(T.reshape(p["a2"], (-1,))))),
    ("transpose", lambda p: T.tsum(T.matmul(p["a2"].T, p["a2"]))),
    ("take", lambda p: T.tsum(T.mul(p["vec"][1:3], p["vec"][0:2]))),
    ("concat", lambda p: T.tsum(T.tanh(T.concat([p["vec"], p["vec"]], axis=0)))),
    ("matmul", lambda p: T.tsum(T.tanh(T.matmul(p["a2"], p["b2"])))),
    ("softmax", lambda p: T.tsum(T.mul(T.softmax(p["vec"]), p["vec"]))),
    ("conv2d", lambda p: T.tsum(T.tanh(T.conv2d(p["img"], p["ker"], stride=1, pad=1)))),
    ("batch_norm", lambda p: T.tsum(T.tanh(T.batch_norm(
        p["a2"], p["gamma"], p["beta"], np.zeros(4), np.ones(4), training=True)))),
    ("dropout", lambda p: T.tsum(T.mul(
        T.dropout(p["vec"], 0.5, make_rng(11), training=True), p["vec"]))),
]


def run_op_checks(seeds=(0, 1, 2), h: float = 1e-6, tol: float = 1e-4) -> list[SuiteEntry]:
    """Finite-difference check for every differentiable tensor op."""
    results = []
    for name, fn in OP_CLOSURES:
        worst = 0.0
        ok = True
        for seed in seeds:
            rng = make_rng(seed)
            params = ParamRegistry()
            tensors = {
                "a2": params.register("a2", rng.normal(size=(3 + seed, 4))),
                "b2": params.register("b2", rng.normal(size=(4, 2 + seed))),
                "row": params.register("row", rng.normal(size=(4,))),
                "vec": params.register("vec", rng.normal(size=(4 + seed,))),
                "img": params.register("img", rng.normal(size=(2, 5 + seed, 6))),
                "ker": params.register("ker", rng.normal(size=(3, 2, 3, 3))),
                "gamma": params.register("gamma", rng.normal(size=(4,))),
                "beta": params.register("beta", rng.normal(size=(4,))),
            }
            rep = grad_check(lambda: fn(tensors), params, h=h, tol=tol)
            worst = max(worst, rep.max_rel_err)
            ok = ok and rep.passed
        results.append(SuiteEntry(name=name, max_rel_err=worst, passed=ok))
    return results


def small_pipeline_config() -> PipelineConfig:
    """A reduced-size pipeline for gradient checking and fast training tests."""
    return PipelineConfig(
        rgb=RgbBranchConfig(stage_channels=[4, 8], strides=[2, 2],
                            attn_heads=2, attn_dim=16, out_dim=16),
        point=PointBranchConfig(input_budget=64, centroids_min=8,
                                centroids_max=16, radius=3.0, group_cap=8,
                                mlp_dims=[8, 16], out_dim=16),
        fusion_dim=16, hidden_dim=16, window=4,
    ).validate()


def small_synth_frames(n_frames: int = 5, seed: int = 0, width: int = 16,
                       height: int = 16):
    """A tiny ray-cast sequence matched to small_pipeline_config."""
    world = World(boxes=_default_boxes(moving=False),
                  trajectory=make_trajectory(n_frames, speed=0.5, yaw_rate_deg=1.0))
    cam = CameraConfig(width=width, height=height, focal=float(width))
    lidar = LidarConfig(n_azimuth=16, n_elevation=8)
    return synth_sequence(world, n_frames, cam, lidar, rng=make_rng(seed))


def run_pipeline_check(seed: int = 0, n_frames: int = 4, h: float = 1e-6,
                       tol: float = 1e-4,
                       entries_per_param: int = 2) -> GradCheckReport:
    """Gradient check of the fully unrolled pipeline loss over n_frames.

    Eval mode keeps the closure deterministic (no dropout, fixed BN stats),
    and every evaluation gets a fresh make_rng(0), as validation does; a
    seeded subset of entries per parameter keeps the runtime bounded.
    """
    model = init_pipeline(small_pipeline_config(), seed=seed)
    frames = small_synth_frames(n_frames + 1, seed=seed)[:n_frames]
    return grad_check(lambda: sequence_loss(frames, model, "eval", make_rng(0), None),
                      model.params, h=h, tol=tol,
                      entries_per_param=entries_per_param, rng=make_rng(seed + 1))
