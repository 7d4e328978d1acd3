"""Gradient verification suite: per-op finite-difference checks plus the full
unrolled pipeline at desk shapes."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .backbones import PointBranchConfig, RgbBranchConfig
from .gradcheck import GradCheckReport, grad_check
from .params import ParamRegistry, make_rng
from .pipeline import PipelineConfig, init_pipeline
from .simulate import CameraConfig, LidarConfig, preset_scenario, synth_sequence
from .train import sequence_loss

# unrolled pipeline length and probed entries per parameter of the pipeline check
PIPELINE_FRAMES = 4
ENTRIES_PER_PARAM = 2


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
    ("matmul_vec", lambda p: T.tsum(T.tanh(T.matmul(p["row"], p["b2"])))),
    ("linear", lambda p: T.tsum(T.tanh(T.linear(p["a2"], p["b2"], p["bias"])))),
    ("linear_vec", lambda p: T.tsum(T.tanh(T.linear(p["row"], p["b2"], p["bias"])))),
    # both pooling shapes of the point branch on img's 10-14 rows of 6: groups
    # of uneven size (1, 3 and the rest) and one global segment
    ("segment_pool", lambda p: T.add(
        T.tsum(T.tanh(T.segment_pool(T.reshape(p["img"], (-1, 6)), T.reshape(p["wts"], (-1,)),
                                     np.repeat([0, 1, 2], [1, 3, p["wts"].data.size - 4])))),
        T.tsum(T.tanh(T.segment_pool(T.reshape(p["img"], (-1, 6)), T.reshape(p["wts"], (-1,)),
                                     np.zeros(p["wts"].data.size, dtype=np.intp)))))),
    ("softmax", lambda p: T.tsum(T.mul(T.softmax(p["vec"]), p["vec"]))),
    ("conv2d", lambda p: T.tsum(T.tanh(T.conv2d(p["img"], p["ker"], stride=1, pad=1)))),
    # the RGB branch's strided conv; img is 5-7 x 6, so its output sizes come
    # out both exact and floored
    ("conv2d_stride2", lambda p: T.tsum(T.tanh(T.conv2d(p["img"], p["ker"], stride=2, pad=1)))),
    # a2 transposed and viewed as 4 channels of (3+seed) x 1 pixels
    ("batch_norm", lambda p: T.tsum(T.tanh(T.batch_norm(T.reshape(p["a2"].T, (4, -1, 1)),
                                                        p["gamma"], p["beta"])))),
    ("dropout", lambda p: T.tsum(T.mul(
        T.dropout(p["vec"], 0.5, make_rng(11)), p["vec"]))),
]


def run_op_checks(seeds=(0, 1, 2)) -> dict[str, GradCheckReport]:
    """Finite-difference check for every differentiable tensor op; one report
    per op, holding the worst error over all seeds."""
    results = {}
    for name, fn in OP_CLOSURES:
        report = results[name] = GradCheckReport()
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
                "bias": params.register("bias", rng.normal(size=(2 + seed,))),
                "wts": params.register("wts", rng.normal(size=(2, 5 + seed))),
            }
            report.record(grad_check(lambda: fn(tensors), params).max_rel_err)
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


def small_synth_frames(n_frames: int = 5, width: int = 16, height: int = 16):
    """A tiny ray-cast sequence matched to small_pipeline_config."""
    world, _ = preset_scenario("standard", frames=n_frames, speed=0.5, yaw_rate_deg=1.0)
    cam = CameraConfig(width=width, height=height, focal=float(width))
    lidar = LidarConfig(n_azimuth=16, n_elevation=8)
    return synth_sequence(world, n_frames, cam, lidar)


def run_pipeline_check(seed: int = 0) -> GradCheckReport:
    """Gradient check of the pipeline loss fully unrolled over PIPELINE_FRAMES.

    Eval mode keeps the closure deterministic (no dropout), and every
    evaluation gets a fresh make_rng(0), as validation does; a seeded subset
    of entries per parameter keeps the runtime bounded.
    """
    model = init_pipeline(small_pipeline_config(), seed=seed)
    frames = small_synth_frames(PIPELINE_FRAMES + 1)[:PIPELINE_FRAMES]
    return grad_check(lambda: sequence_loss(frames, model, "eval", make_rng(0), None),
                      model.params, entries_per_param=ENTRIES_PER_PARAM,
                      rng=make_rng(seed + 1))
