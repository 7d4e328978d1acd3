"""The one-precision rule: everything on the tape is float32, and only
tensor.float64() (the gradient check's context) switches it."""

import numpy as np
import pytest

from navfuse import tensor as T
from navfuse import train as train_mod
from navfuse.checkpoint import Checkpoint, load_model, save_checkpoint
from navfuse.cli import main
from navfuse.config import RunConfig, config_to_dict
from navfuse.kitti import load_sequences
from navfuse.optim import TrainConfig, adam_step
from navfuse.params import make_rng
from navfuse.pipeline import PipelineConfig, init_pipeline, initial_state, pipeline_step, rollout
from navfuse.simulate import CameraConfig, LidarConfig, preset_scenario, synth_sequence

F32 = np.dtype(np.float32)


def _desk_frames(n_frames=5):
    """n_frames - 1 labeled frames at the default 64x64 camera and 64x16 LiDAR."""
    world, _ = preset_scenario("standard", frames=n_frames)
    return synth_sequence(world, n_frames, CameraConfig(), LidarConfig())


def test_one_train_step_keeps_every_array_float32(monkeypatch):
    model = init_pipeline(PipelineConfig(), seed=0)
    seen = []

    def recording_adam(params, state, lr, weight_decay=0.0):
        grads = {k: p.grad.dtype for k, p in params.items() if p.grad is not None}
        adam_step(params, state, lr, weight_decay)
        seen.append((grads, state))

    monkeypatch.setattr(train_mod, "adam_step", recording_adam)
    train_mod.train(model, [_desk_frames()], [], TrainConfig(batch_size=1, warmup_steps=1),
                    max_epochs=1)
    (grads, adam), = seen
    assert len(grads) == len(model.params) and set(grads.values()) == {F32}
    assert len(adam.m) == len(adam.v) == len(model.params)
    assert {a.dtype for a in [*adam.m.values(), *adam.v.values()]} == {F32}
    assert {p.data.dtype for _, p in model.params.items()} == {F32}
    assert {b.dtype for b in model.buffers.values()} == {F32}


def test_an_eval_step_returns_float32():
    model = init_pipeline(PipelineConfig(), seed=0)
    res = pipeline_step(_desk_frames(2)[0].frame, initial_state(model.cfg), model,
                        rng=make_rng(0))
    for arr in (res.nav.waypoint, res.nav.ego_delta, res.fused.vector.data,
                res.state.hidden.data):
        assert arr.dtype == F32


def _checkpoint(model, params):
    return Checkpoint(config=config_to_dict(RunConfig(pipeline=model.cfg)), params=params,
                      buffers={k: v.copy() for k, v in model.buffers.items()})


def test_a_checkpoint_round_trip_gives_the_float32_parameters_bitwise(tmp_path):
    model = init_pipeline(PipelineConfig(), seed=3)
    path = str(tmp_path / "ck.bin")
    save_checkpoint(_checkpoint(model, model.params.state_dict()), path)
    back = load_model(path)
    for k, p in model.params.items():
        got = back.params.get(k).data
        assert got.dtype == F32 and got.tobytes() == p.data.tobytes(), k
    assert {b.dtype for b in back.buffers.values()} == {F32}


def test_a_float64_checkpoint_loads_rounded_to_float32(tmp_path):
    # a checkpoint from before the tape was float32 holds values that float32
    # cannot represent; they load rounded
    model = init_pipeline(PipelineConfig(), seed=4)
    rng = make_rng(5)
    state = {k: rng.normal(size=v.shape) for k, v in model.params.state_dict().items()}
    path = str(tmp_path / "f8.bin")
    save_checkpoint(_checkpoint(model, state), path)
    back = load_model(path)
    for k, v in state.items():
        got = back.params.get(k).data
        assert got.dtype == F32 and got.tobytes() == v.astype(np.float32).tobytes(), k


@pytest.fixture(scope="module")
def small_tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("tree")
    cfg = root / "cfg.yaml"
    cfg.write_text(f"seed: 2\nout_dir: {root / 'data'}\nsynth: {{frames: 8}}\n")
    assert main(["synth", "--config", str(cfg)]) == 0
    return root / "data"


def test_float32_rollout_agrees_with_float64(small_tree):
    # fill the zero-initialized head, gate and pooling vectors, as a trained
    # model would, so that outputs and weights move with the inputs
    model = init_pipeline(PipelineConfig(), seed=6)
    state, rng = model.params.state_dict(), make_rng(7)
    for k in ("head.fc2.w", "head.fc2.b", "fuse.gate_u_rgb", "fuse.gate_u_lidar",
              "point.group_score.w", "point.global_score.w"):
        state[k] = rng.normal(scale=0.1, size=state[k].shape)
    model.params.load_state_dict(state)

    def outputs(frames):
        return np.array([np.concatenate([res.nav.waypoint, res.nav.ego_delta,
                                         [res.fused.weights.w_rgb, res.fused.weights.w_lidar]])
                         for res, _ in rollout(model, frames)], dtype=np.float64)

    seqs = load_sequences(small_tree)
    assert len(seqs) == 4
    for seq in seqs.values():
        frames = [lf.frame for lf in seq]
        single = outputs(frames)
        with T.float64():
            double = outputs(frames)
        assert np.abs(double[:, :5]).max() > 0.1  # the head is not stuck at 0
        np.testing.assert_allclose(single[:, :5], double[:, :5], rtol=0, atol=1e-4)
        np.testing.assert_allclose(single[:, 5:], double[:, 5:], rtol=0, atol=1e-5)
