"""Temporal modeling, decision head, and the composed pipeline step."""

from dataclasses import replace

import numpy as np
import pytest

from navfuse import tensor as T
from navfuse.errors import ContractError, DimensionError
from navfuse.gradcheck import grad_check
from navfuse.optim import AdamState, adam_step
from navfuse.params import ParamRegistry, make_rng
from navfuse.fusion import REL_FLOOR
from navfuse.geometry import Z_NEAR_DEFAULT, project_points
from navfuse.pipeline import (PipelineConfig, init_pipeline, initial_state, pipeline_step,
                              rollout)
from navfuse.simulate import (CameraConfig, DegradationSpec, LidarConfig, degrade_cloud,
                              degrade_image, preset_scenario, synth_sequence)
from navfuse.temporal import (decision_forward, init_decision_params,
                              init_recurrent_params, init_temporal_attention_params,
                              nav_loss, recurrent_step, temporal_attention,
                              temporal_delta)
from navfuse.tensor import Tensor
from navfuse.verify import small_pipeline_config, small_synth_frames

# -- temporal delta ----------------------------------------------------


def test_delta_no_history():
    f = Tensor(make_rng(0).normal(size=4))
    out = temporal_delta(f, None)
    np.testing.assert_array_equal(out.data[:4], f.data)
    np.testing.assert_array_equal(out.data[4:], np.zeros(4))


def test_delta_stationary():
    f = Tensor(make_rng(1).normal(size=4))
    out = temporal_delta(f, Tensor(f.data.copy()))
    np.testing.assert_array_equal(out.data[4:], np.zeros(4))


def test_delta_shape_contract():
    out = temporal_delta(Tensor(np.zeros(64)), Tensor(np.ones(64)))
    assert out.shape == (128,)


def test_delta_dim_mismatch():
    with pytest.raises(DimensionError):
        temporal_delta(Tensor(np.zeros(4)), Tensor(np.zeros(5)))


# -- recurrent cell ----------------------------------------------------


def _rnn_params(x_dim=6, hidden=4, seed=0):
    params = ParamRegistry()
    init_recurrent_params(params, make_rng(seed), x_dim, hidden)
    return params


def test_gru_zero_fixed_point():
    params = _rnn_params()
    h = recurrent_step(Tensor(np.zeros(6)), Tensor(np.zeros(4)), params)
    # z = r = 0.5 and the candidate is tanh(0) = 0, so h' = 0
    np.testing.assert_array_equal(h.data, np.zeros(4))


def test_gru_bounded_state():
    params = _rnn_params(seed=1)
    rng = make_rng(2)
    h = Tensor(np.zeros(4))
    for _ in range(50):
        h = recurrent_step(Tensor(rng.normal(size=6)), h, params)
        assert np.all(np.abs(h.data) < 1.0)


@pytest.mark.usefixtures("float64")
def test_gru_matches_hand_equations():
    params = _rnn_params(seed=3)
    rng = make_rng(4)
    x, h = rng.normal(size=6), rng.uniform(-0.9, 0.9, 4)
    sig = lambda a: 1.0 / (1.0 + np.exp(-a))
    g = lambda n: params.get(n).data
    z = sig(x @ g("rnn.w_z") + h @ g("rnn.u_z") + g("rnn.b_z"))
    r = sig(x @ g("rnn.w_r") + h @ g("rnn.u_r") + g("rnn.b_r"))
    cand = np.tanh(x @ g("rnn.w_h") + (r * h) @ g("rnn.u_h") + g("rnn.b_h"))
    expect = (1 - z) * h + z * cand
    out = recurrent_step(Tensor(x), Tensor(h), params)
    np.testing.assert_allclose(out.data, expect, atol=1e-12)


def test_gru_grad_check_unrolled_3_steps():
    params = _rnn_params(seed=7)
    xs = [params.register(f"x{i}", make_rng(10 + i).normal(size=6)) for i in range(3)]

    def f():
        h = Tensor(np.zeros(4))
        for x in xs:
            h = recurrent_step(x, h, params)
        return T.tsum(T.tanh(h))

    rep = grad_check(f, params)
    assert rep.passed, rep.max_rel_err


# -- temporal attention ------------------------------------------------


def _attn_params(hidden=4, fusion=6, seed=0):
    params = ParamRegistry()
    init_temporal_attention_params(params, make_rng(seed), hidden, fusion)
    return params


@pytest.mark.usefixtures("float64")
def test_attention_singleton_window():
    params = _attn_params()
    w0 = make_rng(1).normal(size=6)
    out = temporal_attention(Tensor(make_rng(2).normal(size=4)), [Tensor(w0)], params)
    np.testing.assert_allclose(out.data, w0 @ params.get("tattn.v").data, atol=1e-12)


def test_attention_identical_entries():
    params = _attn_params(seed=3)
    w = make_rng(4).normal(size=6)
    h = Tensor(make_rng(5).normal(size=4))
    many = temporal_attention(h, [Tensor(w.copy()) for _ in range(4)], params)
    one = temporal_attention(h, [Tensor(w.copy())], params)
    np.testing.assert_allclose(many.data, one.data, atol=1e-12)


def test_attention_empty_window():
    with pytest.raises(ContractError):
        temporal_attention(Tensor(np.zeros(4)), [], _attn_params())


# -- decision head -----------------------------------------------------


def _head_params(in_dim=14, hidden=4, seed=0):
    params = ParamRegistry()
    init_decision_params(params, make_rng(seed), in_dim, hidden)
    return params


def test_decision_zero_init_zero_output():
    params = _head_params()
    rng = make_rng(1)
    nav, out5 = decision_forward(Tensor(rng.normal(size=4)), Tensor(rng.normal(size=5)),
                                 Tensor(rng.normal(size=5)), params)
    np.testing.assert_array_equal(nav.waypoint, np.zeros(2))
    np.testing.assert_array_equal(nav.ego_delta, np.zeros(3))


def test_decision_outputs_bounded_by_max_step():
    params = _head_params(seed=2)
    params.get("head.fc2.w").data[:] = make_rng(3).normal(scale=10, size=(4, 5))
    rng = make_rng(4)
    for _ in range(10):
        nav, _ = decision_forward(Tensor(rng.normal(size=4)), Tensor(rng.normal(size=5)),
                                  Tensor(rng.normal(size=5)), params, max_step=5.0)
        assert np.all(np.abs(nav.waypoint) <= 5.0)
        assert np.all(np.abs(nav.ego_delta) <= 5.0)


def test_decision_train_mode_needs_rng():
    with pytest.raises(ContractError):
        decision_forward(Tensor(np.zeros(4)), Tensor(np.zeros(5)),
                         Tensor(np.zeros(5)), _head_params(), mode="train")


def test_decision_grad_check():
    params = _head_params(seed=5)
    params.get("head.fc2.w").data[:] = make_rng(6).normal(size=(4, 5))
    h = params.register("h", make_rng(7).normal(size=4))

    def f():
        _, out5 = decision_forward(h, Tensor(np.ones(5)), Tensor(np.ones(5)), params)
        return nav_loss(out5, np.array([1.0, 0.5]), np.array([0.1, 0.2, 0.3]))

    rep = grad_check(f, params)
    assert rep.passed, rep.max_rel_err


def test_nav_loss_value():
    out5 = Tensor(np.array([1.0, 2.0, 0.0, 0.0, 0.0]))
    loss = nav_loss(out5, np.array([1.0, 0.0]), np.array([0.0, 0.0, 3.0]), lambda_ego=1.0)
    # waypoint mse = (0 + 4)/2 = 2; ego mse = 9/3 = 3
    assert loss.item() == pytest.approx(5.0)


# -- composed pipeline step --------------------------------------------


def test_pipeline_stationary_delta():
    cfg = small_pipeline_config()
    model = init_pipeline(cfg, seed=0)
    lf = small_synth_frames(3)[0]
    state = initial_state(cfg)
    res1 = pipeline_step(lf.frame, state, model, rng=make_rng(0))
    res2 = pipeline_step(lf.frame, res1.state, model, rng=make_rng(0))
    np.testing.assert_allclose(res2.state.prev_fused.data, res1.state.prev_fused.data,
                               atol=1e-12)


def test_pipeline_bitwise_deterministic():
    cfg = small_pipeline_config()
    frames = small_synth_frames(4)
    outs = []
    for _ in range(2):
        model = init_pipeline(cfg, seed=0)
        outs.append([(res.nav.waypoint.copy(), res.nav.ego_delta.copy())
                     for res, _ in rollout(model, [lf.frame for lf in frames])])
    for (w1, e1), (w2, e2) in zip(*outs):
        np.testing.assert_array_equal(w1, w2)
        np.testing.assert_array_equal(e1, e2)


def test_pipeline_causality():
    cfg = small_pipeline_config()
    model = init_pipeline(cfg, seed=0)
    frames = [lf.frame for lf in small_synth_frames(5)]
    spec = DegradationSpec(brightness_scale=0.3, cloud_jitter_sigma=0.05)
    tampered = [replace(f, image=degrade_image(f.image, spec, make_rng(99)),
                        cloud=degrade_cloud(f.cloud, spec, make_rng(99))) for f in frames]

    def run(seq):
        # the zero-initialised head outputs 0 for every frame; the hidden
        # state shows what each output could depend on
        return [np.concatenate([res.nav.waypoint, res.state.hidden.data])
                for res, _ in rollout(model, seq)]

    base = run(frames)
    # perturbing only the future must not change earlier outputs
    perturbed = run(frames[:2] + tampered[2:4])
    np.testing.assert_array_equal(base[0], perturbed[0])
    np.testing.assert_array_equal(base[1], perturbed[1])
    assert not np.array_equal(base[2], perturbed[2])


@pytest.mark.parametrize("h, w", [(18, 16), (47, 155)])
def test_pipeline_step_any_frame_size(h, w):
    cfg = small_pipeline_config()
    model = init_pipeline(cfg, seed=0)
    lf = small_synth_frames(2, width=w, height=h)[0]
    res = pipeline_step(lf.frame, initial_state(cfg), model, mode="train", rng=make_rng(0),
                        label=lf)
    res.loss.backward()
    grads = [p.grad for _, p in model.params.items() if p.grad is not None]
    assert grads and all(np.all(np.isfinite(g)) for g in grads)


def test_pipeline_window_bounded():
    cfg = small_pipeline_config()
    model = init_pipeline(cfg, seed=0)
    lf = small_synth_frames(3)[0]
    state = initial_state(cfg)
    for _ in range(7):
        state = pipeline_step(lf.frame, state, model, rng=make_rng(0)).state
        assert len(state.window) <= cfg.window


def test_pipeline_single_step_descent():
    cfg = small_pipeline_config()
    model = init_pipeline(cfg, seed=0)
    lf = small_synth_frames(3)[0]

    def loss_value():
        res = pipeline_step(lf.frame, initial_state(cfg), model, mode="eval",
                            rng=make_rng(0), label=lf)
        return res.loss

    before = loss_value()
    before_val = before.item()
    before.backward()
    adam_step(model.params, AdamState(), lr=1e-3)
    assert loss_value().item() < before_val


def test_pipeline_step_records_tape_only_with_label():
    cfg = small_pipeline_config()
    model = init_pipeline(cfg, seed=0)
    lf = small_synth_frames(3)[0]
    # the eval-mode labeled step is the one gradcheck differentiates
    labeled = pipeline_step(lf.frame, initial_state(cfg), model, mode="eval",
                            rng=make_rng(0), label=lf)
    assert labeled.loss._backward_fn is not None
    assert labeled.state.hidden._backward_fn is not None
    unlabeled = pipeline_step(lf.frame, initial_state(cfg), model, mode="eval",
                              rng=make_rng(0))
    assert unlabeled.loss is None
    assert unlabeled.state.hidden._backward_fn is None
    assert unlabeled.fused.vector._backward_fn is None
    np.testing.assert_array_equal(unlabeled.nav.waypoint, labeled.nav.waypoint)


def test_rollout_carries_no_graph():
    cfg = small_pipeline_config()
    model = init_pipeline(cfg, seed=0)
    frames = [lf.frame for lf in small_synth_frames(10)]
    state = None
    for res, _ in rollout(model, (frames[i % len(frames)] for i in range(60))):
        state = res.state
    # with no parents, the carried tensors are all that the state reaches
    for t in [state.hidden, state.prev_fused, *state.window]:
        assert t._backward_fn is None and t._parents == ()


def _reliability_cloud_oracle(cloud, calib, width, height, n_ref, z_near=Z_NEAR_DEFAULT):
    """reliability_cloud as it was before pipeline_step passed it its
    in-frustum count: the cloud's own transform and projection."""
    xyz_cam = cloud.xyz @ calib.Tr[:3, :3].T + calib.Tr[:3, 3]
    _, _, _, idx = project_points(xyz_cam, calib.P, width, height, z_near)
    return float(np.clip(len(idx) / n_ref, REL_FLOOR, 1.0))


def _desk_frame(lidar):
    world, _ = preset_scenario("standard", frames=2)
    return synth_sequence(world, 2, CameraConfig(), lidar)[0].frame


def test_pipeline_reliability_cloud_honours_z_near():
    # r_lidar counts the projection that feeds the sparse depth; it must equal
    # the oracle's separate projection bitwise
    desk = (PipelineConfig(), _desk_frame(LidarConfig()))
    dense_cfg = PipelineConfig(n_ref=8192)  # keeps the dense score below saturation
    dense = (dense_cfg, _desk_frame(LidarConfig(n_azimuth=256, n_elevation=32)))
    assert len(dense[1].cloud) > dense_cfg.point.input_budget
    near_cfg = small_pipeline_config()
    near_cfg.z_near = 4.0  # behind the nearest synthetic surface at 3.4 m
    near = (near_cfg, small_synth_frames(3)[0].frame)
    r_lidar = {}
    for name, (cfg, frame) in (("desk", desk), ("dense", dense), ("near", near)):
        w, h = frame.image.width, frame.image.height
        res = pipeline_step(frame, initial_state(cfg), init_pipeline(cfg, seed=0),
                            rng=make_rng(0))
        r_lidar[name] = res.fused.reliabilities.r_lidar
        assert REL_FLOOR < r_lidar[name] < 1.0
        assert r_lidar[name] == _reliability_cloud_oracle(frame.cloud, frame.calib, w, h,
                                                          cfg.n_ref, cfg.z_near)
    frame = near[1]
    assert r_lidar["near"] < _reliability_cloud_oracle(
        frame.cloud, frame.calib, frame.image.width, frame.image.height, near_cfg.n_ref)


def test_pipeline_hidden_bounded():
    cfg = small_pipeline_config()
    model = init_pipeline(cfg, seed=0)
    frames = small_synth_frames(5)
    state = initial_state(cfg)
    for lf in frames:
        state = pipeline_step(lf.frame, state, model, rng=make_rng(0)).state
        assert np.max(np.abs(state.hidden.data)) < 1.0


def test_temporal_state_initial():
    st = initial_state(PipelineConfig(hidden_dim=6))
    assert st.window == [] and st.prev_fused is None
    np.testing.assert_array_equal(st.hidden.data, np.zeros(6))
