"""RGB and point-cloud feature branches."""

import numpy as np
import pytest

from navfuse import tensor as T
from navfuse.backbones import (PointBranchConfig, RgbBranchConfig, attention_block,
                               dynamic_sample_count, fps_sample, group_and_encode,
                               init_attention_params, init_point_params,
                               init_rgb_params, point_forward, rgb_forward)
from navfuse.errors import ConfigError, ContractError, DimensionError
from navfuse.geometry import lidar_to_camera
from navfuse.gradcheck import grad_check
from navfuse.kitti import Image, PointCloud
from navfuse.params import ParamRegistry, make_rng
from navfuse.simulate import (SCENARIOS, CameraConfig, LidarConfig, degrade_cloud,
                              preset_scenario, synth_sequence)
from navfuse.tensor import Tensor


def _cloud(xyz, refl=None):
    xyz = np.atleast_2d(np.asarray(xyz, dtype=float))
    if refl is None:
        refl = np.full(len(xyz), 0.5)
    return PointCloud(points=np.column_stack([xyz, refl]))


def _small_rgb_cfg():
    return RgbBranchConfig(stage_channels=[4, 8], strides=[2, 2],
                           attn_heads=2, attn_dim=8, out_dim=16)


def _small_point_cfg():
    return PointBranchConfig(input_budget=64, centroids_min=4, centroids_max=8,
                             radius=3.0, group_cap=8, mlp_dims=[8, 8], out_dim=16)


# -- attention ---------------------------------------------------------


def test_attention_single_token_weight_is_one():
    rng = make_rng(0)
    params = ParamRegistry()
    init_attention_params(params, rng, "a", 8)
    x = Tensor(rng.normal(size=(1, 8)))
    out = attention_block(x, 2, params, "a")
    # T=1: softmax over one score is 1, so out = x + (V x) O per head slice
    v = x.data @ params.get("a.wv").data
    expect = x.data + v @ params.get("a.wo").data
    np.testing.assert_allclose(out.data, expect, atol=1e-12)


@pytest.mark.usefixtures("float64")
def test_attention_rows_simplex():
    rng = make_rng(1)
    params = ParamRegistry()
    init_attention_params(params, rng, "a", 8)
    x = Tensor(rng.normal(size=(5, 8)))
    q = x.data @ params.get("a.wq").data
    k = x.data @ params.get("a.wk").data
    for h in range(2):
        sl = slice(h * 4, (h + 1) * 4)
        scores = q[:, sl] @ k[:, sl].T / 2.0
        w = np.exp(scores - scores.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        assert np.all(w > 0)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.usefixtures("float64")
def test_attention_permutation_equivariant():
    rng = make_rng(2)
    params = ParamRegistry()
    init_attention_params(params, rng, "a", 8)
    x = rng.normal(size=(6, 8))
    perm = rng.permutation(6)
    out = attention_block(Tensor(x), 2, params, "a").data
    out_p = attention_block(Tensor(x[perm]), 2, params, "a").data
    np.testing.assert_allclose(out_p, out[perm], atol=1e-12)


def test_attention_head_divisibility():
    params = ParamRegistry()
    init_attention_params(params, make_rng(0), "a", 9)
    with pytest.raises(ConfigError):
        attention_block(Tensor(np.zeros((2, 9))), 2, params, "a")


# -- rgb branch --------------------------------------------------------


def test_rgb_zero_input_zero_output():
    cfg = _small_rgb_cfg()
    params = ParamRegistry()
    buffers = init_rgb_params(cfg, params, make_rng(0))
    img = Image(pixels=np.zeros((16, 16, 3), dtype=np.uint8))
    depth = Tensor(np.zeros((1, 16, 16)))
    out = rgb_forward(img, depth, cfg, params, buffers)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


def test_rgb_output_shape_default_cfg():
    cfg = RgbBranchConfig()
    params = ParamRegistry()
    buffers = init_rgb_params(cfg, params, make_rng(0))
    img = Image(pixels=make_rng(1).integers(0, 256, (64, 64, 3), dtype=np.uint8))
    out = rgb_forward(img, Tensor(np.zeros((1, 64, 64))), cfg, params, buffers)
    assert out.shape == (64,)


def test_rgb_dimension_mismatch():
    cfg = _small_rgb_cfg()
    params = ParamRegistry()
    buffers = init_rgb_params(cfg, params, make_rng(0))
    img = Image(pixels=np.zeros((18, 16, 3), dtype=np.uint8))
    with pytest.raises(DimensionError):
        rgb_forward(img, Tensor(np.zeros((1, 16, 16))), cfg, params, buffers)


@pytest.mark.parametrize("h, w", [(18, 16), (47, 155)])
def test_rgb_any_frame_size(h, w):
    # floor-mode strided convs: no size needs to divide the stride product 8;
    # 47 x 155 is the KITTI frame at 1/8 scale
    cfg = RgbBranchConfig()
    params = ParamRegistry()
    buffers = init_rgb_params(cfg, params, make_rng(0))
    img = Image(pixels=make_rng(1).integers(0, 256, (h, w, 3), dtype=np.uint8))
    for mode in ("train", "eval"):
        out = rgb_forward(img, Tensor(np.zeros((1, h, w))), cfg, params, buffers, mode=mode)
        assert out.shape == (64,) and np.all(np.isfinite(out.data))


def test_rgb_grad_check_16x16():
    cfg = _small_rgb_cfg()
    params = ParamRegistry()
    buffers = init_rgb_params(cfg, params, make_rng(0))
    img = Image(pixels=make_rng(1).integers(0, 256, (16, 16, 3), dtype=np.uint8))
    depth = Tensor(make_rng(2).uniform(0, 1, size=(1, 16, 16)))

    def f():
        out = rgb_forward(img, depth, cfg, params, buffers, mode="eval")
        return T.tsum(T.tanh(out))

    rep = grad_check(f, params, entries_per_param=3, rng=make_rng(3))
    assert rep.passed, rep.max_rel_err


# -- dynamic sampling --------------------------------------------------


def test_dynamic_count_saturated():
    cfg = _small_point_cfg()
    # linear cloud at full budget: rho = kappa = 1 -> centroids_max
    xyz = np.column_stack([np.linspace(0, 10, 64), np.zeros(64), np.zeros(64)])
    assert dynamic_sample_count(_cloud(xyz), cfg) == cfg.centroids_max


def test_dynamic_count_degenerate_three_points():
    cfg = _small_point_cfg()
    count = dynamic_sample_count(_cloud([[0, 0, 0], [1, 0, 0], [2, 0, 0]]), cfg)
    assert count == 3  # clamped to N with kappa = 0 by convention


def test_dynamic_count_formula_oracle():
    cfg = PointBranchConfig(input_budget=2048, centroids_min=64, centroids_max=256,
                            radius=2.0, group_cap=32)
    rng = make_rng(4)
    xyz = rng.normal(size=(1024, 3))
    cloud = _cloud(xyz)
    rho = min(1024 / 2048, 1.0)
    eig = np.linalg.eigvalsh(np.cov(xyz.T))
    kappa = 1.0 - eig[0] / eig[-1]
    expect = round(64 + (256 - 64) * (0.5 * rho + 0.5 * kappa))
    assert dynamic_sample_count(cloud, cfg) == expect


def test_dynamic_count_empty_cloud():
    with pytest.raises(ContractError):
        dynamic_sample_count(_cloud(np.zeros((0, 3))), _small_point_cfg())


def test_fps_line_example():
    idx = fps_sample(_cloud([[0, 0, 0], [5, 0, 0], [10, 0, 0]]), 2)
    assert idx == [0, 2]


def test_fps_exhaustive():
    cloud = _cloud(make_rng(5).normal(size=(7, 3)))
    assert sorted(fps_sample(cloud, 7)) == list(range(7))


def test_fps_duplicate_tie_to_lower_index():
    cloud = _cloud([[0, 0, 0], [1, 0, 0], [1, 0, 0]])
    assert fps_sample(cloud, 2) == [0, 1]


def test_fps_k_out_of_range():
    with pytest.raises(ContractError):
        fps_sample(_cloud([[0, 0, 0]]), 2)


def test_fps_distinct_points_distinct_choices():
    cloud = _cloud(make_rng(6).normal(size=(30, 3)))
    idx = fps_sample(cloud, 10)
    assert len(set(idx)) == 10


# -- grouping ----------------------------------------------------------


@pytest.mark.usefixtures("float64")
def test_group_identical_points_symmetry():
    cfg = _small_point_cfg()
    params = ParamRegistry()
    init_point_params(cfg, params, make_rng(0))
    cloud = _cloud(np.zeros((5, 3)), refl=np.full(5, 0.3))
    out = group_and_encode(cloud, [0], cfg, params).data
    # all-local-zero input through the MLP regardless of group size
    x = np.array([[0.0, 0.0, 0.0, 0.0, 0.3]])
    for i in range(2):
        w, b = params.get(f"point.mlp{i}.w").data, params.get(f"point.mlp{i}.b").data
        x = np.maximum(x @ w + b, 0.0)
    np.testing.assert_allclose(out[0], x[0], atol=1e-12)


@pytest.mark.usefixtures("float64")
def test_group_singleton_weight_one():
    cfg = _small_point_cfg()
    params = ParamRegistry()
    init_point_params(cfg, params, make_rng(1))
    cloud = _cloud([[0, 0, 0], [100, 100, 100]])
    out = group_and_encode(cloud, [0], cfg, params).data
    x = np.array([[0.0, 0.0, 0.0, 0.0, 0.5]])
    for i in range(2):
        w, b = params.get(f"point.mlp{i}.w").data, params.get(f"point.mlp{i}.b").data
        x = np.maximum(x @ w + b, 0.0)
    np.testing.assert_allclose(out[0], x[0], atol=1e-12)


def test_group_member_permutation_invariant():
    cfg = _small_point_cfg()
    params = ParamRegistry()
    init_point_params(cfg, params, make_rng(2))
    rng = make_rng(3)
    xyz = rng.normal(scale=0.5, size=(8, 3))
    perm = np.concatenate([[0], 1 + rng.permutation(7)])
    cloud = _cloud(xyz, refl=rng.uniform(0, 1, 8))
    out = group_and_encode(cloud, [0], cfg, params).data
    shuffled = PointCloud(points=cloud.points[perm])
    out_p = group_and_encode(shuffled, [0], cfg, params).data
    np.testing.assert_allclose(out_p, out, atol=1e-12)


def test_group_isolated_centroids_finite():
    cfg = PointBranchConfig(input_budget=8, centroids_min=1, centroids_max=2,
                            radius=0.5, group_cap=4, mlp_dims=[4, 4], out_dim=8)
    params = ParamRegistry()
    init_point_params(cfg, params, make_rng(4))
    # a centroid's ball always contains at least itself, so lone-member groups
    # are the sparsest case reachable from the public API
    cloud = _cloud([[0, 0, 0], [10, 0, 0], [20, 0, 0]])
    out = group_and_encode(cloud, [0, 1, 2], cfg, params).data
    assert out.shape == (3, 4)
    assert np.all(np.isfinite(out))


def _masked_group_pool(cloud, centroids, cfg, params):
    """Reference grouping: every one of the m x group_cap nearest slots goes
    through the MLP, and the out-of-ball ones are masked out of the softmax."""
    xyz = cloud.xyz
    cap = min(cfg.group_cap, len(xyz))
    centers = xyz[centroids]
    sq = np.einsum("nd,nd->n", xyz, xyz)
    d2_rank = sq[centroids, None] + sq[None, :] - 2.0 * (centers @ xyz.T)
    sel = np.argpartition(d2_rank, cap - 1, axis=1)[:, :cap]
    local = xyz[sel] - centers[:, None, :]
    d2 = np.einsum("mcd,mcd->mc", local, local)
    valid = d2 <= cfg.radius ** 2
    x = np.concatenate([local * valid[..., None], (np.sqrt(d2) * valid)[..., None],
                        (cloud.reflectance[sel] * valid)[..., None]], axis=2)
    for i in range(len(cfg.mlp_dims)):
        x = np.maximum(x @ params.get(f"point.mlp{i}.w").data
                       + params.get(f"point.mlp{i}.b").data, 0.0)
    scores = np.where(valid, (x @ params.get("point.group_score.w").data)[..., 0], -1e30)
    w = np.exp(scores - scores.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    return (x * w[..., None]).sum(axis=1)


def _random_point_params(cfg, seed):
    params = ParamRegistry()
    rng = make_rng(seed)
    init_point_params(cfg, params, rng)
    params.get("point.group_score.w").data = rng.normal(size=(cfg.mlp_dims[-1], 1))
    return params


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_group_matches_the_masked_slot_softmax(scenario):
    cfg = PointBranchConfig()
    params = _random_point_params(cfg, 8)
    world, spec = preset_scenario(scenario, frames=21)
    frames = synth_sequence(world, 21, CameraConfig(), LidarConfig())
    rng = make_rng(3)
    for lf in frames[::5]:
        cloud = lidar_to_camera(degrade_cloud(lf.frame.cloud, spec, rng), lf.frame.calib)
        assert len(cloud) < cfg.input_budget
        centroids = fps_sample(cloud, dynamic_sample_count(cloud, cfg))
        np.testing.assert_allclose(group_and_encode(cloud, centroids, cfg, params).data,
                                   _masked_group_pool(cloud, centroids, cfg, params),
                                   rtol=0, atol=1e-12)


def test_group_ignores_points_outside_every_ball():
    # 6 points, fewer than group_cap; the appended 10 lift the cloud above it
    cfg = _small_point_cfg()
    params = _random_point_params(cfg, 9)
    rng = make_rng(10)
    cloud = _cloud(rng.normal(size=(6, 3)), refl=rng.uniform(0, 1, 6))
    far = _cloud(rng.normal(size=(10, 3)) + 50.0, refl=rng.uniform(0, 1, 10))
    grown = PointCloud(points=np.concatenate([cloud.points, far.points]))
    np.testing.assert_allclose(group_and_encode(grown, [0, 2, 5], cfg, params).data,
                               group_and_encode(cloud, [0, 2, 5], cfg, params).data,
                               rtol=0, atol=1e-12)


# -- point forward -----------------------------------------------------


def test_point_forward_shape_contract():
    cfg = _small_point_cfg()
    params = ParamRegistry()
    init_point_params(cfg, params, make_rng(0))
    for n in (1, 5, 64, 100):
        cloud = _cloud(make_rng(n).normal(size=(n, 3)))
        out = point_forward(cloud, cfg, params, rng=make_rng(0))
        assert out.shape == (cfg.out_dim,)


def test_point_forward_empty_cloud():
    with pytest.raises(ContractError):
        point_forward(_cloud(np.zeros((0, 3))), _small_point_cfg(), ParamRegistry())


def test_point_forward_needs_rng_above_budget():
    cfg = _small_point_cfg()
    params = ParamRegistry()
    init_point_params(cfg, params, make_rng(0))
    cloud = _cloud(make_rng(1).normal(size=(100, 3)))
    with pytest.raises(ContractError):
        point_forward(cloud, cfg, params, rng=None)


def test_group_translation_invariant_fixed_centroids():
    cfg = _small_point_cfg()
    params = ParamRegistry()
    init_point_params(cfg, params, make_rng(5))
    rng = make_rng(6)
    xyz = rng.normal(size=(20, 3))
    cloud = _cloud(xyz, refl=rng.uniform(0, 1, 20))
    moved = PointCloud(points=np.column_stack([xyz + 7.5, cloud.reflectance]))
    out_a = group_and_encode(cloud, [0, 3, 9], cfg, params).data
    out_b = group_and_encode(moved, [0, 3, 9], cfg, params).data
    np.testing.assert_allclose(out_b, out_a, atol=1e-12)


def test_point_forward_grad_check():
    cfg = _small_point_cfg()
    params = ParamRegistry()
    init_point_params(cfg, params, make_rng(0))
    cloud = _cloud(make_rng(1).normal(size=(64, 3)))

    def f():
        out = point_forward(cloud, cfg, params, rng=make_rng(0))
        return T.tsum(T.tanh(out))

    rep = grad_check(f, params, entries_per_param=4, rng=make_rng(2))
    assert rep.passed, rep.max_rel_err


def test_forward_paths_finite():
    cfg = _small_point_cfg()
    params = ParamRegistry()
    init_point_params(cfg, params, make_rng(7))
    cloud = _cloud(make_rng(8).normal(scale=10, size=(50, 3)))
    out = point_forward(cloud, cfg, params, rng=make_rng(0))
    assert np.all(np.isfinite(out.data))
