"""Reliability scoring, semantic alignment, and reliability-gated fusion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navfuse import tensor as T
from navfuse.errors import ContractError, DimensionError
from navfuse.fusion import (REL_FLOOR, FusionWeights, ReliabilityScores, fuse,
                            fusion_weights, init_fusion_params, laplacian_variance,
                            reliability_cloud, reliability_image, semantic_map)
from navfuse.geometry import lidar_to_camera, project_points
from navfuse.gradcheck import grad_check
from navfuse.kitti import CalibrationSet, Image, PointCloud
from navfuse.params import ParamRegistry, make_rng
from navfuse.tensor import Tensor


def _params(in_dim=8, fusion_dim=8, seed=0):
    params = ParamRegistry()
    init_fusion_params(params, make_rng(seed), in_dim, fusion_dim)
    return params


def _calib(f=100.0, c=50.0):
    p = np.array([[f, 0, c, 0], [0, f, c, 0], [0, 0, 1, 0]], dtype=float)
    return CalibrationSet(P=p, Tr=np.eye(4))


def _in_frustum(cloud, calib, width, height):
    """The in-frustum count that pipeline_step passes to reliability_cloud."""
    return len(project_points(lidar_to_camera(cloud, calib).xyz, calib.P, width, height)[3])


# -- reliability -------------------------------------------------------


def test_reliability_image_constant_is_floor():
    img = Image(pixels=np.full((8, 8, 3), 77, dtype=np.uint8))
    assert reliability_image(img) == REL_FLOOR


def test_reliability_image_checkerboard_closed_form():
    check = np.indices((8, 8)).sum(axis=0) % 2
    gray = (check * 200).astype(np.uint8)
    img = Image(pixels=np.repeat(gray[:, :, None], 3, axis=2))
    # direct convolution oracle over the interior
    lap = (4.0 * gray[1:-1, 1:-1].astype(float)
           - gray[:-2, 1:-1] - gray[2:, 1:-1] - gray[1:-1, :-2] - gray[1:-1, 2:])
    v = lap.var()
    assert laplacian_variance(gray.astype(float)) == pytest.approx(v)
    assert reliability_image(img, tau_img=100.0) == pytest.approx(
        np.clip(1.0 - np.exp(-v / 100.0), REL_FLOOR, 1.0))


def test_reliability_image_contrast_scaling_monotone():
    rng = make_rng(0)
    base = rng.integers(0, 256, (16, 16, 3), dtype=np.uint8)
    tau = 1e7  # keep both scores off the saturation ends
    r_full = reliability_image(Image(pixels=base), tau)
    dimmed = np.clip(0.5 * (base.astype(float) - 128) + 128, 0, 255).astype(np.uint8)
    r_dim = reliability_image(Image(pixels=dimmed), tau)
    assert r_dim < r_full


def test_reliability_cloud_empty():
    cloud = PointCloud(points=np.zeros((0, 4)))
    assert reliability_cloud(_in_frustum(cloud, _calib(), 100, 100)) == REL_FLOOR


def test_reliability_cloud_saturation():
    n = 1024
    pts = np.zeros((n, 4))
    pts[:, 2] = np.linspace(5, 50, n)  # all on the optical axis, in frustum
    n_in = _in_frustum(PointCloud(points=pts), _calib(), 100, 100)
    assert reliability_cloud(n_in, n_ref=1024) == 1.0


def test_reliability_cloud_dropout_expectation():
    rng = make_rng(1)
    n = 400
    pts = np.zeros((n, 4))
    pts[:, 0] = rng.uniform(-1, 1, n)
    pts[:, 2] = rng.uniform(5, 40, n)
    p = 0.5
    n_ref = 1024
    trials = [reliability_cloud(
        _in_frustum(PointCloud(points=pts[rng.random(n) >= p]), _calib(), 100, 100), n_ref)
        for _ in range(100)]
    expect = n * (1 - p) / n_ref
    sigma = np.sqrt(n * p * (1 - p)) / n_ref
    assert abs(np.mean(trials) - expect) < 3 * sigma


# -- semantic map ------------------------------------------------------


def test_semantic_map_zero_through_origin():
    params = _params()
    out = semantic_map(Tensor(np.zeros(8)), params, "rgb")
    np.testing.assert_array_equal(out.data, np.zeros(8))


def test_semantic_map_tanh_range():
    params = _params()
    out = semantic_map(Tensor(make_rng(2).normal(scale=3, size=8)), params, "lidar")
    assert np.all(np.abs(out.data) < 1.0)
    # float64 tanh saturates to exactly +/-1 for huge inputs; bounded still
    big = semantic_map(Tensor(make_rng(2).normal(scale=1e6, size=8)), params, "lidar")
    assert np.all(np.abs(big.data) <= 1.0)


def test_semantic_map_dim_mismatch():
    with pytest.raises(DimensionError):
        semantic_map(Tensor(np.zeros(5)), _params(), "rgb")


def test_semantic_map_unknown_modality():
    with pytest.raises(ContractError):
        semantic_map(Tensor(np.zeros(8)), _params(), "thermal")


def test_semantic_map_grad_check():
    params = _params(seed=3)
    x = params.register("x", make_rng(4).normal(size=8))

    def f():
        return T.tsum(semantic_map(x, params, "rgb"))

    rep = grad_check(f, params)
    assert rep.passed, rep.max_rel_err


# -- fusion weights ----------------------------------------------------


def test_weights_symmetry():
    params = _params()
    f = Tensor(make_rng(5).normal(size=8))
    w_rgb, w_lidar = fusion_weights(f, f, ReliabilityScores(0.7, 0.7), params).data
    assert w_rgb == pytest.approx(0.5, abs=1e-12)
    assert w_lidar == pytest.approx(0.5, abs=1e-12)


@pytest.mark.usefixtures("float64")
def test_weights_zero_content_hand_value():
    # zero-init gate u => content logits vanish; softmax(0, ln 0.5) = (2/3, 1/3)
    params = _params()
    rng = make_rng(6)
    w_rgb, w_lidar = fusion_weights(Tensor(rng.normal(size=8)), Tensor(rng.normal(size=8)),
                                    ReliabilityScores(1.0, 0.5), params, beta=1.0).data
    assert w_rgb == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert w_lidar == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_weights_halving_reliability_decreases_weight():
    params = _params(seed=7)
    # non-trivial content logits too: perturb u away from zero
    params.get("fuse.gate_u_rgb").data[:] = make_rng(8).normal(size=8)
    rng = make_rng(9)
    f_rgb, f_lidar = Tensor(rng.normal(size=8)), Tensor(rng.normal(size=8))
    hi_rgb, hi_lidar = fusion_weights(f_rgb, f_lidar, ReliabilityScores(0.8, 0.8), params).data
    lo_rgb, lo_lidar = fusion_weights(f_rgb, f_lidar, ReliabilityScores(0.8, 0.4), params).data
    assert lo_lidar < hi_lidar
    assert lo_rgb > hi_rgb


@pytest.mark.parametrize("gap", [0.0, 1e-8, -1e-8, 1.0, -1.0, 20.0, -20.0, 200.0, -200.0])
def test_weights_sum_to_exactly_one_at_any_gap(gap):
    # zero content logits: the logit gap is beta * ln(r_rgb / r_lidar), and
    # ln(1 / e^-1) is 1
    e1 = float(np.exp(-1.0))
    rel = ReliabilityScores(1.0, e1) if gap >= 0 else ReliabilityScores(e1, 1.0)
    rng = make_rng(20)
    w = fusion_weights(Tensor(rng.normal(size=8)), Tensor(rng.normal(size=8)), rel,
                       _params(), beta=abs(gap)).data
    assert w.dtype == np.float32
    assert float(w[0]) + float(w[1]) == 1.0
    assert w[0] >= w[1] if gap >= 0 else w[0] <= w[1]


def test_weights_sum_to_exactly_one_on_random_logits():
    params = _params(seed=21)
    rng = make_rng(22)
    for which in ("rgb", "lidar"):
        params.get(f"fuse.gate_u_{which}").data[:] = 3.0 * rng.normal(size=8)
    for _ in range(1000):
        rel = ReliabilityScores(*rng.uniform(REL_FLOOR, 1.0, size=2))
        w_rgb, w_lidar = fusion_weights(Tensor(rng.normal(size=8)), Tensor(rng.normal(size=8)),
                                        rel, params, beta=float(rng.uniform(0.0, 3.0))).data
        assert float(w_rgb) + float(w_lidar) == 1.0


def _softmax_gate(f_rgb, f_lidar, rel, params, beta):
    """Reference gate: the softmax over the concatenated modality logits."""
    v = params.get("fuse.gate_v")
    logits = [T.add(T.reshape(T.tsum(T.mul(T.tanh(T.matmul(feat, v)),
                                           params.get(f"fuse.gate_u_{which}"))), (1,)),
                    beta * float(np.log(r)))
              for which, feat, r in (("rgb", f_rgb, rel.r_rgb), ("lidar", f_lidar, rel.r_lidar))]
    return T.softmax(T.concat(logits, axis=0))


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("seed", range(6))
def test_weights_match_the_softmax_gate_in_value_and_gradient(seed):
    params = _params(seed=seed)
    rng = make_rng(30 + seed)
    for which in ("rgb", "lidar"):
        params.get(f"fuse.gate_u_{which}").data[:] = 2.0 * rng.normal(size=8)
    f_rgb, f_lidar = (params.register(name, rng.normal(size=8)) for name in ("f_rgb", "f_lidar"))
    rel = ReliabilityScores(*rng.uniform(REL_FLOOR, 1.0, size=2))
    upstream = rng.normal(size=2)

    def run(gate):
        params.zero_grads()
        w = gate(f_rgb, f_lidar, rel, params, 1.5)
        T.tsum(T.mul(w, upstream)).backward()
        return w.data, {k: p.grad.copy() for k, p in params.items() if p.grad is not None}

    (w, grads), (w_ref, grads_ref) = run(fusion_weights), run(_softmax_gate)
    np.testing.assert_allclose(w, w_ref, rtol=0, atol=1e-12)
    assert grads.keys() == grads_ref.keys() and {"f_rgb", "f_lidar"} <= grads.keys()
    for k, g in grads_ref.items():
        np.testing.assert_allclose(grads[k], g, rtol=0, atol=1e-12, err_msg=k)


def test_weights_reliability_out_of_range():
    with pytest.raises(ContractError):
        fusion_weights(Tensor(np.zeros(8)), Tensor(np.zeros(8)),
                       ReliabilityScores(0.5, 0.0), _params())


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10_000),
       r_rgb=st.floats(REL_FLOOR, 1.0), r_lidar=st.floats(REL_FLOOR, 1.0))
def test_weights_always_simplex(seed, r_rgb, r_lidar):
    params = _params(seed=seed % 17)
    rng = make_rng(seed)
    params.get("fuse.gate_u_rgb").data[:] = rng.normal(size=8)
    params.get("fuse.gate_u_lidar").data[:] = rng.normal(size=8)
    w_rgb, w_lidar = fusion_weights(Tensor(rng.normal(size=8)), Tensor(rng.normal(size=8)),
                                    ReliabilityScores(r_rgb, r_lidar), params).data
    assert w_rgb > 0 and w_lidar > 0
    assert abs(w_rgb + w_lidar - 1.0) < 1e-12


def test_weights_monotone_1000_configs():
    # w_m strictly increasing in r_m with beta = 1 over random configurations
    rng = make_rng(10)
    params = _params(seed=11)
    for trial in range(1000):
        params.get("fuse.gate_u_rgb").data[:] = rng.normal(size=8)
        params.get("fuse.gate_u_lidar").data[:] = rng.normal(size=8)
        f_rgb, f_lidar = Tensor(rng.normal(size=8)), Tensor(rng.normal(size=8))
        r_lo = rng.uniform(REL_FLOOR, 0.5)
        r_hi = rng.uniform(r_lo + 1e-6, 1.0)
        r_other = rng.uniform(REL_FLOOR, 1.0)
        w_lo = fusion_weights(f_rgb, f_lidar, ReliabilityScores(r_other, r_lo), params, beta=1.0)
        w_hi = fusion_weights(f_rgb, f_lidar, ReliabilityScores(r_other, r_hi), params, beta=1.0)
        assert w_hi.data[1] > w_lo.data[1], trial


# -- fuse --------------------------------------------------------------


def test_fuse_degenerate_weight():
    f_rgb = Tensor(make_rng(12).normal(size=8))
    f_lidar = Tensor(make_rng(13).normal(size=8))
    out = fuse(f_rgb, f_lidar, Tensor(np.array([1.0, 0.0])),
               ReliabilityScores(1.0, 1.0))
    np.testing.assert_allclose(out.vector.data, f_rgb.data, atol=1e-15)


def test_fuse_cancellation():
    f = Tensor(make_rng(14).normal(size=8))
    neg = Tensor(-f.data)
    out = fuse(f, neg, Tensor(np.array([0.5, 0.5])), ReliabilityScores(1.0, 1.0))
    np.testing.assert_allclose(out.vector.data, np.zeros(8), atol=1e-15)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000), w_rgb=st.floats(0.0, 1.0))
def test_fuse_convex_combination(seed, w_rgb):
    rng = make_rng(seed)
    a, b = rng.normal(size=8), rng.normal(size=8)
    with T.float64():  # bounded to 1e-12, finer than float32 resolves
        out = fuse(Tensor(a), Tensor(b), Tensor(np.array([w_rgb, 1.0 - w_rgb])),
                   ReliabilityScores(1.0, 1.0)).vector.data
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)


def test_fuse_records_weights_and_reliabilities():
    rel = ReliabilityScores(0.9, 0.4)
    out = fuse(Tensor(np.ones(4)), Tensor(np.zeros(4)),
               Tensor(np.array([0.25, 0.75])), rel)
    assert out.weights == FusionWeights(w_rgb=0.25, w_lidar=0.75)
    assert out.reliabilities is rel


def test_fusion_grad_check():
    params = _params(seed=15)
    rng = make_rng(16)
    params.get("fuse.gate_u_rgb").data[:] = rng.normal(size=8)
    params.get("fuse.gate_u_lidar").data[:] = rng.normal(size=8)
    a = params.register("a", rng.normal(size=8))
    b = params.register("b", rng.normal(size=8))
    rel = ReliabilityScores(0.8, 0.3)

    def f():
        fr = semantic_map(a, params, "rgb")
        fl = semantic_map(b, params, "lidar")
        w = fusion_weights(fr, fl, rel, params)
        return T.tsum(T.tanh(fuse(fr, fl, w, rel).vector))

    rep = grad_check(f, params)
    assert rep.passed, rep.max_rel_err
