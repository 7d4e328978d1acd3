"""Synthetic scenario generator and degradation models."""

import numpy as np
import pytest

from navfuse.cli import main
from navfuse.errors import ConfigError
from navfuse.fusion import init_fusion_params, fusion_weights, semantic_map, \
    reliability_cloud, reliability_image, ReliabilityScores
from navfuse.geometry import lidar_to_camera, project_points
from navfuse.kitti import CalibrationSet, Image, PointCloud, load_sequences
from navfuse.params import ParamRegistry, make_rng
from navfuse.simulate import (SCENARIOS, Box, CameraConfig, DegradationSpec,
                              LidarConfig, World, degrade_cloud,
                              degrade_image, make_trajectory, preset_scenario,
                              render_frame, scan_frame, synth_sequence)
from navfuse.tensor import Tensor


def _in_frustum(cloud, calib, width, height):
    """The in-frustum count that pipeline_step passes to reliability_cloud."""
    return len(project_points(lidar_to_camera(cloud, calib).xyz, calib.P, width, height)[3])


def _default_setup(frames=5, yaw=0.0):
    world, _ = preset_scenario("standard", frames=frames, yaw_rate_deg=yaw)
    return world, CameraConfig(), LidarConfig()


# -- generation --------------------------------------------------------


def test_empty_world_ground_only():
    world = World(boxes=[], trajectory=make_trajectory(3))
    cam, lidar = CameraConfig(), LidarConfig()
    img = render_frame(world, 0, cam)
    cloud = scan_frame(world, 0, cam, lidar)
    # upper half is sky, lower half sees the ground plane
    assert img.pixels.shape == (64, 64, 3)
    assert len(cloud) > 0
    cam_pts = cloud.xyz + lidar.offset
    assert np.all(cam_pts[:, 1] > 0)  # every hit below the horizon (y down)


def test_box_projection_cross_check():
    box = Box(center=np.array([0.0, 0.75, 10.0]), size=np.array([1.5, 1.5, 1.5]),
              velocity=np.zeros(3), albedo=np.array([200.0, 40.0, 40.0]))
    world = World(boxes=[box], trajectory=make_trajectory(2))
    cam = CameraConfig()
    img = render_frame(world, 0, cam)
    hit = np.argwhere(np.all(img.pixels == [200, 40, 40], axis=2))
    assert len(hit) > 0
    # the front-face corners bound the painted footprint within a pixel
    corners = []
    for dx in (-0.75, 0.75):
        for dy in (-0.75, 0.75):
            corners.append([box.center[0] + dx, box.center[1] + dy, 9.25])
    u, v, _, _ = project_points(np.array(corners), cam.projection(), 64, 64)
    assert hit[:, 1].min() >= np.floor(u.min()) - 1
    assert hit[:, 1].max() <= np.ceil(u.max()) + 1
    assert hit[:, 0].min() >= np.floor(v.min()) - 1
    assert hit[:, 0].max() <= np.ceil(v.max()) + 1


def test_straight_trajectory_constant_ego_delta():
    world = World(boxes=[], trajectory=make_trajectory(6, speed=0.5))
    seq = synth_sequence(world, 6, CameraConfig(), LidarConfig())
    for lf in seq:
        np.testing.assert_allclose(lf.ego_delta, [0.0, 0.0, 0.5], atol=1e-12)


def test_synth_needs_two_frames():
    world = World(boxes=[], trajectory=make_trajectory(2))
    with pytest.raises(ConfigError):
        synth_sequence(world, 1, CameraConfig(), LidarConfig())


def test_synth_degenerate_camera():
    world = World(boxes=[], trajectory=make_trajectory(3))
    with pytest.raises(ConfigError):
        synth_sequence(world, 3, CameraConfig(width=4, height=4), LidarConfig())


def test_seed_determinism_bit_identical():
    a = synth_sequence(_default_setup()[0], 4, CameraConfig(), LidarConfig())
    b = synth_sequence(_default_setup()[0], 4, CameraConfig(), LidarConfig())
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.frame.image.pixels, y.frame.image.pixels)
        np.testing.assert_array_equal(x.frame.cloud.points, y.frame.cloud.points)
        np.testing.assert_array_equal(x.waypoint, y.waypoint)


def test_reprojection_lands_in_bounds():
    world, cam, lidar = _default_setup()
    cloud = scan_frame(world, 0, cam, lidar)
    calib = CalibrationSet(P=cam.projection(), Tr=lidar.transform())
    cam_pts = cloud.xyz @ calib.Tr[:3, :3].T + calib.Tr[:3, 3]
    _, _, _, idx = project_points(cam_pts, calib.P, cam.width, cam.height)
    assert len(idx) >= 0.99 * len(cloud)


# -- degradation -------------------------------------------------------


def test_degrade_image_neutral_identity():
    rng = make_rng(0)
    img = Image(pixels=rng.integers(0, 256, (8, 8, 3), dtype=np.uint8))
    out = degrade_image(img, DegradationSpec(), make_rng(1))
    np.testing.assert_array_equal(out.pixels, img.pixels)


def test_degrade_image_blur_fixed_point():
    img = Image(pixels=np.full((8, 8, 3), 99, dtype=np.uint8))
    out = degrade_image(img, DegradationSpec(image_blur_radius=2), make_rng(0))
    np.testing.assert_array_equal(out.pixels, img.pixels)


def test_degrade_image_blur_lowers_clarity():
    check = (np.indices((16, 16)).sum(axis=0) % 2 * 200).astype(np.uint8)
    img = Image(pixels=np.repeat(check[:, :, None], 3, axis=2))
    tau = 1e6
    blurred = degrade_image(img, DegradationSpec(image_blur_radius=1), make_rng(0))
    assert reliability_image(blurred, tau) < reliability_image(img, tau)


def test_degrade_cloud_neutral_identity():
    rng = make_rng(2)
    pts = rng.normal(size=(50, 4))
    out = degrade_cloud(PointCloud(points=pts), DegradationSpec(), make_rng(3))
    np.testing.assert_array_equal(out.points, pts)


def test_degrade_cloud_binomial_bound():
    n = 10_000
    pts = make_rng(4).normal(size=(n, 4))
    out = degrade_cloud(PointCloud(points=pts),
                        DegradationSpec(cloud_dropout=0.5), make_rng(5))
    # 99.9% two-sided binomial bound: mean 5000, sigma 50
    assert abs(len(out) - 5000) < 3.29 * 50


def test_degrade_cloud_lowers_density_reliability():
    world, cam, lidar = _default_setup()
    cloud = scan_frame(world, 0, cam, lidar)
    calib = CalibrationSet(P=cam.projection(), Tr=lidar.transform())
    degraded = degrade_cloud(cloud, DegradationSpec(cloud_dropout=0.5), make_rng(6))
    assert (reliability_cloud(_in_frustum(degraded, calib, 64, 64))
            < reliability_cloud(_in_frustum(cloud, calib, 64, 64)))


def test_degradation_spec_validation():
    with pytest.raises(ConfigError):
        DegradationSpec(cloud_dropout=1.0).validate()
    with pytest.raises(ConfigError):
        DegradationSpec(image_noise_sigma=-1.0).validate()


# -- presets -----------------------------------------------------------


def test_standard_preset_neutral():
    _, spec = preset_scenario("standard")
    assert spec == DegradationSpec()


def test_unknown_preset():
    with pytest.raises(ConfigError):
        preset_scenario("fog")


def test_dynamic_preset_moves_boxes():
    world, spec = preset_scenario("dynamic", frames=4)
    assert spec == DegradationSpec()
    a = render_frame(world, 0, CameraConfig())
    b = render_frame(world, 3, CameraConfig())
    assert not np.array_equal(a.pixels, b.pixels)


def test_low_light_lowers_image_reliability():
    frames = 3
    std_world, _ = preset_scenario("standard", frames=frames)
    _, spec = preset_scenario("low_light", frames=frames)
    img = render_frame(std_world, 0, CameraConfig())
    dark = degrade_image(img, spec, make_rng(7))
    tau = 1e4
    assert reliability_image(dark, tau) < reliability_image(img, tau)


def test_lidar_degraded_lowers_cloud_reliability():
    world, spec = preset_scenario("lidar_degraded", frames=3)
    cam, lidar = CameraConfig(), LidarConfig()
    cloud = scan_frame(world, 0, cam, lidar)
    calib = CalibrationSet(P=cam.projection(), Tr=lidar.transform())
    degraded = degrade_cloud(cloud, spec, make_rng(8))
    assert (reliability_cloud(_in_frustum(degraded, calib, 64, 64))
            < reliability_cloud(_in_frustum(cloud, calib, 64, 64)))


def test_scenario_list():
    assert SCENARIOS == ("standard", "dynamic", "low_light", "lidar_degraded")


# -- end-to-end gating chain ------------------------------------------


def test_degradation_lowers_fusion_weight():
    # degraded modality: lower reliability AND lower fusion weight, with
    # fixed fusion parameters
    params = ParamRegistry()
    init_fusion_params(params, make_rng(0), 8, 8)
    world, cam, lidar = _default_setup()
    calib = CalibrationSet(P=cam.projection(), Tr=lidar.transform())
    img = render_frame(world, 0, cam)
    cloud = scan_frame(world, 0, cam, lidar)
    tau = 1e4
    feats = (Tensor(make_rng(1).normal(size=8)), Tensor(make_rng(2).normal(size=8)))
    f_rgb = semantic_map(feats[0], params, "rgb")
    f_lidar = semantic_map(feats[1], params, "lidar")

    r_img = reliability_image(img, tau)
    r_cloud = reliability_cloud(_in_frustum(cloud, calib, 64, 64))
    base_rgb, base_lidar = fusion_weights(f_rgb, f_lidar, ReliabilityScores(r_img, r_cloud),
                                          params).data

    _, low_light = preset_scenario("low_light")
    r_dark = reliability_image(degrade_image(img, low_light, make_rng(3)), tau)
    assert r_dark < r_img
    w_rgb, _ = fusion_weights(f_rgb, f_lidar, ReliabilityScores(r_dark, r_cloud), params).data
    assert w_rgb < base_rgb

    _, lidar_bad = preset_scenario("lidar_degraded")
    r_thin = reliability_cloud(_in_frustum(degrade_cloud(cloud, lidar_bad, make_rng(4)),
                                           calib, 64, 64))
    assert r_thin < r_cloud
    _, w_lidar = fusion_weights(f_rgb, f_lidar, ReliabilityScores(r_img, r_thin), params).data
    assert w_lidar < base_lidar


def test_synth_degradation_preserves_labels(tmp_path):
    # `navfuse synth` degrades the sensor data it writes; the labels read
    # back from the tree are those of the clean sequence
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"out_dir: {tmp_path}\nsynth: {{scenarios: [low_light], frames: 3}}\n")
    assert main(["synth", "--config", str(cfg)]) == 0
    out = load_sequences(tmp_path)[0]
    world, _ = preset_scenario("low_light", frames=3)
    seq = synth_sequence(world, 3, CameraConfig(), LidarConfig())
    assert len(out) == len(seq) == 2
    for got, clean in zip(out, seq):
        np.testing.assert_array_equal(got.waypoint, clean.waypoint)
        np.testing.assert_array_equal(got.ego_delta, clean.ego_delta)
        assert not np.array_equal(got.frame.image.pixels, clean.frame.image.pixels)
