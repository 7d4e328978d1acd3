"""KITTI-format parsing, label derivation, augmentation."""

import io
import struct
import sys

import numpy as np
import pytest

from navfuse.errors import FormatError
from navfuse.kitti import (AugmentPolicy, CalibrationSet, Frame, Image, LabeledFrame,
                           PointCloud, Pose, augment_frame,
                           derive_labels, load_image, load_ppm, parse_calib,
                           parse_poses, parse_velodyne_bin, save_ppm,
                           serialize_calib, serialize_poses, serialize_velodyne_bin)
from navfuse.params import make_rng

# -- velodyne ----------------------------------------------------------


def test_velodyne_single_record():
    raw = struct.pack("<4f", 1.0, 2.0, 3.0, 0.5)
    cloud = parse_velodyne_bin(raw)
    assert len(cloud) == 1
    np.testing.assert_array_equal(cloud.points[0], [1.0, 2.0, 3.0, 0.5])


def test_velodyne_empty():
    cloud = parse_velodyne_bin(b"")
    assert len(cloud) == 0
    assert cloud.dropped == 0


def test_velodyne_misaligned():
    with pytest.raises(FormatError):
        parse_velodyne_bin(b"\x00" * 15)


def test_velodyne_nonfinite_dropped_with_count():
    raw = struct.pack("<4f", 1, 2, 3, 0.5) + struct.pack("<4f", float("nan"), 0, 0, 0)
    cloud = parse_velodyne_bin(raw)
    assert len(cloud) == 1
    assert cloud.dropped == 1


def test_velodyne_reflectance_clamped():
    raw = struct.pack("<4f", 0, 0, 0, 2.5) + struct.pack("<4f", 0, 0, 0, -1.0)
    cloud = parse_velodyne_bin(raw)
    np.testing.assert_array_equal(cloud.reflectance, [1.0, 0.0])


def test_velodyne_roundtrip_bit_exact():
    rng = make_rng(0)
    pts = rng.normal(size=(100, 4)).astype(np.float32).astype(np.float64)
    pts[:, 3] = np.clip(pts[:, 3], 0, 1)
    raw = serialize_velodyne_bin(PointCloud(points=pts))
    assert serialize_velodyne_bin(parse_velodyne_bin(raw)) == raw


# -- calib -------------------------------------------------------------

CALIB_MIN = ("P2: 100.0 0 50 0 0 100.0 50 0 0 0 1 0\n"
             "Tr: 1 0 0 0 0 1 0 0 0 0 1 0\n")


def test_calib_minimal():
    calib = parse_calib(CALIB_MIN)
    assert calib.P[0, 0] == 100.0
    np.testing.assert_array_equal(calib.Tr, np.eye(4))


def test_calib_wrong_arity_names_key():
    with pytest.raises(FormatError, match="Tr"):
        parse_calib("P2: 100 0 50 0 0 100 50 0 0 0 1 0\nTr: 1 0 0 0 0 1 0 0 0 0 1\n")


def test_calib_extra_keys_ignored():
    extra = "P0: 1 0 0 0 0 1 0 0 0 0 1 0\nP1: 1 0 0 0 0 1 0 0 0 0 1 0\n"
    calib = parse_calib(extra + CALIB_MIN)
    assert calib.P[0, 2] == 50.0


def test_calib_missing_key():
    with pytest.raises(FormatError, match="P2"):
        parse_calib("Tr: 1 0 0 0 0 1 0 0 0 0 1 0\n")


@pytest.mark.parametrize("text", [
    "P2: nan 0 50 0 0 100 50 0 0 0 1 0\nTr: 1 0 0 0 0 1 0 0 0 0 1 0\n",
    "P2: 100 0 50 0 0 inf 50 0 0 0 1 0\nTr: 1 0 0 0 0 1 0 0 0 0 1 0\n",
    "P2: 100 0 50 0 0 100 50 0 0 0 1 0\nTr: 1 0 0 nan 0 1 0 0 0 0 1 0\n",
    "P2: 100 0 50 0 0 100 50 0 0 0 1 0\nTr: 1 0 0 0 0 1 0 0 0 0 1 x\n",
])
def test_calib_non_finite_or_non_numeric_rejected(text):
    # the same 3x4 reader as the poses, so the same rejections
    with pytest.raises(FormatError, match="calibration key"):
        parse_calib(text)


def test_calib_roundtrip():
    rng = make_rng(2)
    theta = rng.uniform(-np.pi, np.pi)
    c, s = np.cos(theta), np.sin(theta)
    tr = np.eye(4)
    tr[:3, :3] = [[c, -s, 0], [s, c, 0], [0, 0, 1]]
    tr[:3, 3] = rng.normal(size=3)
    p = np.array([[rng.uniform(50, 800), 0, rng.uniform(10, 600), rng.normal()],
                  [0, rng.uniform(50, 800), rng.uniform(10, 200), rng.normal()],
                  [0, 0, 1, rng.normal()]])
    back = parse_calib(serialize_calib(CalibrationSet(P=p, Tr=tr)))
    np.testing.assert_array_equal(back.P, p)
    np.testing.assert_array_equal(back.Tr, tr)


# -- poses -------------------------------------------------------------


def test_poses_identity_line():
    poses = parse_poses("1 0 0 0 0 1 0 0 0 0 1 0\n")
    assert len(poses) == 1
    np.testing.assert_array_equal(poses[0].T, np.eye(4))


def test_poses_count():
    text = "1 0 0 0 0 1 0 0 0 0 1 0\n" * 100
    assert len(parse_poses(text)) == 100


def test_poses_wrong_arity_reports_line():
    text = "1 0 0 0 0 1 0 0 0 0 1 0\n1 0 0 0 0 1 0 0 0 0 1 0 9\n"
    with pytest.raises(FormatError, match="line 2"):
        parse_poses(text)


@pytest.mark.parametrize("line", ["a " * 12, "1 0 0 0 0 1 0 0 0 0 1 x", "nan " * 12,
                                  "1 0 0 0 0 1 0 0 0 0 1 inf"])
def test_poses_non_numeric_rejected(line):
    with pytest.raises(FormatError, match="line 2"):
        parse_poses("1 0 0 0 0 1 0 0 0 0 1 0\n" + line + "\n")


def test_poses_non_orthonormal_rejected():
    with pytest.raises(FormatError, match="orthonormal"):
        parse_poses("2 0 0 0 0 2 0 0 0 0 2 0\n")


def test_poses_roundtrip():
    rng = make_rng(1)
    poses = []
    for _ in range(5):
        theta = rng.uniform(-np.pi, np.pi)
        c, s = np.cos(theta), np.sin(theta)
        t = np.eye(4)
        t[:3, :3] = [[c, 0, s], [0, 1, 0], [-s, 0, c]]
        t[:3, 3] = rng.normal(size=3)
        poses.append(Pose(T=t))
    back = parse_poses(serialize_poses(poses))
    for a, b in zip(poses, back):
        np.testing.assert_array_equal(a.T, b.T)


# -- images ------------------------------------------------------------


def test_ppm_two_pixel_fixture():
    raw = b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 255, 0])
    img = load_ppm(raw)
    assert (img.width, img.height) == (2, 1)
    np.testing.assert_array_equal(img.pixels[0, 0], [255, 0, 0])
    np.testing.assert_array_equal(img.pixels[0, 1], [0, 255, 0])


def test_ppm_bad_maxval():
    with pytest.raises(FormatError, match="maxval"):
        load_ppm(b"P6\n1 1\n65535\n\x00\x00\x00\x00\x00\x00")


def test_ppm_truncated_reports_offset():
    with pytest.raises(FormatError, match="offset"):
        load_ppm(b"P6\n2 2\n255\n" + b"\x00" * 5)


def test_ppm_bad_magic():
    with pytest.raises(FormatError, match="magic"):
        load_ppm(b"P5\n1 1\n255\n\x00")


def test_ppm_comment_tolerant():
    raw = b"P6\n# made by hand\n1 1\n255\n\x01\x02\x03"
    np.testing.assert_array_equal(load_ppm(raw).pixels[0, 0], [1, 2, 3])


def test_ppm_roundtrip_bit_exact():
    rng = make_rng(2)
    img = Image(pixels=rng.integers(0, 256, size=(6, 8, 3), dtype=np.uint8))
    raw = save_ppm(img)
    assert save_ppm(load_ppm(raw)) == raw


@pytest.mark.parametrize("size", [b"-2 3", b"0 3", b"3 0"])
def test_ppm_size_below_one(size):
    with pytest.raises(FormatError, match="at least 1x1"):
        load_ppm(b"P6\n" + size + b"\n255\n" + b"\x00" * 27)


def test_png_roundtrip():
    pil_image = pytest.importorskip("PIL.Image")
    pixels = make_rng(3).integers(0, 256, size=(6, 8, 3), dtype=np.uint8)
    buf = io.BytesIO()
    pil_image.fromarray(pixels).save(buf, format="PNG")
    np.testing.assert_array_equal(load_image(buf.getvalue(), fmt="png").pixels, pixels)


def test_png_without_pillow_is_format_error(monkeypatch):
    monkeypatch.setitem(sys.modules, "PIL", None)
    with pytest.raises(FormatError, match="Pillow"):
        load_image(b"\x89PNG\r\n\x1a\n", fmt="png")


def test_load_image_unknown_format():
    with pytest.raises(FormatError):
        load_image(b"", fmt="bmp")


# -- labels ------------------------------------------------------------


def _straight_poses(n, step=1.0):
    poses = []
    for i in range(n):
        t = np.eye(4)
        t[2, 3] = i * step
        poses.append(Pose(T=t))
    return poses


def test_labels_constant_velocity():
    labels = derive_labels(_straight_poses(10), lookahead_m=5.0)
    assert len(labels) == 9
    for _, ego in labels:
        np.testing.assert_allclose(ego, [0.0, 0.0, 1.0], atol=1e-12)


def test_labels_lookahead_waypoint():
    labels = derive_labels(_straight_poses(10), lookahead_m=5.0)
    # first future pose >= 5 m ahead of frame 0 is frame 5 -> forward 5
    np.testing.assert_allclose(labels[0][0], [5.0, 0.0], atol=1e-12)


def test_labels_fallback_to_last_pose():
    labels = derive_labels(_straight_poses(4), lookahead_m=100.0)
    # nothing is 100 m ahead, so the waypoint falls back to the final pose
    np.testing.assert_allclose(labels[0][0], [3.0, 0.0], atol=1e-12)


def test_labels_clamped_to_max_step():
    labels = derive_labels(_straight_poses(10, step=3.0), lookahead_m=5.0, max_step=5.0)
    assert np.all(np.abs(np.stack([w for w, _ in labels])) <= 5.0)


def test_labels_single_pose_empty():
    assert derive_labels(_straight_poses(1)) == []


def test_labels_reintegrate_to_pose_translations():
    rng = make_rng(3)
    poses = []
    pos = np.zeros(3)
    theta = 0.0
    for _ in range(20):
        c, s = np.cos(theta), np.sin(theta)
        t = np.eye(4)
        t[:3, :3] = [[c, 0, s], [0, 1, 0], [-s, 0, c]]
        t[:3, 3] = pos
        poses.append(Pose(T=t))
        pos = pos + t[:3, :3] @ np.array([0.02, 0.0, 0.5])
        theta += rng.uniform(0.0, 0.05)
    labels = derive_labels(poses, max_step=5.0)
    cur = poses[0].T[:3, 3].copy()
    for t, (_, ego) in enumerate(labels):
        cur = cur + poses[t].T[:3, :3] @ ego
        np.testing.assert_allclose(cur, poses[t + 1].T[:3, 3], atol=1e-9)


# -- augmentation ------------------------------------------------------


def _labeled_fixture():
    rng = make_rng(5)
    pts = rng.normal(size=(30, 4))
    pts[:, 3] = np.clip(pts[:, 3], 0, 1)
    frame = Frame(index=0,
                  image=Image(pixels=rng.integers(0, 256, (8, 8, 3), dtype=np.uint8)),
                  cloud=PointCloud(points=pts), calib=parse_calib(CALIB_MIN),
                  pose=Pose(T=np.eye(4)))
    return LabeledFrame(frame=frame, waypoint=np.array([4.0, 1.0]),
                        ego_delta=np.array([0.1, 0.0, 0.5]))


def test_augment_neutral_identity():
    lf = _labeled_fixture()
    policy = AugmentPolicy(flip_prob=0.0, brightness_scale=(1.0, 1.0),
                           brightness_shift=(0.0, 0.0), yaw_deg=0.0, jitter_sigma=0.0)
    out = augment_frame(lf, make_rng(0), policy)
    np.testing.assert_array_equal(out.frame.image.pixels, lf.frame.image.pixels)
    np.testing.assert_allclose(out.frame.cloud.points, lf.frame.cloud.points, atol=1e-12)
    np.testing.assert_array_equal(out.waypoint, lf.waypoint)
    np.testing.assert_array_equal(out.ego_delta, lf.ego_delta)


def test_augment_forced_flip_sign_rule():
    lf = _labeled_fixture()
    policy = AugmentPolicy(flip_prob=1.0, brightness_scale=(1.0, 1.0),
                           brightness_shift=(0.0, 0.0), yaw_deg=0.0, jitter_sigma=0.0)
    out = augment_frame(lf, make_rng(0), policy)
    np.testing.assert_array_equal(out.waypoint, [4.0, -1.0])
    assert out.ego_delta[0] == -lf.ego_delta[0]


def test_augment_double_flip_involution():
    lf = _labeled_fixture()
    policy = AugmentPolicy(flip_prob=1.0, brightness_scale=(1.0, 1.0),
                           brightness_shift=(0.0, 0.0), yaw_deg=0.0, jitter_sigma=0.0)
    once = augment_frame(lf, make_rng(0), policy)
    twice = augment_frame(once, make_rng(0), policy)
    np.testing.assert_array_equal(twice.frame.image.pixels, lf.frame.image.pixels)
    np.testing.assert_allclose(twice.frame.cloud.points, lf.frame.cloud.points, atol=1e-12)
    np.testing.assert_array_equal(twice.waypoint, lf.waypoint)


def test_augment_preserves_bounds():
    lf = _labeled_fixture()
    for seed in range(20):
        out = augment_frame(lf, make_rng(seed), AugmentPolicy(), max_step=5.0)
        assert np.all(np.abs(out.waypoint) <= 5.0)
        assert np.all(np.abs(out.ego_delta) <= 5.0)
        assert out.frame.image.pixels.dtype == np.uint8


def test_augment_brightness_formula():
    lf = _labeled_fixture()
    policy = AugmentPolicy(flip_prob=0.0, brightness_scale=(1.1, 1.1),
                           brightness_shift=(5.0, 5.0), yaw_deg=0.0, jitter_sigma=0.0)
    out = augment_frame(lf, make_rng(0), policy)
    expect = np.clip(1.1 * (lf.frame.image.pixels.astype(float) - 128) + 128 + 5,
                     0, 255).astype(np.uint8)
    np.testing.assert_array_equal(out.frame.image.pixels, expect)
