"""Rigid transforms, pinhole projection, sparse depth rasterization."""

import numpy as np
import pytest

from navfuse.errors import ConfigError
from navfuse.geometry import (DEPTH_MAX_DEFAULT, lidar_to_camera, project_points,
                              render_sparse_depth_arrays)
from navfuse.kitti import CalibrationSet, PointCloud
from navfuse.params import make_rng


def _cloud(xyz, refl=None):
    xyz = np.atleast_2d(np.asarray(xyz, dtype=float))
    if refl is None:
        refl = np.full(len(xyz), 0.5)
    return PointCloud(points=np.column_stack([xyz, refl]))


def _calib(tr=None, f=100.0, cx=50.0, cy=50.0):
    p = np.array([[f, 0, cx, 0], [0, f, cy, 0], [0, 0, 1, 0]], dtype=float)
    return CalibrationSet(P=p, Tr=np.eye(4) if tr is None else tr)


def _project(cloud, width, height):
    u, v, d, _ = project_points(cloud.xyz, _calib().P, width, height)
    return list(zip(u.tolist(), v.tolist(), d.tolist()))


def _render(pixels, width, height, **kw):
    u, v, d = np.array(pixels, dtype=float).reshape(-1, 3).T
    return render_sparse_depth_arrays(u, v, d, width, height, **kw)


def _render_loop(pixels, width, height, cell=1, depth_max=DEPTH_MAX_DEFAULT):
    """Reference rasterizer, one point at a time: the per-cell minimum depth
    over depth_max, clamped to [0, 1]; empty cells hold 0."""
    hh, ww = height // cell, width // cell
    grid = np.full((hh, ww), np.inf)
    for u, v, depth in pixels:
        i, j = int(v) // cell, int(u) // cell
        if 0 <= i < hh and 0 <= j < ww and depth < grid[i, j]:
            grid[i, j] = depth
    grid[~np.isfinite(grid)] = 0.0
    return np.clip(grid / depth_max, 0.0, 1.0)[None, :, :]


def test_lidar_to_camera_identity():
    cloud = _cloud([[1, 2, 3]])
    out = lidar_to_camera(cloud, _calib())
    np.testing.assert_array_equal(out.points, cloud.points)


def test_lidar_to_camera_translation():
    tr = np.eye(4)
    tr[:3, 3] = [0, 0, 5]
    out = lidar_to_camera(_cloud([[0, 0, 0]]), _calib(tr))
    np.testing.assert_array_equal(out.xyz[0], [0, 0, 5])


def test_lidar_to_camera_90deg_yaw():
    # yaw about camera y (down): x right -> z backward under the convention
    tr = np.eye(4)
    tr[:3, :3] = [[0, 0, 1], [0, 1, 0], [-1, 0, 0]]
    out = lidar_to_camera(_cloud([[1, 0, 0]]), _calib(tr))
    np.testing.assert_allclose(out.xyz[0], [0, 0, -1], atol=1e-15)


def test_lidar_to_camera_rigidity():
    rng = make_rng(0)
    theta = 0.7
    tr = np.eye(4)
    tr[:3, :3] = [[np.cos(theta), 0, np.sin(theta)], [0, 1, 0],
                  [-np.sin(theta), 0, np.cos(theta)]]
    tr[:3, 3] = [1.0, -2.0, 0.5]
    pts = rng.normal(size=(40, 3))
    out = lidar_to_camera(_cloud(pts), _calib(tr))
    d_before = np.linalg.norm(pts[:, None] - pts[None], axis=2)
    d_after = np.linalg.norm(out.xyz[:, None] - out.xyz[None], axis=2)
    np.testing.assert_allclose(d_after, d_before, atol=1e-9)


def test_project_optical_axis():
    assert _project(_cloud([[0, 0, 10]]), 100, 100) == [(50.0, 50.0, 10.0)]


def test_project_hand_value():
    pix = _project(_cloud([[1, 0, 10]]), 200, 100)
    assert pix[0][0] == pytest.approx(60.0)


def test_project_behind_camera_filtered():
    assert _project(_cloud([[0, 0, -5]]), 100, 100) == []


def test_project_out_of_bounds_filtered():
    assert _project(_cloud([[100, 0, 10]]), 100, 100) == []


def test_project_order_preserved():
    cloud = _cloud([[0, 0, 10], [0, 0, -1], [0.1, 0, 10]])
    _, _, _, idx = project_points(cloud.xyz, _calib().P, 100, 100)
    np.testing.assert_array_equal(idx, [0, 2])


def test_project_empty_cloud():
    u, v, d, idx = project_points(np.zeros((0, 3)), _calib().P, 100, 100)
    assert len(u) == len(v) == len(d) == len(idx) == 0


def test_render_empty_all_zero():
    t = _render([], 8, 8, cell=1)
    assert t.shape == (1, 8, 8)
    assert np.all(t.data == 0.0)


def test_render_single_point_value():
    t = _render([(50.0, 50.0, 10.0)], 100, 100, cell=1, depth_max=80.0)
    assert t.data[0, 50, 50] == 0.125
    assert np.count_nonzero(t.data) == 1


def test_render_min_rule():
    t = _render([(3.0, 3.0, 10.0), (3.0, 3.0, 5.0)], 8, 8, cell=1, depth_max=80.0)
    assert t.data[0, 3, 3] == 5.0 / 80.0


def test_render_cell_must_divide():
    with pytest.raises(ConfigError):
        _render([], 10, 10, cell=3)


def test_render_range_and_monotone_under_removal():
    rng = make_rng(1)
    pix = [(float(rng.uniform(0, 8)), float(rng.uniform(0, 8)), float(rng.uniform(1, 100)))
           for _ in range(50)]
    full = _render(pix, 8, 8, cell=1).data
    assert np.all(full >= 0) and np.all(full <= 1)
    sub = _render(pix[:25], 8, 8, cell=1).data
    both = (full > 0) & (sub > 0)
    assert np.all(sub[both] >= full[both])


def test_render_arrays_matches_list_variant():
    rng = make_rng(2)
    n = 200
    u = rng.uniform(0, 16, n)
    v = rng.uniform(0, 16, n)
    d = rng.uniform(0.5, 90, n)
    a = _render_loop(list(zip(u, v, d)), 16, 16, cell=2)
    b = render_sparse_depth_arrays(u, v, d, 16, 16, cell=2).data
    np.testing.assert_array_equal(a, b)
