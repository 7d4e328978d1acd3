"""Rigid transforms and pinhole projection linking LiDAR points to image pixels."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .kitti import CalibrationSet, PointCloud
from .tensor import Tensor

Z_NEAR_DEFAULT = 0.1
DEPTH_MAX_DEFAULT = 80.0


def lidar_to_camera(cloud: PointCloud, calib: CalibrationSet) -> PointCloud:
    """Apply the LiDAR->camera rigid transform; reflectance passes through."""
    xyz = cloud.xyz @ calib.Tr[:3, :3].T + calib.Tr[:3, 3]
    return PointCloud(points=np.column_stack([xyz, cloud.reflectance]),
                      dropped=cloud.dropped)


def project_points(xyz_cam: np.ndarray, P: np.ndarray, width: int, height: int,
                   z_near: float = Z_NEAR_DEFAULT):
    """Vectorized projection; returns (u, v, depth, kept_index) arrays.

    Keeps points with z > z_near landing inside the image; input order is
    preserved among the retained points.
    """
    if xyz_cam.shape[0] == 0:
        e = np.zeros(0)
        return e, e, e, np.zeros(0, dtype=int)
    homo = np.column_stack([xyz_cam, np.ones(len(xyz_cam))])
    proj = homo @ P.T
    z = xyz_cam[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = proj[:, 0] / proj[:, 2]
        v = proj[:, 1] / proj[:, 2]
    keep = (z > z_near) & (u >= 0) & (u < width) & (v >= 0) & (v < height)
    idx = np.flatnonzero(keep)
    return u[idx], v[idx], z[idx], idx


def render_sparse_depth_arrays(u: np.ndarray, v: np.ndarray, depth: np.ndarray,
                               width: int, height: int, cell: int = 1,
                               depth_max: float = DEPTH_MAX_DEFAULT) -> Tensor:
    """Min-depth z-buffer of projected points rasterized onto an
    (H/cell) x (W/cell) grid.

    Empty cells hold 0; occupied cells hold min depth / depth_max, clamped
    to [0, 1].
    """
    if cell <= 0 or width % cell or height % cell:
        raise ConfigError(f"cell {cell} must divide width {width} and height {height}")
    hh, ww = height // cell, width // cell
    grid = np.full(hh * ww, np.inf)
    if len(u):
        flat = (v.astype(int) // cell) * ww + (u.astype(int) // cell)
        np.minimum.at(grid, flat, depth)
    grid[~np.isfinite(grid)] = 0.0
    return Tensor(np.clip(grid / depth_max, 0.0, 1.0).reshape(1, hh, ww))
