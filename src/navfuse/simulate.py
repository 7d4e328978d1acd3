"""Synthetic paired camera/LiDAR sequences: a box-world ray tracer, sensor
degradation models, and named scenario presets."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .kitti import (CalibrationSet, Frame, Image, LabeledFrame, PointCloud, Pose,
                    derive_labels)

SKY_RGB = np.array([135.0, 206.0, 235.0])
CHECKER_DARK = 60.0
CHECKER_LIGHT = 200.0
GROUND_Y = 1.5  # camera frame: y down, camera 1.5 m above ground


@dataclass
class Box:
    center: np.ndarray    # world frame at t=0
    size: np.ndarray      # full extents
    velocity: np.ndarray  # meters per frame
    albedo: np.ndarray    # RGB in [0, 255]


@dataclass
class World:
    boxes: list[Box]
    trajectory: list[Pose]
    ground_y: float = GROUND_Y
    checker_m: float = 1.0


@dataclass
class CameraConfig:
    width: int = 64
    height: int = 64
    focal: float = 64.0

    @property
    def cx(self) -> float:
        return self.width / 2.0

    @property
    def cy(self) -> float:
        return self.height / 2.0

    def validate(self):
        if self.focal <= 0 or self.width < 8 or self.height < 8:
            raise ConfigError("degenerate camera configuration")
        return self

    def projection(self) -> np.ndarray:
        return np.array([[self.focal, 0.0, self.cx, 0.0],
                         [0.0, self.focal, self.cy, 0.0],
                         [0.0, 0.0, 1.0, 0.0]])


@dataclass
class LidarConfig:
    n_azimuth: int = 64
    n_elevation: int = 16
    # translation-only LiDAR->camera offset keeps the frame change exactly invertible
    offset: np.ndarray = field(default_factory=lambda: np.array([0.0, -0.08, -0.27]))

    def validate(self):
        if self.n_azimuth < 1 or self.n_elevation < 1:
            raise ConfigError("n_azimuth and n_elevation must be >= 1")
        return self

    def transform(self) -> np.ndarray:
        tr = np.eye(4)
        tr[:3, 3] = self.offset
        return tr


@dataclass
class DegradationSpec:
    image_blur_radius: int = 0
    brightness_scale: float = 1.0
    image_noise_sigma: float = 0.0
    cloud_dropout: float = 0.0
    cloud_jitter_sigma: float = 0.0

    def validate(self):
        if not (0.0 <= self.cloud_dropout < 1.0):
            raise ConfigError("cloud_dropout must be in [0, 1)")
        if (self.image_blur_radius < 0 or self.brightness_scale < 0
                or self.image_noise_sigma < 0 or self.cloud_jitter_sigma < 0):
            raise ConfigError("degradation magnitudes must be >= 0")
        return self


def make_trajectory(frames: int, speed: float = 0.5, yaw_rate_deg: float = 0.0) -> list[Pose]:
    """Constant-speed ego path with a constant scripted yaw rate."""
    poses = []
    pos = np.zeros(3)
    theta = 0.0
    for _ in range(frames):
        c, s = np.cos(theta), np.sin(theta)
        r = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
        t = np.eye(4)
        t[:3, :3] = r
        t[:3, 3] = pos
        poses.append(Pose(T=t))
        pos = pos + r @ np.array([0.0, 0.0, speed])
        theta += np.deg2rad(yaw_rate_deg)
    return poses


def _ray_cast(origins: np.ndarray, dirs: np.ndarray, boxes: list[Box],
              t_frame: int, ground_y: float):
    """Nearest hit per ray; returns (t_hit, hit_kind) with kind -1 none,
    -2 ground, else box index. dirs need not be normalized; t is in units
    of |dir| (camera depth when dir_z == 1)."""
    n = dirs.shape[0]
    t_best = np.full(n, np.inf)
    kind = np.full(n, -1, dtype=int)
    dy = dirs[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_ground = (ground_y - origins[:, 1]) / dy
    ok = (dy > 1e-12) & (t_ground > 1e-9)
    t_best[ok] = t_ground[ok]
    kind[ok] = -2
    safe_dirs = np.where(np.abs(dirs) < 1e-12, 1e-12, dirs)
    for bi, box in enumerate(boxes):
        center = box.center + box.velocity * t_frame
        bmin = center - box.size / 2.0
        bmax = center + box.size / 2.0
        t1 = (bmin - origins) / safe_dirs
        t2 = (bmax - origins) / safe_dirs
        enter = np.minimum(t1, t2).max(axis=1)
        exit_ = np.maximum(t1, t2).min(axis=1)
        hit = (enter <= exit_) & (exit_ > 1e-9)
        t_hit = np.where(enter > 1e-9, enter, exit_)
        closer = hit & (t_hit < t_best)
        t_best[closer] = t_hit[closer]
        kind[closer] = bi
    return t_best, kind


def _shade(origins, dirs, t_hit, kind, boxes, world: World) -> np.ndarray:
    colors = np.tile(SKY_RGB, (dirs.shape[0], 1))
    ground = kind == -2
    if ground.any():
        pts = origins[ground] + dirs[ground] * t_hit[ground, None]
        parity = (np.floor(pts[:, 0] / world.checker_m)
                  + np.floor(pts[:, 2] / world.checker_m)).astype(int) & 1
        colors[ground] = np.where(parity[:, None] == 0, CHECKER_DARK, CHECKER_LIGHT)
    for bi, box in enumerate(boxes):
        mask = kind == bi
        if mask.any():
            colors[mask] = box.albedo
    return colors


def render_frame(world: World, t: int, cam: CameraConfig) -> Image:
    """Flat-shaded render by per-pixel ray casting (painter's order implicit
    in the nearest-hit rule)."""
    pose = world.trajectory[t].T
    r, p = pose[:3, :3], pose[:3, 3]
    jj, ii = np.meshgrid(np.arange(cam.width), np.arange(cam.height))
    dirs_cam = np.stack([(jj.ravel() + 0.5 - cam.cx) / cam.focal,
                         (ii.ravel() + 0.5 - cam.cy) / cam.focal,
                         np.ones(cam.width * cam.height)], axis=1)
    dirs = dirs_cam @ r.T
    origins = np.tile(p, (dirs.shape[0], 1))
    t_hit, kind = _ray_cast(origins, dirs, world.boxes, t, world.ground_y)
    colors = _shade(origins, dirs, t_hit, kind, world.boxes, world)
    img = colors.reshape(cam.height, cam.width, 3)
    return Image(pixels=np.clip(img, 0, 255).astype(np.uint8))


def scan_frame(world: World, t: int, cam: CameraConfig, lidar: LidarConfig) -> PointCloud:
    """Cast a frustum-matched azimuth x elevation ray grid; points come out
    in the LiDAR frame so the standard calib path re-derives camera space."""
    pose = world.trajectory[t].T
    r, p = pose[:3, :3], pose[:3, 3]
    du = cam.width / lidar.n_azimuth
    dv = cam.height / lidar.n_elevation
    us = (np.arange(lidar.n_azimuth) + 0.5) * du
    vs = (np.arange(lidar.n_elevation) + 0.5) * dv
    uu, vv = np.meshgrid(us, vs)
    dirs_cam = np.stack([(uu.ravel() - cam.cx) / cam.focal,
                         (vv.ravel() - cam.cy) / cam.focal,
                         np.ones(uu.size)], axis=1)
    dirs = dirs_cam @ r.T
    origins = np.tile(p, (dirs.shape[0], 1))
    t_hit, kind = _ray_cast(origins, dirs, world.boxes, t, world.ground_y)
    hit = kind != -1
    pts_cam = dirs_cam[hit] * t_hit[hit, None]
    refl = np.full(pts_cam.shape[0], 0.5)
    for bi, box in enumerate(world.boxes):
        refl[kind[hit] == bi] = float(np.mean(box.albedo) / 255.0)
    pts_lidar = pts_cam - lidar.offset
    return PointCloud(points=np.column_stack([pts_lidar, refl]))


def synth_sequence(world: World, frames: int, cam: CameraConfig, lidar: LidarConfig,
                   lookahead_m: float = 5.0) -> list[LabeledFrame]:
    """Generate a labeled synthetic sequence (undegraded)."""
    if frames < 2:
        raise ConfigError("synth_sequence needs frames >= 2")
    if len(world.trajectory) < frames:
        raise ConfigError("world trajectory shorter than requested frame count")
    cam.validate()
    calib = CalibrationSet(P=cam.projection(), Tr=lidar.transform()).validate()
    poses = world.trajectory[:frames]
    labels = derive_labels(poses, lookahead_m)
    out = []
    for t in range(frames - 1):
        frame = Frame(index=t, image=render_frame(world, t, cam),
                      cloud=scan_frame(world, t, cam, lidar), calib=calib,
                      pose=poses[t])
        w, d = labels[t]
        out.append(LabeledFrame(frame=frame, waypoint=w, ego_delta=d))
    return out


# -- degradation -------------------------------------------------------


def _box_blur_once(img: np.ndarray) -> np.ndarray:
    """3x3 mean filter with replicated edges."""
    padded = np.pad(img, ((1, 1), (1, 1), (0, 0)), mode="edge")
    acc = np.zeros_like(img)
    for di in range(3):
        for dj in range(3):
            acc += padded[di:di + img.shape[0], dj:dj + img.shape[1]]
    return acc / 9.0


def degrade_image(image: Image, spec: DegradationSpec, rng: np.random.Generator) -> Image:
    """Blur, then brightness scaling about zero, then additive Gaussian noise."""
    spec.validate()
    px = image.pixels.astype(np.float64)
    for _ in range(spec.image_blur_radius):
        px = _box_blur_once(px)
    if spec.brightness_scale != 1.0:
        px = px * spec.brightness_scale
    if spec.image_noise_sigma > 0.0:
        px = px + rng.normal(scale=spec.image_noise_sigma, size=px.shape)
    return Image(pixels=np.clip(px, 0.0, 255.0).astype(np.uint8))


def degrade_cloud(cloud: PointCloud, spec: DegradationSpec,
                  rng: np.random.Generator) -> PointCloud:
    """Random point dropout plus isotropic position jitter on survivors."""
    spec.validate()
    pts = cloud.points
    if spec.cloud_dropout > 0.0:
        keep = rng.random(len(pts)) >= spec.cloud_dropout
        pts = pts[keep]
    else:
        pts = pts.copy()
    if spec.cloud_jitter_sigma > 0.0 and len(pts):
        pts = pts.copy()
        pts[:, :3] += rng.normal(scale=spec.cloud_jitter_sigma, size=(len(pts), 3))
    return PointCloud(points=pts, dropped=cloud.dropped)


# -- presets -----------------------------------------------------------

SCENARIOS = ("standard", "dynamic", "low_light", "lidar_degraded")


def _default_boxes(moving: bool) -> list[Box]:
    vel = np.array([0.0, 0.0, 0.5]) if moving else np.zeros(3)
    specs = [
        ((-2.5, 0.75, 10.0), (1.5, 1.5, 1.5), (200, 40, 40)),
        ((2.0, 0.75, 16.0), (1.5, 1.5, 1.5), (40, 200, 40)),
        ((-1.5, 0.75, 26.0), (1.5, 1.5, 1.5), (40, 40, 200)),
        ((3.0, 0.75, 34.0), (1.5, 1.5, 1.5), (220, 220, 40)),
    ]
    return [Box(center=np.array(c), size=np.array(s), velocity=vel.copy(),
                albedo=np.array(a, dtype=float)) for c, s, a in specs]


def preset_scenario(name: str, frames: int = 50, speed: float = 0.5,
                    yaw_rate_deg: float = 0.5) -> tuple[World, DegradationSpec]:
    """Named scenario: world layout plus the sensor degradation applied to it."""
    if name not in SCENARIOS:
        raise ConfigError(f"unknown scenario {name!r}; choose from {SCENARIOS}")
    trajectory = make_trajectory(frames, speed=speed, yaw_rate_deg=yaw_rate_deg)
    moving = name == "dynamic"
    world = World(boxes=_default_boxes(moving), trajectory=trajectory)
    if name == "low_light":
        # noise stays small relative to the blur + darkening loss so the
        # scenario lowers image sharpness on low-texture frames too
        spec = DegradationSpec(image_blur_radius=1, brightness_scale=0.3,
                               image_noise_sigma=2.0)
    elif name == "lidar_degraded":
        spec = DegradationSpec(cloud_dropout=0.5, cloud_jitter_sigma=0.05)
    else:
        spec = DegradationSpec()
    return world, spec.validate()
