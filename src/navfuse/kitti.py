"""KITTI-odometry-format ingestion: velodyne .bin, calib.txt, poses, PPM images,
sequence loading with derived labels, and training augmentations.

Camera-frame axis convention used throughout the package: x right, y down,
z forward; "forward, lateral" = (z, x).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FormatError

# -- domain types ------------------------------------------------------


@dataclass
class PointCloud:
    points: np.ndarray  # N x 4 float64: x, y, z [m], reflectance in [0,1]
    dropped: int = 0    # non-finite records discarded on load

    def __len__(self):
        return self.points.shape[0]

    @property
    def xyz(self) -> np.ndarray:
        return self.points[:, :3]

    @property
    def reflectance(self) -> np.ndarray:
        return self.points[:, 3]


@dataclass
class Image:
    pixels: np.ndarray  # H x W x 3 uint8, RGB

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass
class CalibrationSet:
    P: np.ndarray   # 3x4 camera projection (pixels)
    Tr: np.ndarray  # 4x4 rigid transform, LiDAR frame -> camera frame

    def to_camera(self, xyz: np.ndarray) -> np.ndarray:
        """N x 3 LiDAR-frame points in the camera frame."""
        return xyz @ self.Tr[:3, :3].T + self.Tr[:3, 3]

    def from_camera(self, xyz: np.ndarray) -> np.ndarray:
        """Inverse of to_camera."""
        return (xyz - self.Tr[:3, 3]) @ self.Tr[:3, :3]

    def validate(self):
        if self.P.shape != (3, 4) or self.Tr.shape != (4, 4):
            raise FormatError("calibration matrices have wrong shapes")
        if not np.allclose(self.Tr[3], [0, 0, 0, 1]):
            raise FormatError("Tr bottom row must be (0,0,0,1)")
        r = self.Tr[:3, :3]
        if not np.allclose(r @ r.T, np.eye(3), atol=1e-6):
            raise FormatError("Tr rotation block not orthonormal")
        if self.P[2, 2] == 0:
            raise FormatError("P[2][2] must be nonzero")
        return self


@dataclass
class Pose:
    T: np.ndarray  # 4x4 rigid transform, camera at time t -> world


@dataclass
class Frame:
    index: int
    image: Image
    cloud: PointCloud
    calib: CalibrationSet
    pose: Pose


@dataclass
class LabeledFrame:
    frame: Frame
    waypoint: np.ndarray   # (forward, lateral) [m] in current camera frame
    ego_delta: np.ndarray  # translation to next pose, current camera frame [m]


@dataclass
class AugmentPolicy:
    flip_prob: float = 0.5
    brightness_scale: tuple[float, float] = (0.8, 1.2)
    brightness_shift: tuple[float, float] = (-20.0, 20.0)
    yaw_deg: float = 5.0
    jitter_sigma: float = 0.01


# -- binary / text parsers --------------------------------------------


def parse_velodyne_bin(raw: bytes) -> PointCloud:
    """Decode packed little-endian float32 (x, y, z, reflectance) records."""
    if len(raw) % 16 != 0:
        raise FormatError(f"velodyne payload length {len(raw)} not a multiple of 16 "
                          f"(trailing fragment at offset {len(raw) - len(raw) % 16})")
    pts = np.frombuffer(raw, dtype="<f4").reshape(-1, 4).astype(np.float64)
    finite = np.all(np.isfinite(pts), axis=1)
    dropped = int(np.count_nonzero(~finite))
    pts = pts[finite].copy()
    pts[:, 3] = np.clip(pts[:, 3], 0.0, 1.0)
    return PointCloud(points=pts, dropped=dropped)


def serialize_velodyne_bin(cloud: PointCloud) -> bytes:
    return cloud.points.astype("<f4").tobytes()


def _parse_3x4(fields: list[str], what: str) -> np.ndarray:
    """12 finite floats, row-major, as a 3x4 matrix; FormatError naming
    `what` otherwise."""
    if len(fields) != 12:
        raise FormatError(f"{what}: expected 12 floats, got {len(fields)}")
    try:
        mat = np.array([float(v) for v in fields], dtype=np.float64).reshape(3, 4)
    except ValueError as e:
        raise FormatError(f"{what}: {e}") from None
    if not np.all(np.isfinite(mat)):
        raise FormatError(f"{what}: non-finite value")
    return mat


def parse_calib(text: str) -> CalibrationSet:
    """Read P (from the P2 line) and Tr from a KITTI calib.txt body."""
    entries = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or ":" not in line:
            continue
        key, _, rest = line.partition(":")
        key = key.strip()
        entries[key] = _parse_3x4(rest.split(), f"calibration key {key!r}")
    for required in ("P2", "Tr"):
        if required not in entries:
            raise FormatError(f"calibration file missing key {required!r}")
    tr = np.vstack([entries["Tr"], [0.0, 0.0, 0.0, 1.0]])
    return CalibrationSet(P=entries["P2"], Tr=tr).validate()


def serialize_calib(calib: CalibrationSet) -> str:
    """calib.txt body with the P2 and Tr lines that parse_calib reads."""
    p_line = "P2: " + " ".join(repr(float(v)) for v in calib.P.ravel())
    tr_line = "Tr: " + " ".join(repr(float(v)) for v in calib.Tr[:3].ravel())
    return p_line + "\n" + tr_line + "\n"


def parse_poses(text: str) -> list[Pose]:
    """One 3x4 row-major rigid transform per non-empty line."""
    poses = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        mat = _parse_3x4(line.split(), f"pose line {lineno}")
        t = np.vstack([mat, [0.0, 0.0, 0.0, 1.0]])
        r = t[:3, :3]
        defect = float(np.abs(r @ r.T - np.eye(3)).max())
        if defect > 1e-1:
            raise FormatError(f"pose line {lineno}: rotation not orthonormal (defect {defect:.3g})")
        poses.append(Pose(T=t))
    return poses


def serialize_poses(poses: list[Pose]) -> str:
    lines = []
    for p in poses:
        lines.append(" ".join(repr(float(v)) for v in p.T[:3].ravel()))
    return "\n".join(lines) + "\n"


# -- images ------------------------------------------------------------


def _ppm_token(raw: bytes, pos: int) -> tuple[bytes, int]:
    # skip whitespace and '#' comments
    n = len(raw)
    while pos < n:
        c = raw[pos:pos + 1]
        if c == b"#":
            while pos < n and raw[pos:pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not raw[pos:pos + 1].isspace():
        pos += 1
    if start == pos:
        raise FormatError("truncated PPM header")
    return raw[start:pos], pos


def load_ppm(raw: bytes) -> Image:
    if raw[:2] != b"P6":
        raise FormatError("bad PPM magic (expected P6)")
    pos = 2
    (w_tok, pos) = _ppm_token(raw, pos)
    (h_tok, pos) = _ppm_token(raw, pos)
    (maxval_tok, pos) = _ppm_token(raw, pos)
    try:
        width, height, maxval = int(w_tok), int(h_tok), int(maxval_tok)
    except ValueError:
        raise FormatError("non-integer PPM header field") from None
    if width < 1 or height < 1:
        raise FormatError(f"PPM size {width}x{height} must be at least 1x1")
    if maxval != 255:
        raise FormatError(f"unsupported PPM maxval {maxval} (only 255)")
    pos += 1  # single whitespace after maxval
    need = 3 * width * height
    payload = raw[pos:pos + need]
    if len(payload) < need:
        raise FormatError(f"truncated PPM payload at byte offset {pos + len(payload)}")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3).copy()
    return Image(pixels=pixels)


def save_ppm(image: Image) -> bytes:
    h, w = image.pixels.shape[:2]
    header = f"P6\n{w} {h}\n255\n".encode()
    return header + image.pixels.astype(np.uint8).tobytes()


def load_image(raw: bytes, fmt: str = "ppm") -> Image:
    """Decode to 8-bit RGB. PPM is native; PNG needs the optional Pillow extra."""
    if fmt == "ppm":
        return load_ppm(raw)
    if fmt == "png":
        try:
            import io

            from PIL import Image as PILImage
        except ImportError:
            raise FormatError("PNG support requires the optional 'png' extra (Pillow)") from None
        try:
            img = PILImage.open(io.BytesIO(raw)).convert("RGB")
        except Exception as e:
            raise FormatError(f"PNG decode failed: {e}") from None
        return Image(pixels=np.asarray(img, dtype=np.uint8).copy())
    raise FormatError(f"unknown image format {fmt!r}")


# -- label derivation --------------------------------------------------


def derive_labels(poses: list[Pose], lookahead_m: float = 5.0,
                  max_step: float = 5.0) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per frame t < N-1: (waypoint, ego_delta) in the camera frame at t.

    ego_delta is the translation of inv(T_t) @ T_{t+1}. The waypoint is the
    (forward, lateral) position of the first future pose at least lookahead_m
    away (falling back to the last pose), clamped componentwise to max_step.
    """
    n = len(poses)
    labels = []
    positions = np.stack([p.T[:3, 3] for p in poses]) if n else np.zeros((0, 3))
    for t in range(n - 1):
        r = poses[t].T[:3, :3]
        p = positions[t]
        rel_next = r.T @ (positions[t + 1] - p)
        target = n - 1
        for s in range(t + 1, n):
            if np.linalg.norm(positions[s] - p) >= lookahead_m:
                target = s
                break
        rel_target = r.T @ (positions[target] - p)
        waypoint = np.clip(np.array([rel_target[2], rel_target[0]]), -max_step, max_step)
        ego_delta = np.clip(rel_next, -max_step, max_step)
        labels.append((waypoint, ego_delta))
    return labels


# -- sequence loading --------------------------------------------------


def _load_sequence_frames(seq_dir: Path, pose_file: Path) -> list[Frame]:
    calib_file = seq_dir / "calib.txt"
    velo_dir = seq_dir / "velodyne"
    image_dir = seq_dir / "image_2"
    for path in (calib_file, velo_dir, image_dir, pose_file):
        if not path.exists():
            raise OSError(f"missing dataset path: {path}")
    calib = parse_calib(calib_file.read_text())
    poses = parse_poses(pose_file.read_text())
    bins = sorted(velo_dir.glob("*.bin"))
    frames = []
    for i, bin_path in enumerate(bins):
        if i >= len(poses):
            break
        stem = bin_path.stem
        img_path = image_dir / f"{stem}.ppm"
        fmt = "ppm"
        if not img_path.exists():
            img_path = image_dir / f"{stem}.png"
            fmt = "png"
        if not img_path.exists():
            raise OSError(f"missing image for frame {stem} in {image_dir}")
        cloud = parse_velodyne_bin(bin_path.read_bytes())
        image = load_image(img_path.read_bytes(), fmt)
        frames.append(Frame(index=i, image=image, cloud=cloud, calib=calib,
                            pose=poses[i]))
    return frames


def load_sequences(root: str | os.PathLike, lookahead_m: float = 5.0,
                   max_step: float = 5.0) -> dict[int, list[LabeledFrame]]:
    """Load every numbered sequence of a KITTI-layout tree into per-sequence
    labeled frame lists."""
    root = Path(root)
    seq_root = root / "sequences"
    if not seq_root.is_dir():
        raise OSError(f"missing dataset path: {seq_root}")
    sequence_ids = sorted(int(p.name) for p in seq_root.iterdir()
                          if p.is_dir() and p.name.isdigit())
    out: dict[int, list[LabeledFrame]] = {}
    for sid in sequence_ids:
        seq_dir = seq_root / f"{sid:02d}"
        pose_file = root / "poses" / f"{sid:02d}.txt"
        frames = _load_sequence_frames(seq_dir, pose_file)
        labels = derive_labels([f.pose for f in frames], lookahead_m, max_step)
        out[sid] = [LabeledFrame(frame=f, waypoint=w, ego_delta=d)
                    for f, (w, d) in zip(frames, labels)]
    return out


# -- augmentation ------------------------------------------------------


def augment_frame(lf: LabeledFrame, rng: np.random.Generator,
                  policy: AugmentPolicy, max_step: float = 5.0) -> LabeledFrame:
    """Horizontal flip, brightness/contrast jitter, and cloud yaw+jitter.

    Flip and yaw act in the camera frame (x lateral); label lateral
    components follow the geometry.
    """
    frame = lf.frame
    pixels = frame.image.pixels
    cam_pts = frame.calib.to_camera(frame.cloud.xyz)
    waypoint = lf.waypoint.copy()
    ego_delta = lf.ego_delta.copy()

    if rng.random() < policy.flip_prob:
        pixels = pixels[:, ::-1]
        cam_pts = cam_pts * np.array([-1.0, 1.0, 1.0])
        waypoint[1] = -waypoint[1]
        ego_delta[0] = -ego_delta[0]

    alpha = rng.uniform(*policy.brightness_scale)
    delta = rng.uniform(*policy.brightness_shift)
    if alpha != 1.0 or delta != 0.0:
        adj = alpha * (pixels.astype(np.float64) - 128.0) + 128.0 + delta
        pixels = np.clip(adj, 0.0, 255.0).astype(np.uint8)
    else:
        pixels = pixels.copy()

    theta = np.deg2rad(rng.uniform(-policy.yaw_deg, policy.yaw_deg)) if policy.yaw_deg else 0.0
    if theta != 0.0:
        c, s = np.cos(theta), np.sin(theta)
        # rotation about the camera vertical axis (y, pointing down)
        rot = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
        cam_pts = cam_pts @ rot.T
        fz, fx = waypoint[0], waypoint[1]
        waypoint = np.array([c * fz - s * fx, c * fx + s * fz])
        ego_delta = rot @ ego_delta
    if policy.jitter_sigma > 0.0:
        cam_pts = cam_pts + rng.normal(scale=policy.jitter_sigma, size=cam_pts.shape)

    waypoint = np.clip(waypoint, -max_step, max_step)
    ego_delta = np.clip(ego_delta, -max_step, max_step)
    pts = np.column_stack([frame.calib.from_camera(cam_pts), frame.cloud.reflectance])
    new_frame = Frame(index=frame.index, image=Image(pixels=np.ascontiguousarray(pixels)),
                      cloud=PointCloud(points=pts), calib=frame.calib, pose=frame.pose)
    return LabeledFrame(frame=new_frame, waypoint=waypoint, ego_delta=ego_delta)
