"""Cross-modal fusion: reliability scoring, semantic alignment, monotone
reliability-gated weight allocation, and weighted aggregation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError, DimensionError
from .geometry import Z_NEAR_DEFAULT, project_points
from .kitti import CalibrationSet, Image, PointCloud
from .params import ParamRegistry, kaiming_uniform
from .tensor import Tensor

REL_FLOOR = 1e-3
TAU_IMG_DEFAULT = 100.0
N_REF_DEFAULT = 1024


@dataclass
class ReliabilityScores:
    r_rgb: float
    r_lidar: float

    def validate(self):
        for r in (self.r_rgb, self.r_lidar):
            if not (REL_FLOOR <= r <= 1.0):
                raise ContractError(f"reliability {r} outside [{REL_FLOOR}, 1]")
        return self


@dataclass
class FusionWeights:
    w_rgb: float
    w_lidar: float


@dataclass
class FusedFeature:
    vector: Tensor
    weights: FusionWeights
    reliabilities: ReliabilityScores


def laplacian_variance(gray: np.ndarray) -> float:
    """Variance of the 4-neighbor Laplacian over the image interior."""
    if gray.shape[0] < 3 or gray.shape[1] < 3:
        return 0.0
    core = gray[1:-1, 1:-1]
    lap = 4.0 * core - gray[:-2, 1:-1] - gray[2:, 1:-1] - gray[1:-1, :-2] - gray[1:-1, 2:]
    return float(lap.var())


def reliability_image(image: Image, tau_img: float = TAU_IMG_DEFAULT) -> float:
    """No-reference sharpness score from the variance of the Laplacian."""
    gray = image.pixels.astype(np.float64).mean(axis=2)
    v = laplacian_variance(gray)
    return float(np.clip(1.0 - np.exp(-v / tau_img), REL_FLOOR, 1.0))


def reliability_cloud(cloud: PointCloud, calib: CalibrationSet, width: int, height: int,
                      n_ref: int = N_REF_DEFAULT, z_near: float = Z_NEAR_DEFAULT) -> float:
    """In-frustum point density relative to a reference count; the frustum
    starts at z_near, as for the projected sparse depth."""
    xyz_cam = cloud.xyz @ calib.Tr[:3, :3].T + calib.Tr[:3, 3]
    _, _, _, idx = project_points(xyz_cam, calib.P, width, height, z_near)
    return float(np.clip(len(idx) / n_ref, REL_FLOOR, 1.0))


def init_fusion_params(params: ParamRegistry, rng, in_dim: int, fusion_dim: int,
                       prefix: str = "fuse"):
    for which in ("rgb", "lidar"):
        params.register(f"{prefix}.map_{which}.w",
                        kaiming_uniform(rng, (in_dim, fusion_dim), fan_in=in_dim))
        params.register(f"{prefix}.map_{which}.b", np.zeros(fusion_dim))
        # zero-init gate content vectors: at init the reliability prior alone
        # drives the weights, which keeps the gate monotone chain exact
        params.register(f"{prefix}.gate_u_{which}", np.zeros(fusion_dim))
    params.register(f"{prefix}.gate_v",
                    kaiming_uniform(rng, (fusion_dim, fusion_dim), fan_in=fusion_dim))


def semantic_map(vector: Tensor, params: ParamRegistry, which: str,
                 prefix: str = "fuse") -> Tensor:
    """Affine map + tanh into the shared semantic space, one set per modality."""
    if which not in ("rgb", "lidar"):
        raise ContractError(f"unknown modality {which!r}")
    w = params.get(f"{prefix}.map_{which}.w")
    if vector.shape[0] != w.shape[0]:
        raise DimensionError(f"semantic_map input dim {vector.shape[0]} != {w.shape[0]}")
    row = T.reshape(vector, (1, vector.shape[0]))
    out = T.add(T.matmul(row, w), params.get(f"{prefix}.map_{which}.b"))
    return T.reshape(T.tanh(out), (w.shape[1],))


def fusion_weights(f_rgb: Tensor, f_lidar: Tensor, rel: ReliabilityScores,
                   params: ParamRegistry, beta: float = 1.0,
                   prefix: str = "fuse") -> tuple[FusionWeights, Tensor]:
    """Content logit + beta * ln(reliability) per modality, softmax-normalized.

    The additive log-reliability term makes w_m strictly increasing in r_m
    for beta > 0. Returns the weights and the differentiable 2-vector.
    """
    rel.validate()
    v = params.get(f"{prefix}.gate_v")
    logits = []
    for which, feat, r in (("rgb", f_rgb, rel.r_rgb), ("lidar", f_lidar, rel.r_lidar)):
        u = params.get(f"{prefix}.gate_u_{which}")
        row = T.reshape(feat, (1, feat.shape[0]))
        content = T.tsum(T.mul(T.tanh(T.matmul(row, v)),
                               T.reshape(u, (1, u.shape[0]))))
        logits.append(T.add(T.reshape(content, (1,)), beta * np.log(r)))
    w = T.softmax(T.concat(logits, axis=0))
    return FusionWeights(w_rgb=float(w.data[0]), w_lidar=float(w.data[1])), w


def fuse(f_rgb: Tensor, f_lidar: Tensor, w: Tensor, rel: ReliabilityScores) -> FusedFeature:
    """Convex combination of the aligned features under the fusion weights."""
    if f_rgb.shape != f_lidar.shape:
        raise DimensionError("fused feature dims differ")
    vector = T.add(T.mul(f_rgb, w[0:1]), T.mul(f_lidar, w[1:2]))
    T.assert_finite(vector, "fused feature")
    return FusedFeature(vector=vector,
                        weights=FusionWeights(w_rgb=float(w.data[0]), w_lidar=float(w.data[1])),
                        reliabilities=rel)
