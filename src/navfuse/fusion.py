"""Cross-modal fusion: reliability scoring, semantic alignment, monotone
reliability-gated weight allocation, and weighted aggregation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError, DimensionError
# no caller here: perfbench/spans.py wraps project_points under this name too
from .geometry import project_points  # noqa: F401
from .kitti import Image
from .params import ParamRegistry, kaiming_uniform, linear, register_linear
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


def reliability_cloud(n_in_frustum: int, n_ref: int = N_REF_DEFAULT) -> float:
    """In-frustum point density relative to a reference count. The count is
    that of the projection which also feeds the sparse depth, so the frustum
    starts at the same z_near."""
    return float(np.clip(n_in_frustum / n_ref, REL_FLOOR, 1.0))


def init_fusion_params(params: ParamRegistry, rng, in_dim: int, fusion_dim: int):
    for which in ("rgb", "lidar"):
        register_linear(params, rng, f"fuse.map_{which}", in_dim, fusion_dim)
        # zero-init gate content vectors: at init the reliability prior alone
        # drives the weights, which keeps the gate monotone chain exact
        params.register(f"fuse.gate_u_{which}", np.zeros(fusion_dim))
    params.register("fuse.gate_v",
                    kaiming_uniform(rng, (fusion_dim, fusion_dim), fan_in=fusion_dim))


def semantic_map(vector: Tensor, params: ParamRegistry, which: str) -> Tensor:
    """Affine map + tanh into the shared semantic space, one set per modality."""
    if which not in ("rgb", "lidar"):
        raise ContractError(f"unknown modality {which!r}")
    return T.tanh(linear(vector, params, f"fuse.map_{which}"))


def fusion_weights(f_rgb: Tensor, f_lidar: Tensor, rel: ReliabilityScores,
                   params: ParamRegistry, beta: float = 1.0) -> Tensor:
    """Content logit + beta * ln(reliability) per modality, softmax-normalized
    into the differentiable 2-vector (w_rgb, w_lidar).

    The additive log-reliability term makes w_m strictly increasing in r_m
    for beta > 0. The larger weight is sigmoid(|logit gap|) >= 0.5 and the
    other is one minus it, exact by the Sterbenz lemma: the pair sums to 1.
    """
    rel.validate()
    v = params.get("fuse.gate_v")
    rgb, lidar = (T.tsum(T.mul(T.tanh(T.matmul(feat, v)), params.get(f"fuse.gate_u_{which}")))
                  for which, feat in (("rgb", f_rgb), ("lidar", f_lidar)))
    gap = T.add(T.add(rgb, T.mul(lidar, -1.0)), beta * float(np.log(rel.r_rgb / rel.r_lidar)))
    s = 1.0 if gap.data >= 0 else -1.0
    return T.add(T.mul(T.sigmoid(T.mul(gap, s)), [s, -s]), [0.0, 1.0] if s > 0 else [1.0, 0.0])


def fuse(f_rgb: Tensor, f_lidar: Tensor, w: Tensor, rel: ReliabilityScores) -> FusedFeature:
    """Convex combination of the aligned features under the fusion weights."""
    if f_rgb.shape != f_lidar.shape:
        raise DimensionError("fused feature dims differ")
    vector = T.add(T.mul(f_rgb, w[0:1]), T.mul(f_lidar, w[1:2]))
    T.assert_finite(vector, "fused feature")
    return FusedFeature(vector=vector,
                        weights=FusionWeights(w_rgb=float(w.data[0]), w_lidar=float(w.data[1])),
                        reliabilities=rel)
