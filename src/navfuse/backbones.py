"""Dual-stream feature extraction: residual CNN + reduced-head self-attention
for images, and a dynamic-sampling point network with attention pooling for
clouds."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, DimensionError
from .kitti import Image, PointCloud
from .params import ParamRegistry, kaiming_uniform, linear, register_linear
from .tensor import Tensor


@dataclass
class RgbBranchConfig:
    stage_channels: list[int] = field(default_factory=lambda: [8, 16, 32])
    strides: list[int] = field(default_factory=lambda: [2, 2, 2])
    attn_heads: int = 2
    attn_dim: int = 32
    out_dim: int = 64

    def validate(self):
        if len(self.stage_channels) != len(self.strides):
            raise ConfigError("stage_channels and strides must have equal length")
        if not self.stage_channels or any(c < 1 for c in self.stage_channels):
            raise ConfigError("stage_channels must be a non-empty list of values >= 1")
        if any(s < 1 for s in self.strides):
            raise ConfigError("strides must be >= 1")
        for name in ("attn_heads", "attn_dim", "out_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.attn_dim % self.attn_heads != 0:
            raise ConfigError("attn_dim must be divisible by attn_heads")
        return self


@dataclass
class PointBranchConfig:
    input_budget: int = 2048
    centroids_min: int = 64
    centroids_max: int = 256
    radius: float = 2.0
    group_cap: int = 32
    mlp_dims: list[int] = field(default_factory=lambda: [32, 64])
    out_dim: int = 64

    def validate(self):
        if not (1 <= self.centroids_min <= self.centroids_max <= self.input_budget):
            raise ConfigError("need 1 <= centroids_min <= centroids_max <= input_budget")
        if self.radius <= 0:
            raise ConfigError("radius must be > 0")
        if self.group_cap < 1 or self.out_dim < 1:
            raise ConfigError("group_cap and out_dim must be >= 1")
        if not self.mlp_dims or any(d < 1 for d in self.mlp_dims):
            raise ConfigError("mlp_dims must be a non-empty list of values >= 1")
        return self


# -- attention ---------------------------------------------------------


def init_attention_params(params: ParamRegistry, rng, prefix: str, d: int):
    for name in ("wq", "wk", "wv", "wo"):
        params.register(f"{prefix}.{name}", kaiming_uniform(rng, (d, d), fan_in=d))


def attention_block(x: Tensor, heads: int, params: ParamRegistry, prefix: str) -> Tensor:
    """Multi-head scaled dot-product self-attention with a residual add.

    No positional term: token order carries no meaning here, so the output
    permutes with the input.
    """
    t, d = x.shape
    if d % heads != 0:
        raise ConfigError(f"feature dim {d} not divisible by {heads} heads")
    dh = d // heads
    q = T.matmul(x, params.get(f"{prefix}.wq"))
    k = T.matmul(x, params.get(f"{prefix}.wk"))
    v = T.matmul(x, params.get(f"{prefix}.wv"))
    scale = dh ** -0.5
    head_outs = []
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        qh, kh, vh = q[:, sl], k[:, sl], v[:, sl]
        scores = T.mul(T.matmul(qh, kh.T), scale)
        attn = T.softmax(scores, axis=-1)
        head_outs.append(T.matmul(attn, vh))
    merged = T.concat(head_outs, axis=1)
    return T.add(x, T.matmul(merged, params.get(f"{prefix}.wo")))


# -- RGB branch --------------------------------------------------------


def init_rgb_params(cfg: RgbBranchConfig, params: ParamRegistry, rng) -> None:
    """Register RGB branch parameters."""
    cfg.validate()
    c_in = 4  # RGB + aligned sparse depth
    for i, c_out in enumerate(cfg.stage_channels):
        # bias-free: the batch norm's mean subtraction would cancel a conv bias
        params.register(f"rgb.stage{i}.conv.w",
                        kaiming_uniform(rng, (c_out, c_in, 3, 3), fan_in=c_in * 9))
        params.register(f"rgb.stage{i}.short.w",
                        kaiming_uniform(rng, (c_out, c_in, 1, 1), fan_in=c_in))
        params.register(f"rgb.stage{i}.bn.gamma", np.ones(c_out))
        params.register(f"rgb.stage{i}.bn.beta", np.zeros(c_out))
        register_linear(params, rng, f"rgb.stage_proj{i}", c_out, cfg.out_dim)
        c_in = c_out
    register_linear(params, rng, "rgb.tokproj", cfg.stage_channels[-1], cfg.attn_dim)
    init_attention_params(params, rng, "rgb.attn", cfg.attn_dim)
    register_linear(params, rng, "rgb.attn_proj", cfg.attn_dim, cfg.out_dim)
    # zero logits: uniform scale mixing at init
    params.register("rgb.scale_logits", np.zeros(len(cfg.stage_channels)))


def rgb_forward(image: Image, sparse_depth: Tensor, cfg: RgbBranchConfig,
                params: ParamRegistry, use_attention: bool = True) -> Tensor:
    """Residual conv stages + token self-attention + learned multi-scale mixing;
    returns the [out_dim] feature vector."""
    h, w = image.height, image.width
    if sparse_depth.shape != (1, h, w):
        raise DimensionError(f"sparse depth shape {sparse_depth.shape} != (1, {h}, {w})")
    rgb = Tensor(image.pixels.transpose(2, 0, 1).astype(T.DTYPE) / 255.0)
    x = T.concat([rgb, sparse_depth], axis=0)
    stage_summaries = []
    for i, stride in enumerate(cfg.strides):
        pre = f"rgb.stage{i}"
        conv = T.conv2d(x, params.get(pre + ".conv.w"), stride=stride, pad=1)
        short = T.conv2d(x, params.get(pre + ".short.w"), stride=stride, pad=0)
        normed = T.batch_norm(conv, params.get(pre + ".bn.gamma"), params.get(pre + ".bn.beta"))
        x = T.relu(T.add(normed, short))
        T.assert_finite(x, f"{pre} output")
        c, hh, ww = x.shape
        stage_summaries.append(T.tmean(T.reshape(x, (c, hh * ww)), axis=1))
    tokens = T.transpose(T.reshape(x, (c, hh * ww)))
    tokens = linear(tokens, params, "rgb.tokproj")
    if use_attention:
        tokens = attention_block(tokens, cfg.attn_heads, params, "rgb.attn")
    pooled_tokens = T.tmean(tokens, axis=0)
    attn_part = linear(pooled_tokens, params, "rgb.attn_proj")
    scale_w = T.softmax(params.get("rgb.scale_logits"))
    mixed = attn_part
    for i, summary in enumerate(stage_summaries):
        proj = linear(summary, params, f"rgb.stage_proj{i}")
        mixed = T.add(mixed, T.mul(proj, scale_w[i:i + 1]))
    T.assert_finite(mixed, "rgb branch output")
    return mixed


# -- point branch ------------------------------------------------------


def dynamic_sample_count(cloud: PointCloud, cfg: PointBranchConfig) -> int:
    """Centroid count from point density and geometric complexity."""
    n = len(cloud)
    if n == 0:
        raise ContractError("dynamic_sample_count needs a non-empty cloud")
    rho = min(max(n / cfg.input_budget, 0.0), 1.0)
    if n <= 3:
        kappa = 0.0
    else:
        cov = np.cov(cloud.xyz.T)
        eig = np.linalg.eigvalsh(cov)
        lam_max = eig[-1]
        kappa = 0.0 if lam_max <= 1e-12 else 1.0 - max(eig[0], 0.0) / lam_max
    count = round(cfg.centroids_min + (cfg.centroids_max - cfg.centroids_min)
                  * (0.5 * rho + 0.5 * kappa))
    return int(min(max(count, cfg.centroids_min), min(cfg.centroids_max, n)))


def fps_sample(cloud: PointCloud, k: int) -> list[int]:
    """Greedy farthest-point sampling from point 0; ties break to the lowest
    index."""
    n = len(cloud)
    if not (1 <= k <= n):
        raise ContractError(f"fps_sample needs 1 <= k <= N, got k={k}, N={n}")
    xyz = cloud.xyz
    chosen = [0]
    diff = xyz - xyz[0]
    d2 = np.einsum("ij,ij->i", diff, diff)
    # per-round distances via the |x|^2 + |c|^2 - 2 x.c expansion: one gemv
    # instead of an n x 3 subtract + reduce; scaling by -2 is exact, so
    # (-2 x).c equals -2 (x.c) bitwise
    sq = np.einsum("ij,ij->i", xyz, xyz)
    neg2_xyz = -2.0 * xyz
    for _ in range(k - 1):
        nxt = int(d2.argmax())  # argmax returns the first (lowest) index on ties
        chosen.append(nxt)
        d2_new = neg2_xyz @ xyz[nxt]
        d2_new += sq + sq[nxt]
        np.minimum(d2, d2_new, out=d2)
    return chosen


def init_point_params(cfg: PointBranchConfig, params: ParamRegistry, rng):
    cfg.validate()
    d_in = 5  # local xyz, distance to centroid, reflectance
    for i, d_out in enumerate(cfg.mlp_dims):
        register_linear(params, rng, f"point.mlp{i}", d_in, d_out)
        d_in = d_out
    # zero-init scores: uniform attention pooling at init
    params.register("point.group_score.w", np.zeros((d_in, 1)))
    params.register("point.global_score.w", np.zeros((d_in, 1)))
    register_linear(params, rng, "point.out", d_in, cfg.out_dim)


def group_and_encode(cloud_cam: PointCloud, centroids: list[int],
                     cfg: PointBranchConfig, params: ParamRegistry) -> Tensor:
    """Ball-query groups in local coordinates through a shared MLP with
    attention pooling (softmax-weighted sum, not max-pool); only the in-ball
    neighbours, at most group_cap per centroid, reach the MLP."""
    xyz = cloud_cam.xyz
    cap = min(cfg.group_cap, xyz.shape[0])
    centers = xyz[centroids]
    # rank neighbors by the |c|^2 + |x|^2 - 2 c.x expansion (one BLAS matmul
    # instead of an m x n x 3 broadcast); the cap nearest overall contain the
    # nearest-in-ball capped set, since sorted order puts every in-ball point
    # before every out-of-ball one
    sq = np.einsum("nd,nd->n", xyz, xyz)
    d2_rank = sq[centroids, None] + sq[None, :] - 2.0 * (centers @ xyz.T)
    sel = np.argpartition(d2_rank, cap - 1, axis=1)[:, :cap]
    # exact differences on the selected pairs keep the local features
    # translation invariant to the last bit
    local = xyz[sel] - centers[:, None, :]
    d2 = np.einsum("mcd,mcd->mc", local, local)
    # rows in centroid order; each centroid is in its own ball, so no group is empty
    seg, slot = np.nonzero(d2 <= cfg.radius ** 2)
    x = Tensor(np.column_stack([local[seg, slot], np.sqrt(d2[seg, slot]),
                                cloud_cam.reflectance[sel[seg, slot]]]))
    for i in range(len(cfg.mlp_dims)):
        x = T.relu(linear(x, params, f"point.mlp{i}"))
    scores = T.matmul(x, params.get("point.group_score.w"))
    return T.segment_pool(x, T.reshape(scores, (len(seg),)), seg)


def point_forward(cloud_cam: PointCloud, cfg: PointBranchConfig,
                  params: ParamRegistry,
                  rng: np.random.Generator | None = None) -> Tensor:
    """Budget the cloud, pick centroids by FPS, encode groups, pool globally;
    returns the [out_dim] feature vector."""
    n = len(cloud_cam)
    if n == 0:
        raise ContractError("point_forward needs a non-empty cloud")
    k = dynamic_sample_count(cloud_cam, cfg)
    if n > cfg.input_budget:
        if rng is None:
            raise ContractError("subsampling above input_budget needs an explicit rng")
        idx = np.sort(rng.choice(n, size=cfg.input_budget, replace=False))
        cloud_cam = PointCloud(points=cloud_cam.points[idx])
    centroids = fps_sample(cloud_cam, k)
    grouped = group_and_encode(cloud_cam, centroids, cfg, params)
    scores = T.matmul(grouped, params.get("point.global_score.w"))
    pooled = T.segment_pool(grouped, T.reshape(scores, (k,)), np.zeros(k, dtype=np.intp))
    vector = linear(T.reshape(pooled, (-1,)), params, "point.out")
    T.assert_finite(vector, "point branch output")
    return vector
