"""Temporal modeling (frame-delta extractor, GRU cell, attention over a
feature window) and the navigation decision head."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ContractError, DimensionError
from .params import ParamRegistry, kaiming_uniform, linear, register_linear
from .tensor import Tensor


@dataclass
class NavOutput:
    waypoint: np.ndarray   # (forward, lateral) meters
    ego_delta: np.ndarray  # translation delta, meters


@dataclass
class TemporalState:
    hidden: Tensor
    window: list[Tensor] = field(default_factory=list)
    prev_fused: Tensor | None = None


def temporal_delta(fused_t: Tensor, prev: Tensor | None) -> Tensor:
    """Concat of the current feature and its change since the previous frame."""
    if prev is None:
        delta = Tensor(np.zeros(fused_t.shape[0]))
    else:
        if prev.shape != fused_t.shape:
            raise DimensionError("temporal_delta dims differ")
        delta = T.add(fused_t, T.mul(prev, -1.0))
    return T.concat([fused_t, delta], axis=0)


def init_recurrent_params(params: ParamRegistry, rng, x_dim: int, hidden_dim: int):
    for gate in ("z", "r", "h"):
        params.register(f"rnn.w_{gate}", kaiming_uniform(rng, (x_dim, hidden_dim), fan_in=x_dim))
        params.register(f"rnn.u_{gate}",
                        kaiming_uniform(rng, (hidden_dim, hidden_dim), fan_in=hidden_dim))
        params.register(f"rnn.b_{gate}", np.zeros(hidden_dim))


def _gate(x: Tensor, h: Tensor, params: ParamRegistry, gate: str) -> Tensor:
    return T.add(T.add(T.matmul(x, params.get(f"rnn.w_{gate}")),
                       T.matmul(h, params.get(f"rnn.u_{gate}"))),
                 params.get(f"rnn.b_{gate}"))


def recurrent_step(x: Tensor, h: Tensor, params: ParamRegistry) -> Tensor:
    """One GRU update of the hidden vector h from the input x."""
    z = T.sigmoid(_gate(x, h, params, "z"))
    r = T.sigmoid(_gate(x, h, params, "r"))
    cand = T.tanh(_gate(x, T.mul(r, h), params, "h"))
    return T.add(T.mul(T.add(Tensor(np.ones(1)), T.mul(z, -1.0)), h), T.mul(z, cand))


def init_temporal_attention_params(params: ParamRegistry, rng, hidden_dim: int,
                                   fusion_dim: int):
    params.register("tattn.q", kaiming_uniform(rng, (hidden_dim, hidden_dim), fan_in=hidden_dim))
    params.register("tattn.k", kaiming_uniform(rng, (fusion_dim, hidden_dim), fan_in=fusion_dim))
    params.register("tattn.v", kaiming_uniform(rng, (fusion_dim, fusion_dim), fan_in=fusion_dim))


def temporal_attention(h: Tensor, window: list[Tensor], params: ParamRegistry) -> Tensor:
    """Scaled dot-product attention of the hidden state over the fused-feature window."""
    if not window:
        raise ContractError("temporal_attention needs a non-empty window")
    att_dim = params.get("tattn.q").shape[1]
    q = T.matmul(h, params.get("tattn.q"))
    stacked = T.reshape(T.concat(window, axis=0), (len(window), window[0].shape[0]))
    keys = T.matmul(stacked, params.get("tattn.k"))
    values = T.matmul(stacked, params.get("tattn.v"))
    scores = T.mul(T.matmul(q, keys.T), att_dim ** -0.5)
    return T.matmul(T.softmax(scores), values)


def init_decision_params(params: ParamRegistry, rng, in_dim: int, hidden: int):
    register_linear(params, rng, "head.fc1", in_dim, hidden)
    # zero-init output layer: predictions start at the origin
    register_linear(params, rng, "head.fc2", hidden, 5, zero_weight=True)


def decision_forward(h: Tensor, context: Tensor, fused_t: Tensor,
                     params: ParamRegistry, mode: str = "eval",
                     rng: np.random.Generator | None = None,
                     dropout_rate: float = 0.1,
                     max_step: float = 5.0) -> tuple[NavOutput, Tensor]:
    """Two-layer MLP over (hidden, attention context, direct fused feature);
    outputs squashed into (-max_step, max_step)."""
    x = T.concat([h, context, fused_t], axis=0)
    hid = T.relu(linear(x, params, "head.fc1"))
    training = mode == "train"
    if training:
        if rng is None:
            raise ContractError("train-mode decision_forward needs an rng")
        hid = T.dropout(hid, dropout_rate, rng)
    out = T.mul(T.tanh(linear(hid, params, "head.fc2")), max_step)
    nav = NavOutput(waypoint=out.data[:2].copy(), ego_delta=out.data[2:].copy())
    return nav, out


def nav_loss(out5: Tensor, waypoint: np.ndarray, ego_delta: np.ndarray,
             lambda_ego: float = 1.0) -> Tensor:
    """MSE on the waypoint plus weighted MSE on the ego-motion delta."""
    wp_err = T.add(out5[:2], Tensor(-np.asarray(waypoint)))
    ego_err = T.add(out5[2:], Tensor(-np.asarray(ego_delta)))
    return T.add(T.tmean(T.mul(wp_err, wp_err)),
                 T.mul(T.tmean(T.mul(ego_err, ego_err)), lambda_ego))
