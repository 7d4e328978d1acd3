"""Parameter registry and seeded initializers."""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .errors import ContractError
from .tensor import Tensor


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based seeded generator; all stochastic ops take one explicitly."""
    return np.random.Generator(np.random.Philox(seed))


class ParamRegistry:
    """Ordered map from unique string path to a learnable Tensor."""

    def __init__(self):
        self._entries: dict[str, Tensor] = {}

    def register(self, path: str, data: np.ndarray) -> Tensor:
        if path in self._entries:
            raise ContractError(f"duplicate parameter path {path!r}")
        t = Tensor(data, requires_grad=True)
        self._entries[path] = t
        return t

    def get(self, path: str) -> Tensor:
        try:
            return self._entries[path]
        except KeyError:
            raise ContractError(f"unknown parameter path {path!r}") from None

    def __contains__(self, path: str) -> bool:
        return path in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def items(self):
        return self._entries.items()

    def zero_grads(self):
        for t in self._entries.values():
            t.grad = None

    def state_dict(self) -> dict[str, np.ndarray]:
        return {k: v.data.copy() for k, v in self._entries.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]):
        if set(state) != set(self._entries):
            missing = set(self._entries) - set(state)
            extra = set(state) - set(self._entries)
            raise ContractError(f"state dict mismatch; missing={sorted(missing)} extra={sorted(extra)}")
        for k, v in state.items():
            cur = self._entries[k]
            v = np.array(v, dtype=cur.data.dtype)  # a copy, cast to the parameter's dtype
            if v.shape != cur.data.shape:
                raise ContractError(f"shape mismatch for {k!r}: {v.shape} vs {cur.data.shape}")
            cur.data = v


def kaiming_uniform(rng: np.random.Generator, shape: tuple, fan_in: int) -> np.ndarray:
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def register_linear(params: ParamRegistry, rng, prefix: str, d_in: int, d_out: int,
                    zero_weight: bool = False):
    """Register weight (d_in x d_out) and bias (d_out) under prefix; returns (W, b)."""
    if zero_weight:
        w = np.zeros((d_in, d_out))
    else:
        w = kaiming_uniform(rng, (d_in, d_out), fan_in=d_in)
    return params.register(prefix + ".w", w), params.register(prefix + ".b", np.zeros(d_out))


def linear(x: Tensor, params: ParamRegistry, prefix: str) -> Tensor:
    """x @ W + b with the weight and bias register_linear put under prefix;
    x is one d_in vector or an N x d_in matrix of rows."""
    return T.linear(x, params.get(prefix + ".w"), params.get(prefix + ".b"))

