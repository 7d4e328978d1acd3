"""Adam optimizer, LR schedule, gradient clipping, early stopping."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, NumericError
from .params import ParamRegistry


@dataclass
class TrainConfig:
    batch_size: int = 16
    lr_init: float = 0.001
    lr_min: float = 0.0
    total_epochs: int = 100
    warmup_steps: int = 100
    clip_norm: float = 10.0
    patience: int = 10
    weight_decay: float = 0.0001
    seed: int = 0

    def validate(self):
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not (0.0 <= self.lr_min <= self.lr_init):
            raise ConfigError("need 0 <= lr_min <= lr_init")
        if self.clip_norm <= 0:
            raise ConfigError("clip_norm must be > 0")
        if self.total_epochs < 0:
            raise ConfigError("total_epochs must be >= 0")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        if self.seed < 0:
            raise ConfigError("train.seed must be >= 0")
        return self


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def _graded(params: ParamRegistry) -> list:
    """The (path, param) pairs that hold a gradient; a step with none is a
    caller error."""
    graded = [(path, p) for path, p in params.items() if p.grad is not None]
    if not graded:
        raise ContractError("no parameter has a gradient")
    return graded


def adam_step(params: ParamRegistry, state: AdamState, lr: float,
              weight_decay: float = 0.0) -> None:
    """Classic Adam with bias correction; weight decay enters as coupled L2.

    Only parameters with a gradient this step move; the others (a branch an
    ablation switches off) keep their data and moments. Grads are zeroed
    after the update.
    """
    graded = _graded(params)
    state.t += 1
    t = state.t
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    for path, p in graded:
        g = p.grad
        if weight_decay:
            g = g + weight_decay * p.data
        m = state.m.get(path)
        if m is None:
            m = state.m[path] = np.zeros_like(p.data)
            state.v[path] = np.zeros_like(p.data)
        v = state.v[path]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        mhat = m / bc1
        vhat = v / bc2
        p.data -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
        p.grad = None


def schedule_lr(step: int, warmup_steps: int, total_steps: int,
                lr_init: float, lr_min: float) -> float:
    """Linear warmup to lr_init, then cosine decay to lr_min."""
    step = max(0, min(step, total_steps))
    if warmup_steps > 0 and step < warmup_steps:
        return lr_init * step / warmup_steps
    span = total_steps - warmup_steps
    if span <= 0:
        return lr_init
    progress = (step - warmup_steps) / span
    return lr_min + 0.5 * (lr_init - lr_min) * (1.0 + math.cos(math.pi * progress))


def clip_global_norm(params: ParamRegistry, max_norm: float) -> float:
    """Scale the grads present so their global L2 norm is at most max_norm;
    returns the pre-clip norm."""
    if max_norm <= 0:
        raise ConfigError("max_norm must be > 0")
    graded = _graded(params)
    total = 0.0
    for path, p in graded:
        if not np.all(np.isfinite(p.grad)):
            raise NumericError(f"non-finite gradient in {path!r}")
        total += float(np.dot(p.grad.ravel(), p.grad.ravel()))
    norm = math.sqrt(total)
    if norm > max_norm:
        scale = max_norm / norm
        for _, p in graded:
            p.grad *= scale
    return norm


def early_stop_check(history: list[float], patience: int) -> bool:
    """True when the (earliest) best validation loss is >= patience epochs old."""
    if not history:
        raise ContractError("early_stop_check needs a non-empty history")
    if patience < 1:
        raise ConfigError("patience must be >= 1")
    best_idx = min(range(len(history)), key=lambda i: (history[i], i))
    return (len(history) - 1 - best_idx) >= patience
