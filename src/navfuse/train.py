"""Training loop: chunked truncated backprop, Adam with warmup/cosine schedule,
gradient clipping, early stopping, best-model retention.

Each chunk is backpropagated as soon as its loss is built, so training memory
is one chunk's graph, whatever ``batch_size`` is.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError
from .kitti import AugmentPolicy, LabeledFrame, augment_frame
from .optim import (AdamState, TrainConfig, adam_step, clip_global_norm,
                    early_stop_check, schedule_lr)
from .params import make_rng
from .pipeline import ModelState, initial_state, pipeline_step
from .tensor import no_grad


@dataclass
class EpochLog:
    epoch: int
    lr: float
    train_loss: float
    val_loss: float
    wall_seconds: float
    grad_norm: float


@dataclass
class TrainResult:
    logs: list[EpochLog] = field(default_factory=list)
    best_epoch: int = -1
    best_val_loss: float = float("inf")
    best_params: dict | None = None
    best_buffers: dict | None = None
    stopped_early: bool = False
    stop_reason: str = ""


def make_chunks(sequences: list[list[LabeledFrame]], window: int) -> list[list[LabeledFrame]]:
    """Split every sequence into consecutive non-overlapping chunks of length
    <= window; backprop is truncated at chunk boundaries."""
    if window < 1:
        raise ConfigError("window must be >= 1")
    chunks = []
    for seq in sequences:
        for start in range(0, len(seq), window):
            chunk = seq[start:start + window]
            if chunk:
                chunks.append(chunk)
    return chunks


def sequence_loss(chunk: list[LabeledFrame], model: ModelState, mode: str,
                  rng: np.random.Generator, augment: AugmentPolicy | None):
    """Mean loss of the pipeline unrolled over one chunk from a fresh temporal
    state; rng is shared by augmentation, subsampling and dropout of every
    frame in the chunk.

    pipeline_step and augment_frame are called through this module's names,
    which is where the traced benchmark (perfbench/spans.py) wraps them.
    """
    state = initial_state(model.cfg)
    total = None
    for lf in chunk:
        if augment is not None:
            lf = augment_frame(lf, rng, augment, max_step=model.cfg.max_step)
        res = pipeline_step(lf.frame, state, model, mode=mode, rng=rng, label=lf)
        state = res.state
        total = res.loss if total is None else total + res.loss
    return total * (1.0 / len(chunk))


def validation_loss(model: ModelState, val_chunks: list[list[LabeledFrame]]) -> float:
    """Mean eval-mode loss over the chunks; nothing calls backward on it, so
    it records no tape."""
    with no_grad():
        losses = [float(sequence_loss(chunk, model, "eval", make_rng(0), None).data)
                  for chunk in val_chunks]
    return float(np.mean(losses)) if losses else float("nan")


def train(model: ModelState, train_seqs: list[list[LabeledFrame]],
          val_seqs: list[list[LabeledFrame]], tcfg: TrainConfig,
          augment: AugmentPolicy | None = None,
          max_epochs: int | None = None,
          log_fn: Callable[[EpochLog], None] | None = None,
          stop_hook: Callable[[int, ModelState, TrainResult], bool] | None = None,
          ) -> TrainResult:
    """Epoch loop over shuffled chunk batches with per-epoch validation.

    The best-validation parameter snapshot is retained; training stops early
    when the best epoch is >= patience epochs old, or when stop_hook returns
    True (checked after each epoch).
    """
    tcfg.validate()
    if max_epochs is None:
        max_epochs = tcfg.total_epochs
    rng = make_rng(tcfg.seed)
    train_chunks = make_chunks(train_seqs, model.cfg.window)
    val_chunks = make_chunks(val_seqs, model.cfg.window)
    if not train_chunks:
        raise ConfigError("no training chunks; dataset is empty")

    n_batches = max(1, (len(train_chunks) + tcfg.batch_size - 1) // tcfg.batch_size)
    total_steps = max(1, max_epochs * n_batches)
    result = TrainResult()
    adam = AdamState()
    history: list[float] = []
    step = 0

    def snapshot():
        result.best_params = model.params.state_dict()
        result.best_buffers = copy.deepcopy(model.buffers)

    if max_epochs == 0:
        # degenerate run: the "trained" model is the initialization
        result.best_epoch = 0
        result.best_val_loss = validation_loss(model, val_chunks) if val_chunks else float("nan")
        snapshot()
        return result

    for epoch in range(max_epochs):
        t_start = time.perf_counter()
        order = rng.permutation(len(train_chunks))
        epoch_losses = []
        last_norm = 0.0
        lr = 0.0
        for b in range(n_batches):
            idxs = order[b * tcfg.batch_size:(b + 1) * tcfg.batch_size]
            batch_loss = 0.0
            for i in idxs:
                loss = sequence_loss(train_chunks[i], model, "train", rng, augment)
                batch_loss += float(loss.data)
                (loss * (1.0 / len(idxs))).backward()
            epoch_losses.append(batch_loss * (1.0 / len(idxs)))
            last_norm = clip_global_norm(model.params, tcfg.clip_norm)
            step += 1
            lr = schedule_lr(step, tcfg.warmup_steps, total_steps,
                             tcfg.lr_init, tcfg.lr_min)
            adam_step(model.params, adam, lr, tcfg.weight_decay)

        val = validation_loss(model, val_chunks) if val_chunks else float(np.mean(epoch_losses))
        history.append(val)
        if val < result.best_val_loss:
            result.best_val_loss = val
            result.best_epoch = epoch
            snapshot()
        log = EpochLog(epoch=epoch, lr=lr, train_loss=float(np.mean(epoch_losses)),
                       val_loss=val, wall_seconds=time.perf_counter() - t_start,
                       grad_norm=last_norm)
        result.logs.append(log)
        if log_fn is not None:
            log_fn(log)
        if stop_hook is not None and stop_hook(epoch, model, result):
            result.stopped_early = True
            result.stop_reason = "stop hook satisfied"
            break
        if early_stop_check(history, tcfg.patience):
            result.stopped_early = True
            result.stop_reason = (f"no validation improvement for {tcfg.patience} "
                                  f"epochs (best at epoch {result.best_epoch})")
            break

    if result.best_params is None:
        snapshot()
        result.best_epoch = max_epochs - 1
    return result
