"""Training loop behavior: chunking, descent, early stop, determinism."""

import tracemalloc

import numpy as np
import pytest

from navfuse import train as train_mod
from navfuse.errors import ConfigError
from navfuse.kitti import AugmentPolicy, augment_frame
from navfuse.optim import AdamState, TrainConfig, adam_step, clip_global_norm, schedule_lr
from navfuse.params import make_rng
from navfuse.pipeline import init_pipeline
from navfuse.train import make_chunks, sequence_loss, train, validation_loss
from navfuse.verify import small_pipeline_config, small_synth_frames


def _tcfg(**kw):
    base = dict(batch_size=2, total_epochs=3, warmup_steps=2, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def test_make_chunks_nonoverlapping():
    seq = list(range(10))
    chunks = make_chunks([seq], window=4)
    assert chunks == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]


def test_make_chunks_multiple_sequences():
    chunks = make_chunks([[1, 2], [3]], window=4)
    assert chunks == [[1, 2], [3]]


def test_make_chunks_bad_window():
    with pytest.raises(ConfigError):
        make_chunks([[1]], window=0)


def test_validation_loss_matches_taped_chunks():
    model = init_pipeline(small_pipeline_config(), seed=0)
    chunks = make_chunks([small_synth_frames(9)[:8]], model.cfg.window)
    taped = [sequence_loss(c, model, "eval", make_rng(0), None) for c in chunks]
    assert all(loss._backward_fn is not None for loss in taped)
    assert validation_loss(model, chunks) == float(np.mean([float(l.data) for l in taped]))


def test_train_empty_dataset():
    model = init_pipeline(small_pipeline_config(), seed=0)
    with pytest.raises(ConfigError):
        train(model, [], [], _tcfg())


def test_train_loss_decreases():
    cfg = small_pipeline_config()
    model = init_pipeline(cfg, seed=0)
    frames = small_synth_frames(9)
    result = train(model, [frames], [frames], _tcfg(total_epochs=5), max_epochs=5)
    assert result.logs[-1].val_loss < result.logs[0].val_loss
    assert result.best_val_loss <= min(l.val_loss for l in result.logs)


def test_train_zero_epochs_is_initialization():
    cfg = small_pipeline_config()
    model = init_pipeline(cfg, seed=0)
    before = model.params.state_dict()
    frames = small_synth_frames(5)
    result = train(model, [frames], [frames], _tcfg(), max_epochs=0)
    assert result.logs == []
    for k, v in before.items():
        np.testing.assert_array_equal(result.best_params[k], v)


def test_train_bitwise_deterministic():
    cfg = small_pipeline_config()
    frames = small_synth_frames(7)

    def run():
        model = init_pipeline(cfg, seed=0)
        return train(model, [frames], [frames], _tcfg(total_epochs=2), max_epochs=2)

    a, b = run(), run()
    assert [l.val_loss for l in a.logs] == [l.val_loss for l in b.logs]
    assert [l.train_loss for l in a.logs] == [l.train_loss for l in b.logs]
    for k, v in a.best_params.items():
        np.testing.assert_array_equal(b.best_params[k], v)


def test_train_early_stop_reason():
    cfg = small_pipeline_config()
    model = init_pipeline(cfg, seed=0)
    frames = small_synth_frames(5)
    # patience 1 with a zero lr: no improvement is possible after epoch 0
    result = train(model, [frames], [frames],
                   _tcfg(total_epochs=50, patience=1, lr_init=0.0, lr_min=0.0),
                   max_epochs=50)
    assert result.stopped_early
    assert "improvement" in result.stop_reason
    assert len(result.logs) < 50


def test_train_stop_hook():
    cfg = small_pipeline_config()
    model = init_pipeline(cfg, seed=0)
    frames = small_synth_frames(5)
    result = train(model, [frames], [frames], _tcfg(total_epochs=50),
                   max_epochs=50, stop_hook=lambda epoch, m, r: epoch >= 1)
    assert result.stopped_early
    assert len(result.logs) == 2


def test_train_best_snapshot_restores_best_val():
    cfg = small_pipeline_config()
    model = init_pipeline(cfg, seed=0)
    frames = small_synth_frames(7)
    result = train(model, [frames], [frames], _tcfg(total_epochs=3), max_epochs=3)
    model.params.load_state_dict(result.best_params)
    from navfuse.train import make_chunks as mk
    val = validation_loss(model, mk([frames], cfg.window))
    assert val == result.best_val_loss


def test_train_with_augmentation_runs():
    from navfuse.kitti import AugmentPolicy
    cfg = small_pipeline_config()
    model = init_pipeline(cfg, seed=0)
    frames = small_synth_frames(5)
    result = train(model, [frames], [frames], _tcfg(total_epochs=1),
                   augment=AugmentPolicy(), max_epochs=1)
    assert np.isfinite(result.logs[0].train_loss)


def test_augmented_labels_clipped_at_configured_max_step(monkeypatch):
    cfg = small_pipeline_config()
    cfg.max_step = 2.0
    model = init_pipeline(cfg, seed=0)
    frames = small_synth_frames(13)[:4]  # 5 m lookahead: waypoints reach 5 m
    assert max(np.abs(lf.waypoint).max() for lf in frames) > 2.0
    seen = []

    def recording(lf, rng, policy, **kw):
        seen.append(augment_frame(lf, rng, policy, **kw))
        return seen[-1]

    monkeypatch.setattr(train_mod, "augment_frame", recording)
    sequence_loss(frames, model, "train", make_rng(0), AugmentPolicy())
    assert len(seen) == len(frames)
    for lf in seen:
        assert np.all(np.abs(lf.waypoint) <= 2.0) and np.all(np.abs(lf.ego_delta) <= 2.0)


def _whole_batch_train(model, chunks, tcfg, augment, on_step):
    """Reference for one epoch of train(): the chunk losses of a batch are
    summed and scaled into one graph, and one backward() walks all of it.
    Returns the logged epoch loss."""
    rng = make_rng(tcfg.seed)
    adam = AdamState()
    n_batches = (len(chunks) + tcfg.batch_size - 1) // tcfg.batch_size
    order = rng.permutation(len(chunks))
    losses = []
    for b in range(n_batches):
        idxs = order[b * tcfg.batch_size:(b + 1) * tcfg.batch_size]
        batch_loss = None
        for i in idxs:
            loss = sequence_loss(chunks[i], model, "train", rng, augment)
            batch_loss = loss if batch_loss is None else batch_loss + loss
        batch_loss = batch_loss * (1.0 / len(idxs))
        losses.append(float(batch_loss.data))
        batch_loss.backward()
        clip_global_norm(model.params, tcfg.clip_norm)
        on_step(model.params)
        lr = schedule_lr(b + 1, tcfg.warmup_steps, n_batches, tcfg.lr_init, tcfg.lr_min)
        adam_step(model.params, adam, lr, tcfg.weight_decay)
    return float(np.mean(losses))


@pytest.mark.usefixtures("float64")
def test_chunkwise_backprop_equals_whole_batch_graph(monkeypatch):
    cfg = small_pipeline_config()
    frames = small_synth_frames(29)
    # no clipping: a rescaled gradient must show, not be normalized away
    tcfg = _tcfg(batch_size=3, total_epochs=1, clip_norm=1e12)
    augment = AugmentPolicy()

    def grads(params):
        return {k: p.grad.copy() for k, p in params.items()}

    seen = []

    def recording_adam(params, state, lr, weight_decay=0.0):
        seen.append(grads(params))
        return adam_step(params, state, lr, weight_decay)

    monkeypatch.setattr(train_mod, "adam_step", recording_adam)
    result = train(init_pipeline(cfg, seed=0), [frames], [], tcfg, augment=augment,
                   max_epochs=1)
    monkeypatch.undo()

    expected = []
    model = init_pipeline(cfg, seed=0)
    chunks = make_chunks([frames], cfg.window)
    loss = _whole_batch_train(model, chunks, tcfg, augment,
                              lambda params: expected.append(grads(params)))
    assert len(chunks) % tcfg.batch_size != 0
    assert len(seen) == len(expected) == 3
    for got, want in zip(seen, expected):
        assert got.keys() == want.keys()
        for k in want:
            assert got[k].tobytes() == want[k].tobytes(), k
    assert result.logs[0].train_loss == loss


def _train_peak_bytes(batch_size: int) -> int:
    model = init_pipeline(small_pipeline_config(), seed=0)
    frames = small_synth_frames(33)  # 32 labeled frames, 8 chunks
    tcfg = _tcfg(batch_size=batch_size, total_epochs=1, warmup_steps=1)
    tracemalloc.start()
    try:
        train(model, [frames], [], tcfg, max_epochs=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_train_memory_independent_of_batch_size():
    # each chunk is backpropagated as soon as it is built, so a batch of 8
    # chunks holds no more graph than a batch of 1
    assert _train_peak_bytes(8) / _train_peak_bytes(1) < 1.5
