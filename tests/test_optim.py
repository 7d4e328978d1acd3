import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from navfuse.errors import ContractError, NumericError
from navfuse.optim import (AdamState, TrainConfig, adam_step, clip_global_norm,
                           early_stop_check, schedule_lr)
from navfuse.params import ParamRegistry


def _registry(**arrays):
    params = ParamRegistry()
    out = {}
    for k, v in arrays.items():
        out[k] = params.register(k, np.asarray(v, dtype=np.float64))
    return params, out


class TestAdam:
    def test_first_step_hand_value(self):
        params, ts = _registry(theta=[1.0])
        ts["theta"].grad = np.array([1.0])
        adam_step(params, AdamState(), lr=0.1, weight_decay=0.0)
        # m_hat = v_hat = 1 after bias correction at t=1
        assert abs(ts["theta"].data[0] - 0.9) < 1e-7

    def test_zero_grad_no_move(self):
        params, ts = _registry(theta=[2.0, -3.0])
        ts["theta"].grad = np.zeros(2)
        adam_step(params, AdamState(), lr=0.1)
        assert np.array_equal(ts["theta"].data, [2.0, -3.0])

    def test_weight_decay_acts_through_grad(self):
        params, ts = _registry(theta=[1.0])
        ts["theta"].grad = np.zeros(1)
        adam_step(params, AdamState(), lr=0.1, weight_decay=0.0001)
        assert ts["theta"].data[0] < 1.0

    def test_missing_grad(self):
        params, _ = _registry(theta=[1.0])
        with pytest.raises(ContractError):
            adam_step(params, AdamState(), lr=0.1)

    def test_grads_zeroed_after_step(self):
        params, ts = _registry(theta=[1.0])
        ts["theta"].grad = np.array([1.0])
        adam_step(params, AdamState(), lr=0.1)
        assert ts["theta"].grad is None

    def test_deterministic(self):
        results = []
        for _ in range(2):
            params, ts = _registry(theta=[0.3, -1.2])
            state = AdamState()
            for step in range(5):
                ts["theta"].grad = ts["theta"].data * 0.5 + step
                adam_step(params, state, lr=0.01, weight_decay=0.0001)
            results.append(ts["theta"].data.tobytes())
        assert results[0] == results[1]


class TestSchedule:
    def test_warmup_end_is_lr_init(self):
        assert schedule_lr(100, 100, 1000, 0.001, 0.0) == 0.001

    def test_endpoint_is_lr_min(self):
        assert schedule_lr(1000, 100, 1000, 0.001, 1e-5) == pytest.approx(1e-5)

    def test_midpoint(self):
        assert schedule_lr(550, 100, 1000, 0.001, 0.0) == pytest.approx(0.0005)

    def test_continuous_at_junction(self):
        before = schedule_lr(99, 100, 1000, 0.001, 0.0)
        at = schedule_lr(100, 100, 1000, 0.001, 0.0)
        assert abs(at - before) < 0.001 / 100 + 1e-12

    def test_monotone_after_warmup(self):
        vals = [schedule_lr(s, 100, 1000, 0.001, 1e-5) for s in range(100, 1001)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_clamped_beyond_total(self):
        assert schedule_lr(5000, 100, 1000, 0.001, 1e-5) == pytest.approx(1e-5)


class TestClip:
    def test_below_threshold_unchanged(self):
        params, ts = _registry(g=[3.0, 4.0])
        ts["g"].grad = np.array([3.0, 4.0])
        assert clip_global_norm(params, 10.0) == pytest.approx(5.0)
        assert np.array_equal(ts["g"].grad, [3.0, 4.0])

    def test_scaling(self):
        params, ts = _registry(g=[0.0, 0.0])
        ts["g"].grad = np.array([30.0, 40.0])
        assert clip_global_norm(params, 10.0) == pytest.approx(50.0)
        assert np.allclose(ts["g"].grad, [6.0, 8.0])

    def test_zero_grads(self):
        params, ts = _registry(g=[1.0])
        ts["g"].grad = np.zeros(1)
        assert clip_global_norm(params, 10.0) == 0.0

    def test_nonfinite_grad(self):
        params, ts = _registry(g=[1.0])
        ts["g"].grad = np.array([np.nan])
        with pytest.raises(NumericError):
            clip_global_norm(params, 10.0)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=8),
           st.floats(0.1, 20))
    def test_never_increases_norm(self, grads, max_norm):
        params, ts = _registry(g=np.zeros(len(grads)))
        ts["g"].grad = np.asarray(grads, dtype=np.float64)
        pre = clip_global_norm(params, max_norm)
        post = math.sqrt(float(np.sum(ts["g"].grad ** 2)))
        assert post <= pre + 1e-9
        assert post <= max_norm + 1e-9


class TestEarlyStop:
    def test_still_improving(self):
        assert early_stop_check([1.0, 0.9, 0.8], 10) is False

    def test_patience_exhausted(self):
        history = [0.5] + [0.6 + 0.01 * i for i in range(10)]
        assert early_stop_check(history, 10) is True

    def test_earliest_best_tie(self):
        assert early_stop_check([0.5, 0.5, 0.5], 2) is True

    def test_empty_history(self):
        with pytest.raises(ContractError):
            early_stop_check([], 5)


def test_train_config_paper_defaults():
    cfg = TrainConfig().validate()
    assert cfg.batch_size == 16
    assert cfg.lr_init == 0.001
    assert cfg.clip_norm == 10.0
    assert cfg.patience == 10
    assert cfg.weight_decay == 0.0001
