"""Navigation accuracy, localization precision, throughput, robustness index."""

from dataclasses import asdict

import numpy as np
import pytest

from navfuse.errors import ConfigError, ContractError
from navfuse.metrics import (evaluate_run, metric_fps, metric_lp, metric_na,
                             metric_ri)
from navfuse.pipeline import init_pipeline
from navfuse.verify import small_pipeline_config, small_synth_frames


def _err(preds, label=0.0):
    """Per-frame errors as evaluate_run computes them: the norm of each
    prediction minus its label."""
    return np.array([np.linalg.norm(np.asarray(p, dtype=float) - label) for p in preds])


def test_na_threshold_count():
    wp_err = _err([(0.3, 0.0), (0.6, 0.0), (0.4, 0.0)])
    assert metric_na(wp_err, threshold=0.5) == pytest.approx(2.0 / 3.0)


def test_na_perfect():
    assert metric_na(_err([(1.0, 2.0)] * 4, label=(1.0, 2.0))) == 1.0


def test_na_strict_inequality_at_threshold():
    # a deviation of exactly 0.5 m counts as incorrect
    assert metric_na(_err([(0.5, 0.0)]), threshold=0.5) == 0.0


def test_na_empty_input():
    with pytest.raises(ContractError):
        metric_na(np.array([]))


def test_na_permutation_invariant():
    wp_err = _err([(0.1 * i, 0.0) for i in range(8)])
    base = metric_na(wp_err)
    perm = np.random.Generator(np.random.Philox(0)).permutation(8)
    assert metric_na(wp_err[perm]) == base


def test_lp_axis_distance():
    assert metric_lp(_err([(1, 2, 3)], label=(1, 2, 5))) == pytest.approx(2.0)


def test_lp_identity():
    assert metric_lp(_err([(1, 2, 3)], label=(1, 2, 3))) == 0.0


def test_lp_mean():
    assert metric_lp(_err([(1, 0, 0), (3, 0, 0)])) == pytest.approx(2.0)


def test_fps_division():
    assert metric_fps(120, 6.0) == 20.0


def test_fps_zero_duration():
    with pytest.raises(ContractError):
        metric_fps(10, 0.0)


def test_ri_ratio():
    assert metric_ri(0.72, 0.90) == pytest.approx(0.8)


def test_ri_identity():
    assert metric_ri(0.5, 0.5) == 1.0


def test_ri_zero_standard():
    with pytest.raises(ContractError):
        metric_ri(0.5, 0.0)


# -- evaluation runner -------------------------------------------------


def test_evaluate_requires_standard():
    model = init_pipeline(small_pipeline_config(), seed=0)
    frames = small_synth_frames(3)
    with pytest.raises(ConfigError):
        evaluate_run([("low_light", frames)], model)


def test_evaluate_schema_and_determinism():
    model = init_pipeline(small_pipeline_config(), seed=0)
    frames = small_synth_frames(4)
    other = small_synth_frames(4)
    ds = [("standard", frames), ("dynamic", other)]
    m1 = evaluate_run(ds, model)
    m2 = evaluate_run(ds, model)
    d1, d2 = asdict(m1), asdict(m2)
    assert set(d1) == {"na", "lp", "fps", "ri", "scenarios"}
    d1.pop("fps"), d2.pop("fps")
    assert d1 == d2
    assert list(m1.scenarios) == ["standard", "dynamic"]
    for row in m1.scenarios.values():
        assert set(row) == {"na", "lp", "ri", "w_rgb", "w_lidar"}
    assert m1.scenarios["standard"]["ri"] is None
    # RI is reported only when standard NA is nonzero (undefined otherwise)
    if m1.scenarios["standard"]["na"] > 0:
        assert m1.scenarios["dynamic"]["ri"] is not None
    else:
        assert m1.scenarios["dynamic"]["ri"] is None and m1.ri is None


def test_evaluate_ri_composition():
    # RI follows directly from per-scenario NA; checked against hand ratio
    model = init_pipeline(small_pipeline_config(), seed=0)
    ds = [("standard", small_synth_frames(4)),
          ("low_light", small_synth_frames(4))]
    m = evaluate_run(ds, model)
    na_std = m.scenarios["standard"]["na"]
    if na_std > 0:
        assert m.scenarios["low_light"]["ri"] == pytest.approx(
            m.scenarios["low_light"]["na"] / na_std)
        assert m.ri == m.scenarios["low_light"]["ri"]


def test_evaluate_mean_weights_recorded():
    model = init_pipeline(small_pipeline_config(), seed=0)
    m = evaluate_run([("standard", small_synth_frames(4))], model)
    row = m.scenarios["standard"]
    w_rgb, w_lidar = row["w_rgb"], row["w_lidar"]
    assert w_rgb > 0 and w_lidar > 0
    assert w_rgb + w_lidar == pytest.approx(1.0, abs=1e-12)
    assert m.ri is None
