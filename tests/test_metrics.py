"""Navigation accuracy, localization precision, throughput, robustness index."""

import numpy as np
import pytest

from navfuse.errors import ConfigError, ContractError
from navfuse.kitti import LabeledFrame
from navfuse.metrics import (evaluate_run, metric_fps, metric_lp, metric_na,
                             metric_ri)
from navfuse.pipeline import init_pipeline
from navfuse.temporal import NavOutput
from navfuse.verify import small_pipeline_config, small_synth_frames


def _pair(way_pred, way_true=(0.0, 0.0), ego_pred=(0, 0, 0), ego_true=(0, 0, 0)):
    pred = NavOutput(waypoint=np.asarray(way_pred, dtype=float),
                     ego_delta=np.asarray(ego_pred, dtype=float))
    label = LabeledFrame(frame=None, waypoint=np.asarray(way_true, dtype=float),
                         ego_delta=np.asarray(ego_true, dtype=float))
    return pred, label


def _unzip(pairs):
    return [p for p, _ in pairs], [l for _, l in pairs]


def test_na_threshold_count():
    pairs = [_pair((0.3, 0.0)), _pair((0.6, 0.0)), _pair((0.4, 0.0))]
    assert metric_na(*_unzip(pairs), threshold=0.5) == pytest.approx(2.0 / 3.0)


def test_na_perfect():
    pairs = [_pair((1.0, 2.0), (1.0, 2.0))] * 4
    assert metric_na(*_unzip(pairs)) == 1.0


def test_na_strict_inequality_at_threshold():
    # a deviation of exactly 0.5 m counts as incorrect
    pairs = [_pair((0.5, 0.0))]
    assert metric_na(*_unzip(pairs), threshold=0.5) == 0.0


def test_na_empty_input():
    with pytest.raises(ContractError):
        metric_na([], [])


def test_na_permutation_invariant():
    pairs = [_pair((0.1 * i, 0.0)) for i in range(8)]
    preds, labels = _unzip(pairs)
    base = metric_na(preds, labels)
    perm = np.random.Generator(np.random.Philox(0)).permutation(8)
    assert metric_na([preds[i] for i in perm], [labels[i] for i in perm]) == base


def test_lp_axis_distance():
    pairs = [_pair((0, 0), ego_pred=(1, 2, 3), ego_true=(1, 2, 5))]
    assert metric_lp(*_unzip(pairs)) == pytest.approx(2.0)


def test_lp_identity():
    pairs = [_pair((0, 0), ego_pred=(1, 2, 3), ego_true=(1, 2, 3))]
    assert metric_lp(*_unzip(pairs)) == 0.0


def test_lp_mean():
    pairs = [_pair((0, 0), ego_pred=(1, 0, 0)), _pair((0, 0), ego_pred=(3, 0, 0))]
    assert metric_lp(*_unzip(pairs)) == pytest.approx(2.0)


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
    d1, d2 = m1.to_dict(), m2.to_dict()
    assert set(d1) == {"na", "lp", "fps", "ri", "per_scenario", "per_scenario_ri",
                       "mean_weights"}
    d1.pop("fps"), d2.pop("fps")
    assert d1 == d2
    assert set(m1.per_scenario) == {"standard", "dynamic"}
    # RI is reported only when standard NA is nonzero (undefined otherwise)
    if m1.per_scenario["standard"][0] > 0:
        assert set(m1.per_scenario_ri) == {"dynamic"}
    else:
        assert m1.per_scenario_ri == {} and m1.ri is None


def test_evaluate_ri_composition():
    # RI follows directly from per-scenario NA; checked against hand ratio
    model = init_pipeline(small_pipeline_config(), seed=0)
    ds = [("standard", small_synth_frames(4)),
          ("low_light", small_synth_frames(4))]
    m = evaluate_run(ds, model)
    na_std = m.per_scenario["standard"][0]
    if na_std > 0:
        assert m.per_scenario_ri["low_light"] == pytest.approx(
            m.per_scenario["low_light"][0] / na_std)


def test_evaluate_mean_weights_recorded():
    model = init_pipeline(small_pipeline_config(), seed=0)
    m = evaluate_run([("standard", small_synth_frames(4))], model)
    w_rgb, w_lidar = m.mean_weights["standard"]
    assert w_rgb > 0 and w_lidar > 0
    assert w_rgb + w_lidar == pytest.approx(1.0, abs=1e-12)
    assert m.ri is None
