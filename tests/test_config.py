"""Run configuration parsing and round-trip."""

import pytest
import yaml

from navfuse.config import RunConfig, config_from_dict, config_to_dict, load_config
from navfuse.errors import ConfigError


def test_defaults_carry_training_recipe():
    cfg = RunConfig()
    assert cfg.train.batch_size == 16
    assert cfg.train.lr_init == 0.001
    assert cfg.train.clip_norm == 10.0
    assert cfg.train.patience == 10
    assert cfg.train.weight_decay == 0.0001
    assert cfg.pipeline.dropout_rate == 0.1


def test_yaml_round_trip_idempotent():
    text = yaml.safe_dump(config_to_dict(RunConfig()))
    again = yaml.safe_dump(config_to_dict(load_config(text)))
    assert text == again


def test_partial_override():
    cfg = load_config("train:\n  batch_size: 4\npipeline:\n  beta: 0.0\n")
    assert cfg.train.batch_size == 4
    assert cfg.pipeline.beta == 0.0
    assert cfg.train.lr_init == 0.001  # untouched defaults survive


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="bogus"):
        load_config("bogus: 1\n")


def test_unknown_nested_key_names_path():
    with pytest.raises(ConfigError, match="train"):
        load_config("train:\n  momentum: 0.9\n")


def test_empty_config_is_defaults():
    assert config_to_dict(load_config("")) == config_to_dict(RunConfig())


def test_malformed_yaml():
    with pytest.raises(ConfigError):
        load_config("train: [unclosed\n")


def test_invalid_values_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"train": {"batch_size": 0}})
    with pytest.raises(ConfigError):
        config_from_dict({"pipeline": {"modality": "sonar"}})
    with pytest.raises(ConfigError):
        config_from_dict({"synth": {"scenarios": ["fog"]}})


def test_shared_values_propagate():
    # max_step and dropout_rate are set under pipeline only; the data and
    # train keys that used to overwrite them are unknown keys now
    cfg = load_config("pipeline:\n  max_step: 3.0\n  dropout_rate: 0.4\n")
    assert cfg.pipeline.max_step == 3.0
    assert cfg.pipeline.dropout_rate == 0.4
    for text in ("data:\n  max_step: 3.0\n", "train:\n  dropout_rate: 0.25\n"):
        with pytest.raises(ConfigError, match="unknown"):
            load_config(text)
    with pytest.raises(ConfigError, match="dropout_rate"):
        load_config("pipeline:\n  dropout_rate: 1.0\n")


@pytest.mark.parametrize("text, path", [
    ("train: {batch_size: abc}", "train.batch_size"),
    ("train: {lr_init: fast}", "train.lr_init"),
    ("train: {batch_size: true}", "train.batch_size"),
    ("train: {batch_size: 2.5}", "train.batch_size"),
    ("pipeline: {rgb: {strides: 3}}", "pipeline.rgb.strides"),
    ("pipeline: {rgb: {strides: [2, x]}}", "pipeline.rgb.strides"),
    ("synth: {scenarios: 3}", "synth.scenarios"),
    ("data: {augment: 1}", "data.augment"),
    ("seed: null", "seed"),
])
def test_wrong_value_type_rejected(text, path):
    with pytest.raises(ConfigError, match=path):
        load_config(text)


@pytest.mark.parametrize("text, match", [
    ("pipeline: {window: 0}", "window"),
    ("pipeline: {n_ref: 0}", "n_ref"),
    ("pipeline: {hidden_dim: 0}", "hidden_dim"),
    ("pipeline: {fusion_dim: -16}", "fusion_dim"),
    ("pipeline: {max_step: 0.0}", "max_step"),
    ("pipeline: {depth_max: -1.0}", "depth_max"),
    ("pipeline: {tau_img: 0}", "tau_img"),
    ("seed: -1", "seed"),
    ("train: {seed: -1}", "train.seed"),
    ("synth: {frames: 1}", "synth.frames"),
    ("synth: {width: 4}", "camera"),
    ("synth: {focal: 0.0}", "camera"),
])
def test_out_of_range_value_rejected(text, match):
    with pytest.raises(ConfigError, match=match):
        load_config(text)


def test_int_accepted_for_float():
    assert load_config("pipeline: {beta: 2}").pipeline.beta == 2


def test_zero_stride_rejected():
    with pytest.raises(ConfigError, match="strides"):
        load_config("pipeline: {rgb: {strides: [2, 0, 2]}}")
