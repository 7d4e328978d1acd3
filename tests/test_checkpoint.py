"""Checkpoint container: save/load round-trip and error contracts."""

import json

import numpy as np
import pytest

from navfuse.checkpoint import (FORMAT_VERSION, MAGIC, Checkpoint, load_checkpoint,
                                load_model, save_checkpoint)
from navfuse.cli import main
from navfuse.config import RunConfig, config_to_dict
from navfuse.errors import CheckpointError
from navfuse.params import make_rng
from navfuse.pipeline import init_pipeline
from navfuse.verify import small_pipeline_config


def _fixture_ckpt(seed=0):
    rng = make_rng(seed)
    params = {"a.w": rng.normal(size=(3, 4)), "a.b": rng.normal(size=4),
              "scalar": np.array(2.5)}
    buffers = {"bn.mean": rng.normal(size=4)}
    return Checkpoint(config={"seed": seed}, params=params, buffers=buffers,
                      epoch=3, best_val_loss=0.125)


def test_round_trip_bitwise(tmp_path):
    path = str(tmp_path / "ck.bin")
    ckpt = _fixture_ckpt()
    save_checkpoint(ckpt, path)
    back = load_checkpoint(path)
    assert back.config == ckpt.config
    assert back.epoch == 3 and back.best_val_loss == 0.125
    for k, v in ckpt.params.items():
        np.testing.assert_array_equal(back.params[k], v)
    for k, v in ckpt.buffers.items():
        np.testing.assert_array_equal(back.buffers[k], v)


def test_save_is_deterministic(tmp_path):
    a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    save_checkpoint(_fixture_ckpt(), a)
    save_checkpoint(_fixture_ckpt(), b)
    assert open(a, "rb").read() == open(b, "rb").read()


def test_no_adam_state(tmp_path):
    # the payload holds the parameters and buffers and nothing else
    path = tmp_path / "ck.bin"
    save_checkpoint(_fixture_ckpt(), str(path))
    header = _read_header(path.read_bytes())
    assert "adam" not in header
    assert sorted(e["name"] for e in header["arrays"]) == [
        "buffer/bn.mean", "param/a.b", "param/a.w", "param/scalar"]
    assert header["total_floats"] == 4 + 4 + 12 + 1


def test_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(str(path))


def test_truncated_payload(tmp_path):
    path = tmp_path / "ck.bin"
    save_checkpoint(_fixture_ckpt(), str(path))
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(CheckpointError, match="payload"):
        load_checkpoint(str(path))


def test_unsupported_version(tmp_path):
    path = tmp_path / "ck.bin"
    save_checkpoint(_fixture_ckpt(), str(path))
    raw = path.read_bytes()
    # bump the version integer inside the JSON header
    bad = raw.replace(f'"version": {FORMAT_VERSION}'.encode(),
                      f'"version": {FORMAT_VERSION + 9}'.encode())
    hlen = int.from_bytes(raw[len(MAGIC):len(MAGIC) + 4], "little")
    bad = MAGIC + (hlen + len(bad) - len(raw)).to_bytes(4, "little") + bad[len(MAGIC) + 4:]
    path.write_bytes(bad)
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(str(path))


def _read_header(raw):
    start = len(MAGIC) + 4
    return json.loads(raw[start:start + int.from_bytes(raw[len(MAGIC):start], "little")])


def _drop_total_floats(header):
    del header["total_floats"]


def _unknown_kind(header):
    header["arrays"][0]["name"] = "bogus/" + header["arrays"][0]["name"]


def _past_payload(header):
    header["arrays"][0]["offset"] = header["total_floats"] - 1  # a 3x4 array


def _not_an_object(header):
    return []


def _version_1(header):
    # a checkpoint of the format that carried Adam state
    header["version"] = 1


def _drop(key):
    def edit(header):
        del header[key]
    edit.__name__ = f"_drop_{key}"
    return edit


def _shapeless_array(header):
    del header["arrays"][0]["shape"]


def _float_offset(header):
    header["arrays"][0]["offset"] = 0.5


@pytest.mark.parametrize("edit, match", [(_drop_total_floats, "promises None"),
                                         (_unknown_kind, "unknown kind"),
                                         (_past_payload, "past the payload"),
                                         (_not_an_object, "not a JSON object"),
                                         (_version_1, "version 1"),
                                         (_drop("arrays"), "lacks arrays"),
                                         (_drop("config"), "lacks config"),
                                         (_drop("epoch"), "lacks epoch"),
                                         (_drop("best_val_loss"), "lacks best_val_loss"),
                                         (_shapeless_array, "needs a name, a shape"),
                                         (_float_offset, "integer offset")])
def test_malformed_header_is_checkpoint_error(tmp_path, edit, match):
    path = tmp_path / "ck.bin"
    save_checkpoint(_fixture_ckpt(), str(path))
    raw = path.read_bytes()
    start = len(MAGIC) + 4
    end = start + int.from_bytes(raw[len(MAGIC):start], "little")
    header = _read_header(raw)
    edited = edit(header)
    header = header if edited is None else edited
    blob = json.dumps(header).encode()
    path.write_bytes(MAGIC + len(blob).to_bytes(4, "little") + blob + raw[end:])
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(str(path))
    assert main(["eval", "--checkpoint", str(path), "--out", str(tmp_path / "e")]) == 3


def _model_ckpt(model, params=None, config=None):
    snapshot = config_to_dict(RunConfig(pipeline=model.cfg)) if config is None else config
    return Checkpoint(config=snapshot,
                      params=model.params.state_dict() if params is None else params,
                      buffers={k: v.copy() for k, v in model.buffers.items()})


def test_restore_into_model(tmp_path):
    model = init_pipeline(small_pipeline_config(), seed=99)
    path = str(tmp_path / "model.bin")
    save_checkpoint(_model_ckpt(model), path)

    # the snapshot alone describes the model: it is built at another seed
    # and a config the caller never passes, then takes the saved arrays
    other = load_model(path)
    assert other.cfg == model.cfg
    for k, v in model.params.items():
        np.testing.assert_array_equal(other.params.get(k).data, v.data)
    for k, v in model.buffers.items():
        np.testing.assert_array_equal(other.buffers[k], v)


def test_restore_shape_mismatch(tmp_path):
    model = init_pipeline(small_pipeline_config(), seed=0)
    state = model.params.state_dict()
    first = next(iter(state))
    state[first] = np.zeros(np.asarray(state[first]).shape + (2,))
    path = str(tmp_path / "bad.bin")
    save_checkpoint(_model_ckpt(model, params=state), path)
    with pytest.raises(CheckpointError, match="does not match model"):
        load_model(path)


def test_conv_bias_checkpoint_is_checkpoint_error(tmp_path):
    # the RGB stages' convs once carried a bias; a checkpoint holding one
    # does not match the bias-free model
    model = init_pipeline(small_pipeline_config(), seed=0)
    state = model.params.state_dict()
    for i, c in enumerate(model.cfg.rgb.stage_channels):
        state[f"rgb.stage{i}.conv.b"] = np.zeros(c)
    path = str(tmp_path / "biased.bin")
    save_checkpoint(_model_ckpt(model, params=state), path)
    with pytest.raises(CheckpointError, match=r"rgb\.stage0\.conv\.b"):
        load_model(path)


def test_empty_snapshot_is_the_default_pipeline(tmp_path):
    # config={} is the default pipeline, which the small model's arrays do
    # not fit
    model = init_pipeline(small_pipeline_config(), seed=0)
    path = str(tmp_path / "small.bin")
    save_checkpoint(_model_ckpt(model, config={}), path)
    with pytest.raises(CheckpointError, match="does not match model"):
        load_model(path)


@pytest.mark.parametrize("config", [{"pipeline": {"beta": -1}}, {"nonsense": 1}, []])
def test_invalid_snapshot_is_checkpoint_error(tmp_path, config):
    model = init_pipeline(small_pipeline_config(), seed=0)
    path = str(tmp_path / "bad.bin")
    save_checkpoint(_model_ckpt(model, config=config), path)
    with pytest.raises(CheckpointError, match="config snapshot"):
        load_model(path)


def test_buffer_mismatch_is_checkpoint_error(tmp_path):
    model = init_pipeline(small_pipeline_config(), seed=0)
    ckpt = _model_ckpt(model)
    name = next(iter(ckpt.buffers))
    ckpt.buffers[name] = np.zeros(ckpt.buffers[name].shape + (2,))
    save_checkpoint(ckpt, str(tmp_path / "shape.bin"))
    with pytest.raises(CheckpointError, match="buffer shape mismatch"):
        load_model(str(tmp_path / "shape.bin"))
    ckpt.buffers["extra"] = np.zeros(1)
    save_checkpoint(ckpt, str(tmp_path / "names.bin"))
    with pytest.raises(CheckpointError, match="buffer names"):
        load_model(str(tmp_path / "names.bin"))
