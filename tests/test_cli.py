"""End-to-end command-line workflows."""

import hashlib
import json
from pathlib import Path

import pytest
import yaml

from navfuse.checkpoint import load_checkpoint, save_checkpoint
from navfuse.cli import main
from navfuse.config import config_from_dict
from navfuse.pipeline import init_pipeline

SMALL_CFG = """\
seed: 0
data:
  lookahead_m: 3.0
pipeline:
  rgb:
    stage_channels: [4, 8]
    strides: [2, 2]
    attn_dim: 16
    out_dim: 16
  point:
    input_budget: 128
    centroids_min: 8
    centroids_max: 16
    radius: 3.0
    group_cap: 8
    mlp_dims: [8, 16]
    out_dim: 16
  fusion_dim: 16
  hidden_dim: 16
synth:
  frames: 6
  width: 32
  height: 32
  focal: 32.0
  n_azimuth: 32
  n_elevation: 8
train:
  batch_size: 4
  total_epochs: 2
  warmup_steps: 2
"""


def _write_cfg(tmp_path):
    data = tmp_path / "data"
    text = SMALL_CFG.replace("data:\n  lookahead_m: 3.0",
                             f"data:\n  lookahead_m: 3.0\n  root: {data}")
    text += f"out_dir: {data}\n"
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    return cfg, data


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def _report(out: Path) -> list[dict]:
    """report.jsonl's records without the timing-dependent fps."""
    recs = [json.loads(l) for l in (out / "report.jsonl").read_text().splitlines()]
    for r in recs:
        r.pop("fps", None)
    return recs


def test_synth_layout_and_manifest(tmp_path):
    cfg, data = _write_cfg(tmp_path)
    assert main(["synth", "--config", str(cfg)]) == 0
    manifest = yaml.safe_load((data / "manifest.yaml").read_text())
    assert manifest["sequences"] == {"00": "standard", "01": "dynamic",
                                     "02": "low_light", "03": "lidar_degraded"}
    for sid in range(4):
        seq = data / "sequences" / f"{sid:02d}"
        assert len(list((seq / "velodyne").glob("*.bin"))) == 6
        assert len(list((seq / "image_2").glob("*.ppm"))) == 6
        assert (seq / "calib.txt").exists()
        assert (data / "poses" / f"{sid:02d}.txt").exists()


def test_synth_deterministic(tmp_path):
    cfg, data = _write_cfg(tmp_path)
    main(["synth", "--config", str(cfg)])
    first = _tree_digest(data)
    main(["synth", "--config", str(cfg)])
    assert _tree_digest(data) == first


def test_full_workflow_train_eval_roundtrip(tmp_path):
    cfg, data = _write_cfg(tmp_path)
    run = tmp_path / "run"
    assert main(["synth", "--config", str(cfg)]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
    ckpt = run / "checkpoint.bin"
    assert ckpt.exists()
    log_lines = [json.loads(l) for l in (run / "train_log.jsonl").read_text().splitlines()]
    epoch_recs = [l for l in log_lines if "epoch" in l and "lr" in l]
    assert len(epoch_recs) == 2
    assert {"epoch", "lr", "train_loss", "val_loss", "wall_seconds"} <= set(epoch_recs[0])

    assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt),
                 "--out", str(run)]) == 0
    recs = [json.loads(l) for l in (run / "report.jsonl").read_text().splitlines()]
    agg = [r for r in recs if r["record"] == "aggregate"][0]
    assert {"na", "lp", "fps", "ri", "ablations"} <= set(agg)
    scen = {r["scenario"]: r for r in recs if r["record"] == "scenario"}
    assert set(scen) == {"standard", "dynamic", "low_light", "lidar_degraded"}
    # the degraded-LiDAR scenario must lean away from the LiDAR branch
    assert scen["lidar_degraded"]["w_lidar"] < scen["standard"]["w_lidar"]


def test_eval_deterministic_except_fps(tmp_path):
    cfg, data = _write_cfg(tmp_path)
    main(["synth", "--config", str(cfg)])
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["eval", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["eval", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert _report(out_a) == _report(out_b)


def test_eval_ablation_flags_recorded(tmp_path):
    cfg, data = _write_cfg(tmp_path)
    main(["synth", "--config", str(cfg)])
    out = tmp_path / "abl"
    assert main(["eval", "--config", str(cfg), "--out", str(out),
                 "--no-temporal", "--beta", "0", "--modality", "rgb"]) == 0
    recs = [json.loads(l) for l in (out / "report.jsonl").read_text().splitlines()]
    abl = [r for r in recs if r["record"] == "aggregate"][0]["ablations"]
    assert abl == {"use_attention": True, "use_temporal": False,
                   "beta": 0.0, "modality": "rgb"}


def test_gradcheck_passes(tmp_path):
    out = tmp_path / "gc"
    assert main(["gradcheck", "--out", str(out)]) == 0
    recs = [json.loads(l) for l in (out / "gradcheck.jsonl").read_text().splitlines()]
    assert all(r["passed"] for r in recs)
    assert any(r["record"] == "pipeline" for r in recs)
    assert all("max_rel_err" in r for r in recs)


def test_bench_report(tmp_path, capsys):
    cfg, data = _write_cfg(tmp_path)
    out = tmp_path / "bench"
    code = main(["bench", "--config", str(cfg), "--out", str(out), "--frames", "20"])
    rec = json.loads((out / "bench.jsonl").read_text())
    assert rec["frames"] == 20
    assert set(rec["stage_seconds"]) == {"backbones", "fusion", "temporal"}
    # stage accounting covers the loop within 5%
    assert sum(rec["stage_seconds"].values()) <= rec["wall_seconds"] * 1.05
    assert (0 < rec["frame_latency_p50_ms"] <= rec["frame_latency_p95_ms"]
            <= rec["frame_latency_p99_ms"] <= 1e3 * rec["wall_seconds"])
    assert f"p95 {rec['frame_latency_p95_ms']:.1f} ms" in capsys.readouterr().out
    assert rec["peak_rss_mb"] > 0
    assert code == (0 if rec["passed"] else 1)


def test_bench_nonpositive_frames_is_usage_error(tmp_path):
    cfg, _ = _write_cfg(tmp_path)
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "b"),
                 "--frames", "0"]) == 2
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("manifest", ["[standard, dynamic]\n", "sequences: [standard]\n",
                                      "sequences: {00: standard\n"])
def test_malformed_manifest_is_io_error(tmp_path, manifest):
    cfg, data = _write_cfg(tmp_path)
    assert main(["synth", "--config", str(cfg)]) == 0
    (data / "manifest.yaml").write_text(manifest)
    assert main(["eval", "--config", str(cfg), "--out", str(tmp_path / "e")]) == 3


def test_manifest_unquoted_keys_keep_their_tags(tmp_path):
    cfg, data = _write_cfg(tmp_path)
    assert main(["synth", "--config", str(cfg)]) == 0
    # YAML 1.1 reads an unquoted 01 as int 1 and 10 as int 10
    (data / "sequences" / "03").rename(data / "sequences" / "10")
    (data / "poses" / "03.txt").rename(data / "poses" / "10.txt")
    (data / "manifest.yaml").write_text(
        "sequences: {00: standard, 01: dynamic, 02: low_light, 10: lidar_degraded}\n")
    out = tmp_path / "e"
    assert main(["eval", "--config", str(cfg), "--out", str(out)]) == 0
    recs = [json.loads(l) for l in (out / "report.jsonl").read_text().splitlines()]
    assert {r["scenario"] for r in recs if r["record"] == "scenario"} == {
        "standard", "dynamic", "low_light", "lidar_degraded"}


def test_missing_config_is_io_error(tmp_path):
    assert main(["eval", "--config", str(tmp_path / "none.yaml")]) == 3


def test_bad_config_key_is_usage_error(tmp_path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("nonsense: true\n")
    assert main(["train", "--config", str(cfg)]) == 2


def test_missing_dataset_root_is_usage_error(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("train:\n  total_epochs: 1\n")
    assert main(["train", "--config", str(cfg)]) == 2




def test_non_numeric_pose_is_io_error(tmp_path):
    cfg, data = _write_cfg(tmp_path)
    assert main(["synth", "--config", str(cfg)]) == 0
    (data / "poses" / "01.txt").write_text("a " * 12 + "\n")
    assert main(["eval", "--config", str(cfg), "--out", str(tmp_path / "e")]) == 3


# calib.txt line 0 is "P2: <12 values>", line 1 "Tr: <12 values>"; Tr's
# field 4 is its x translation
@pytest.mark.parametrize("line, field, value", [(0, 1, "nan"), (0, 6, "inf"), (1, 4, "nan")])
def test_non_finite_calib_is_io_error(tmp_path, line, field, value):
    cfg, data = _write_cfg(tmp_path)
    assert main(["synth", "--config", str(cfg)]) == 0
    calib = data / "sequences" / "01" / "calib.txt"
    lines = [text.split() for text in calib.read_text().splitlines()]
    lines[line][field] = value
    calib.write_text("\n".join(" ".join(fields) for fields in lines) + "\n")
    assert main(["eval", "--config", str(cfg), "--out", str(tmp_path / "e")]) == 3


@pytest.mark.parametrize("text", ["synth: {frames: 1}\n", "synth: {width: 4}\n",
                                  "synth: {n_azimuth: 0}\n", "synth: {n_elevation: 0}\n",
                                  "seed: -1\n", "train: {seed: -1}\n"])
def test_bad_synth_config_is_usage_error(tmp_path, text):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(text + f"out_dir: {tmp_path / 'out'}\n")
    assert main(["synth", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("command, seed", [("synth", "-1"), ("gradcheck", "-2")])
def test_negative_seed_flag_is_usage_error(tmp_path, command, seed):
    assert main([command, "--seed", seed, "--out", str(tmp_path)]) == 2


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 2


def test_corrupt_checkpoint_is_io_error(tmp_path):
    cfg, data = _write_cfg(tmp_path)
    main(["synth", "--config", str(cfg)])
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"garbage")
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(bad)]) == 3


# Parameter prefixes of the branch each ablation flag switches off.
_SWITCHED_OFF = {
    "--modality=rgb": ("point.",),
    "--modality=lidar": ("rgb.",),
    "--no-temporal": ("rnn.", "tattn."),
    "--no-attention": ("rgb.attn.",),
}


@pytest.fixture(scope="module")
def synth_tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("ablate")
    cfg, _ = _write_cfg(root)
    assert main(["synth", "--config", str(cfg)]) == 0
    return cfg


@pytest.mark.parametrize("key, value", [("window", 0), ("n_ref", 0), ("hidden_dim", 0),
                                        ("fusion_dim", -16), ("max_step", 0.0),
                                        ("depth_max", -1.0), ("tau_img", 0.0),
                                        ("beta", float("nan")), ("tau_img", float("inf"))])
def test_pipeline_out_of_range_is_usage_error(synth_tree, tmp_path, key, value):
    # on a tree that evaluates: the value alone makes eval exit 2; a NaN
    # passes every `<` range check, so the type check rejects it
    data = yaml.safe_load(synth_tree.read_text())
    data["pipeline"][key] = value
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(data))
    assert main(["eval", "--config", str(cfg), "--out", str(tmp_path / "e")]) == 2


@pytest.mark.parametrize("beta", ["nan", "inf", "-1"])
def test_beta_flag_out_of_range_is_usage_error(synth_tree, tmp_path, beta):
    assert main(["eval", "--config", str(synth_tree), "--out", str(tmp_path / "e"),
                 "--beta", beta]) == 2


@pytest.mark.parametrize("text, code", [("data: {lookahead_m: -1.0}\n", 2),
                                        ("data: {na_threshold: 0}\n", 2),
                                        ("data: {lookahead_m: .nan}\n", 2),
                                        ("data: {lookahead_m: 1.0}\n", 3)])
def test_data_out_of_range_is_usage_error_before_loading(tmp_path, text, code):
    # the root does not exist, so loading the data exits 3 (the control case)
    data = _merged(yaml.safe_load(text), {"data": {"root": str(tmp_path / "none")}})
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(data))
    assert main(["eval", "--config", str(cfg), "--out", str(tmp_path / "e")]) == code


def _merged(base: dict, update: dict) -> dict:
    out = dict(base)
    for key, value in update.items():
        nested = isinstance(value, dict) and isinstance(base.get(key), dict)
        out[key] = _merged(base[key], value) if nested else value
    return out


def _train_with(synth_tree, tmp_path, text: str) -> int:
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(_merged(yaml.safe_load(synth_tree.read_text()),
                                          yaml.safe_load(text))))
    return main(["train", "--config", str(cfg), "--out", str(tmp_path / "run"),
                 "--epochs", "1"])


# on a tree that trains, so the value alone makes train exit 2
@pytest.mark.parametrize("text", ["train: {batch_size: abc}\n", "train: {lr_init: fast}\n",
                                  "pipeline: {rgb: {strides: 3}}\n",
                                  "synth: {scenarios: 3}\n",
                                  "data: {max_step: 3.0}\n"])
def test_bad_config_value_is_usage_error(synth_tree, tmp_path, text):
    assert _train_with(synth_tree, tmp_path, text) == 2


def test_valid_config_value_trains(synth_tree, tmp_path):
    # the control for the test above: a valid value in the same place trains
    assert _train_with(synth_tree, tmp_path, "train: {batch_size: 4}\n") == 0


_BRANCH_VALUES = [
    ("point", "group_cap", 0), ("point", "centroids_min", 0), ("point", "mlp_dims", []),
    ("point", "mlp_dims", [8, 0]), ("point", "out_dim", 0),
    ("rgb", "attn_heads", 0), ("rgb", "attn_dim", 0), ("rgb", "out_dim", 0),
    ("rgb", "stage_channels", [4, 0]), ("rgb", "stage_channels", []),
]


@pytest.mark.parametrize("branch, key, value", _BRANCH_VALUES,
                         ids=[f"{b}.{k}={v}" for b, k, v in _BRANCH_VALUES])
def test_branch_out_of_range_is_usage_error(synth_tree, tmp_path, branch, key, value):
    data = yaml.safe_load(synth_tree.read_text())
    data["pipeline"][branch][key] = value
    if (branch, key, value) == ("rgb", "stage_channels", []):
        data["pipeline"]["rgb"]["strides"] = []
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(data))
    assert main(["eval", "--config", str(cfg), "--out", str(tmp_path / "e")]) == 2


@pytest.mark.parametrize("flag", sorted(_SWITCHED_OFF))
def test_train_ablation_leaves_switched_off_branch_untouched(synth_tree, tmp_path, flag):
    run = tmp_path / "run"
    assert main(["train", "--config", str(synth_tree), "--out", str(run),
                 "--epochs", "1", flag]) == 0
    ckpt = load_checkpoint(str(run / "checkpoint.bin"))
    run_cfg = config_from_dict(ckpt.config)
    # compared in the checkpoint's float64, which holds float32 values exactly
    init = {k: v.astype("<f8") for k, v in
            init_pipeline(run_cfg.pipeline, seed=run_cfg.seed).params.state_dict().items()}
    off = [k for k in init if k.startswith(_SWITCHED_OFF[flag])]
    assert off
    for k in off:
        assert ckpt.params[k].tobytes() == init[k].tobytes(), k
    assert any(ckpt.params[k].tobytes() != v.tobytes()
               for k, v in init.items() if k not in off)


# -- a checkpoint evaluates as the model it holds ------------------------

# pipeline values off their defaults, trained with a flag on top; the run
# configs eval reads below lack the pipeline section or repeat it
_TRAINED = "pipeline: {max_step: 3.0, beta: 0.5, tau_img: 50.0}\n"
_TRAINED_ABLATIONS = {"use_attention": True, "use_temporal": True, "beta": 0.5,
                      "modality": "rgb"}


@pytest.fixture(scope="module")
def rgb_run(synth_tree, tmp_path_factory):
    root = tmp_path_factory.mktemp("rgb_run")
    data = _merged(yaml.safe_load(synth_tree.read_text()), yaml.safe_load(_TRAINED))
    train_cfg = root / "train.yaml"
    train_cfg.write_text(yaml.safe_dump(data))
    del data["pipeline"]
    bare_cfg = root / "bare.yaml"
    bare_cfg.write_text(yaml.safe_dump(data))
    run = root / "run"
    assert main(["train", "--config", str(train_cfg), "--out", str(run),
                 "--epochs", "1", "--modality", "rgb"]) == 0
    return train_cfg, bare_cfg, run / "checkpoint.bin"


def test_train_epochs_flag_sets_total_epochs(rgb_run):
    train_cfg, _, ckpt = rgb_run
    config = load_checkpoint(str(ckpt)).config
    assert yaml.safe_load(train_cfg.read_text())["train"]["total_epochs"] == 2
    assert config["train"]["total_epochs"] == 1
    assert (config["pipeline"]["modality"], config["pipeline"]["beta"]) == ("rgb", 0.5)


def test_eval_checkpoint_needs_no_pipeline_section(rgb_run, tmp_path):
    train_cfg, bare_cfg, ckpt = rgb_run
    bare, repeated = tmp_path / "bare", tmp_path / "repeated"
    assert main(["eval", "--config", str(bare_cfg), "--checkpoint", str(ckpt),
                 "--out", str(bare)]) == 0
    assert main(["eval", "--config", str(train_cfg), "--checkpoint", str(ckpt),
                 "--out", str(repeated), "--modality", "rgb"]) == 0
    assert _report(bare) == _report(repeated)
    assert _report(bare)[0]["ablations"] == _TRAINED_ABLATIONS


def test_eval_flag_overrides_checkpoint(rgb_run, tmp_path):
    _, bare_cfg, ckpt = rgb_run
    out = tmp_path / "e"
    assert main(["eval", "--config", str(bare_cfg), "--checkpoint", str(ckpt),
                 "--out", str(out), "--beta", "1"]) == 0
    assert _report(out)[0]["ablations"] == {**_TRAINED_ABLATIONS, "beta": 1.0}


def test_invalid_checkpoint_snapshot_is_io_error(rgb_run, tmp_path):
    # the run config describes the model too, so only the snapshot is wrong
    train_cfg, _, ckpt_path = rgb_run
    ckpt = load_checkpoint(str(ckpt_path))
    ckpt.config["pipeline"]["beta"] = -1
    bad = tmp_path / "bad.bin"
    save_checkpoint(ckpt, str(bad))
    assert main(["eval", "--config", str(train_cfg), "--checkpoint", str(bad),
                 "--out", str(tmp_path / "e")]) == 3


def test_non_finite_checkpoint_snapshot_is_io_error(rgb_run, tmp_path):
    # json writes the NaN as a bare NaN token, which json reads back
    train_cfg, _, ckpt_path = rgb_run
    ckpt = load_checkpoint(str(ckpt_path))
    ckpt.config["pipeline"]["beta"] = float("nan")
    bad = tmp_path / "bad.bin"
    save_checkpoint(ckpt, str(bad))
    assert main(["eval", "--config", str(train_cfg), "--checkpoint", str(bad),
                 "--out", str(tmp_path / "e")]) == 3


def test_bench_checkpoint_records_its_ablations(rgb_run, tmp_path):
    # the run config's pipeline section says modality both; it is not used
    train_cfg, _, ckpt = rgb_run
    out = tmp_path / "bench"
    assert main(["bench", "--config", str(train_cfg), "--checkpoint", str(ckpt),
                 "--out", str(out), "--frames", "2"]) in (0, 1)
    rec = json.loads((out / "bench.jsonl").read_text())
    assert rec["ablations"] == _TRAINED_ABLATIONS


@pytest.mark.parametrize("text, flags", [("{}", ["--epochs", "-1"]),
                                         ("train: {total_epochs: -1}", [])])
def test_negative_epochs_is_usage_error(synth_tree, tmp_path, text, flags):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(_merged(yaml.safe_load(synth_tree.read_text()),
                                          yaml.safe_load(text))))
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(run), *flags]) == 2
    assert not (run / "checkpoint.bin").exists()


def test_dimension_error_is_usage_error(tmp_path):
    # three stride-8 stages shrink a 64x64 frame to 1x1, where training
    # batch norm has a single sample per channel
    data = tmp_path / "data"
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"out_dir: {data}\ndata: {{root: {data}}}\n"
                   "synth: {frames: 3, scenarios: [standard]}\n"
                   "pipeline: {rgb: {strides: [8, 8, 8]}}\n")
    assert main(["synth", "--config", str(cfg)]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run"),
                 "--epochs", "1"]) == 2
