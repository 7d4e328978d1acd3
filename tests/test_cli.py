"""End-to-end command-line workflows."""

import hashlib
import json
from pathlib import Path

import pytest
import yaml

from navfuse.cli import main

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

    def strip_fps(path):
        recs = [json.loads(l) for l in (path / "report.jsonl").read_text().splitlines()]
        for r in recs:
            r.pop("fps", None)
        return recs

    assert strip_fps(out_a) == strip_fps(out_b)


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


def test_bench_report(tmp_path):
    cfg, data = _write_cfg(tmp_path)
    out = tmp_path / "bench"
    code = main(["bench", "--config", str(cfg), "--out", str(out), "--frames", "20"])
    rec = json.loads((out / "bench.jsonl").read_text())
    assert rec["frames"] == 20
    assert set(rec["stage_seconds"]) == {"backbones", "fusion", "temporal"}
    # stage accounting covers the loop within 5%
    assert sum(rec["stage_seconds"].values()) <= rec["wall_seconds"] * 1.05
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


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 2


def test_corrupt_checkpoint_is_io_error(tmp_path):
    cfg, data = _write_cfg(tmp_path)
    main(["synth", "--config", str(cfg)])
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"garbage")
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(bad)]) == 3
