"""Command-line entry point: synth | train | eval | gradcheck | bench."""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import sys
from pathlib import Path

import numpy as np
import yaml

from . import simulate as S
from .checkpoint import Checkpoint, load_model, save_checkpoint
from .config import RunConfig, config_to_dict, load_config
from .errors import (CheckpointError, ConfigError, ContractError, DimensionError, FormatError,
                     NavfuseError)
from .gradcheck import TOL
from .kitti import (AugmentPolicy, CalibrationSet, load_sequences, read_text, save_ppm,
                    serialize_calib, serialize_poses, serialize_velodyne_bin)
from .metrics import FPS_BASELINE, evaluate_run
from .params import make_rng
from .pipeline import ModelState, PipelineConfig, init_pipeline, rollout
from .train import train as run_train
from .verify import run_op_checks, run_pipeline_check

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_IO = 3


# -- shared plumbing ---------------------------------------------------


def _load_run_config(args) -> RunConfig:
    text = ""
    if args.config:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as e:
            raise OSError(f"cannot read config {args.config}: {e}") from None
        except UnicodeDecodeError as e:
            raise ConfigError(f"config {args.config} is not UTF-8 text "
                              f"({e.reason} at byte {e.start})") from None
    cfg = load_config(text)
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.train.seed = args.seed
    if getattr(args, "epochs", None) is not None:
        cfg.train.total_epochs = args.epochs
    if args.out is not None:
        cfg.out_dir = args.out
    return cfg.validate()


def _apply_ablations(pcfg: PipelineConfig, args) -> None:
    if args.no_attention:
        pcfg.use_attention = False
    if args.no_temporal:
        pcfg.use_temporal = False
    if args.beta is not None:
        pcfg.beta = args.beta
    if args.modality is not None:
        pcfg.modality = args.modality
    pcfg.validate()


def _ablation_flags(cfg: RunConfig) -> dict:
    return {"use_attention": cfg.pipeline.use_attention,
            "use_temporal": cfg.pipeline.use_temporal,
            "beta": cfg.pipeline.beta,
            "modality": cfg.pipeline.modality}


def _load_tagged_dataset(cfg: RunConfig) -> list[tuple[str, list]]:
    """Labeled sequences with scenario tags.

    A manifest.yaml written by `synth` supplies the tags; a plain KITTI tree
    is treated as all-standard. yaml.BaseLoader keeps an unquoted key such
    as `01:` the string "01", where YAML 1.1 would read the int 1.
    """
    root = Path(cfg.data.root)
    if not cfg.data.root:
        raise ConfigError("data.root is not set; point it at a dataset tree")
    seqs = load_sequences(root, lookahead_m=cfg.data.lookahead_m,
                          max_step=cfg.pipeline.max_step)
    manifest_path = root / "manifest.yaml"
    tags = {}
    if manifest_path.exists():
        try:
            manifest = yaml.load(read_text(manifest_path), Loader=yaml.BaseLoader)
        except yaml.YAMLError as e:
            raise FormatError(f"{manifest_path}: not valid YAML: {e}") from None
        tags = manifest.get("sequences", {}) if isinstance(manifest, dict) else None
        if not isinstance(tags, dict):
            raise FormatError(f"{manifest_path}: the manifest and its 'sequences' "
                              f"must be mappings")
    out = []
    for sid in sorted(seqs):
        tag = tags.get(f"{sid:02d}", "standard")
        if not isinstance(tag, str):
            raise FormatError(f"{manifest_path}: sequence {sid:02d} has tag {tag!r}, "
                              f"not a scenario name")
        out.append((tag, seqs[sid]))
    return out


def _build_model(cfg: RunConfig, args) -> ModelState:
    """The model a command runs; cfg.pipeline becomes its config.

    With --checkpoint it is the model the checkpoint holds, built from the
    checkpoint's own config snapshot, and the run config's pipeline values
    are not used. Without one it is a fresh model from cfg.pipeline and
    cfg.seed. The ablation flags override either.
    """
    checkpoint = getattr(args, "checkpoint", None)
    model = load_model(checkpoint) if checkpoint else init_pipeline(cfg.pipeline, seed=cfg.seed)
    _apply_ablations(model.cfg, args)
    cfg.pipeline = model.cfg
    return model


# -- synth -------------------------------------------------------------


def cmd_synth(args) -> int:
    cfg = _load_run_config(args)
    sc = cfg.synth
    out_root = Path(cfg.out_dir)
    cam, lidar = sc.camera(), sc.lidar()
    manifest = {"seed": cfg.seed, "frames": sc.frames, "sequences": {}}
    try:
        for i, name in enumerate(sc.scenarios):
            world, spec = S.preset_scenario(name, frames=sc.frames, speed=sc.speed,
                                            yaw_rate_deg=sc.yaw_rate_deg)
            rng = make_rng(cfg.seed * 10007 + i)
            seq_dir = out_root / "sequences" / f"{i:02d}"
            (seq_dir / "velodyne").mkdir(parents=True, exist_ok=True)
            (seq_dir / "image_2").mkdir(parents=True, exist_ok=True)
            (out_root / "poses").mkdir(parents=True, exist_ok=True)
            # every pose gets a frame, the last one too: it has no label, but
            # a reader derives the labels of the others from its pose
            for t in range(sc.frames):
                image = S.degrade_image(S.render_frame(world, t, cam), spec, rng)
                cloud = S.degrade_cloud(S.scan_frame(world, t, cam, lidar), spec, rng)
                (seq_dir / "velodyne" / f"{t:06d}.bin").write_bytes(
                    serialize_velodyne_bin(cloud))
                (seq_dir / "image_2" / f"{t:06d}.ppm").write_bytes(save_ppm(image))
            (seq_dir / "calib.txt").write_text(
                serialize_calib(CalibrationSet(P=cam.projection(), Tr=lidar.transform())))
            (out_root / "poses" / f"{i:02d}.txt").write_text(
                serialize_poses(world.trajectory[:sc.frames]))
            manifest["sequences"][f"{i:02d}"] = name
        (out_root / "manifest.yaml").write_text(yaml.safe_dump(manifest, sort_keys=True))
    except OSError as e:
        raise OSError(f"cannot write dataset under {out_root}: {e}") from None
    print(f"synth: wrote {len(sc.scenarios)} sequences x {sc.frames} frames "
          f"to {out_root}")
    return EXIT_OK


# -- train -------------------------------------------------------------


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    model = _build_model(cfg, args)
    tagged = _load_tagged_dataset(cfg)
    train_seqs = [frames for _, frames in tagged]
    val_seqs = [frames for tag, frames in tagged if tag == "standard"] or train_seqs
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "train_log.jsonl"
    augment = AugmentPolicy() if cfg.data.augment else None

    with open(log_path, "w") as log_fh:
        def log_fn(log):
            log_fh.write(json.dumps(vars(log), sort_keys=True) + "\n")
            log_fh.flush()
            print(f"epoch {log.epoch:4d}  lr {log.lr:.6f}  "
                  f"train {log.train_loss:.6f}  val {log.val_loss:.6f}  "
                  f"{log.wall_seconds:.2f}s")

        result = run_train(model, train_seqs, val_seqs, cfg.train,
                           augment=augment, log_fn=log_fn)
        if result.stopped_early:
            stop_line = {"record": "early_stop", "reason": result.stop_reason,
                         "epoch": len(result.logs) - 1}
            log_fh.write(json.dumps(stop_line, sort_keys=True) + "\n")
            print(f"early stop: {result.stop_reason}")

    ckpt = Checkpoint(config=config_to_dict(cfg), params=result.best_params,
                      epoch=result.best_epoch, best_val_loss=result.best_val_loss)
    ckpt_path = out_dir / "checkpoint.bin"
    save_checkpoint(ckpt, str(ckpt_path))
    print(f"train: best val loss {result.best_val_loss:.6f} at epoch "
          f"{result.best_epoch}; checkpoint -> {ckpt_path}")
    return EXIT_OK


# -- eval --------------------------------------------------------------


def cmd_eval(args) -> int:
    cfg = _load_run_config(args)
    model = _build_model(cfg, args)
    tagged = _load_tagged_dataset(cfg)
    metrics = evaluate_run(tagged, model, na_threshold=cfg.data.na_threshold)

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "report.jsonl"
    with open(report_path, "w") as fh:
        fh.write(json.dumps({"record": "aggregate", "na": metrics.na, "lp": metrics.lp,
                             "fps": metrics.fps, "ri": metrics.ri,
                             "ablations": _ablation_flags(cfg)}, sort_keys=True) + "\n")
        for tag, row in metrics.scenarios.items():
            fh.write(json.dumps({"record": "scenario", "scenario": tag, **row},
                                sort_keys=True) + "\n")

    print(f"NA {metrics.na:.4f}  LP {metrics.lp:.4f} m  "
          f"FPS {metrics.fps:.1f}  RI {metrics.ri if metrics.ri is None else round(metrics.ri, 4)}")
    print(f"{'scenario':<16} {'NA':>7} {'LP':>8} {'RI':>7} {'w_rgb':>7} {'w_lidar':>8}")
    for tag, row in sorted(metrics.scenarios.items()):
        ri = row["ri"]
        print(f"{tag:<16} {row['na']:7.4f} {row['lp']:8.4f} "
              f"{'-' if ri is None else format(ri, '7.4f'):>7} "
              f"{row['w_rgb']:7.4f} {row['w_lidar']:8.4f}")
    print(f"report -> {report_path}")
    return EXIT_OK


# -- gradcheck ---------------------------------------------------------


def cmd_gradcheck(args) -> int:
    cfg = _load_run_config(args)
    ops = run_op_checks(seeds=(cfg.seed, cfg.seed + 1, cfg.seed + 2))
    checks = [("op", name, rep) for name, rep in ops.items()]
    checks.append(("pipeline", "full_pipeline", run_pipeline_check(seed=cfg.seed)))
    failed = [name for _, name, rep in checks if not rep.passed]

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "gradcheck.jsonl", "w") as fh:
        for record, name, rep in checks:
            fh.write(json.dumps({"record": record, "name": name, "max_rel_err": rep.max_rel_err,
                                 "passed": rep.passed}, sort_keys=True) + "\n")
    for _, name, rep in checks:
        print(f"{'ok  ' if rep.passed else 'FAIL'} {name:<16} max rel err {rep.max_rel_err:.3e}")
    if failed:
        print(f"gradcheck FAILED for: {', '.join(failed)}")
        return EXIT_CHECK_FAILURE
    print(f"gradcheck: all operations and the full pipeline pass at tol {TOL}")
    return EXIT_OK


# -- bench -------------------------------------------------------------


def cmd_bench(args) -> int:
    if args.frames < 1:
        raise ConfigError(f"--frames must be >= 1, got {args.frames}")
    cfg = _load_run_config(args)
    model = _build_model(cfg, args)
    sc = cfg.synth
    world, _ = S.preset_scenario("standard", frames=max(sc.frames, 12),
                                 speed=sc.speed, yaw_rate_deg=sc.yaw_rate_deg)
    labeled = S.synth_sequence(world, max(sc.frames, 12), sc.camera(), sc.lidar())

    # one stream whose state carries over from the warm-up into the measured
    # frames, so state that grows from frame to frame shows in the timing
    warmup = 10
    measure = args.frames
    timings: dict[str, float] = {}
    stream = (labeled[i % len(labeled)].frame
              for i in itertools.chain(range(warmup), range(measure)))
    steps = rollout(model, stream, timings)
    for _ in itertools.islice(steps, warmup):
        pass
    timings.clear()
    latencies = [seconds for _, seconds in steps]
    total = sum(latencies)
    fps = measure / total
    passed = fps >= FPS_BASELINE
    p50, p95, p99 = 1e3 * np.percentile(latencies, [50, 95, 99])
    # ru_maxrss is in KiB on Linux
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    record = {"record": "bench", "frames": measure, "wall_seconds": total,
              "fps": fps, "fps_baseline": FPS_BASELINE, "passed": passed,
              "frame_latency_p50_ms": float(p50), "frame_latency_p95_ms": float(p95),
              "frame_latency_p99_ms": float(p99), "peak_rss_mb": peak_rss_mb,
              "stage_seconds": {k: timings[k] for k in sorted(timings)},
              "ablations": _ablation_flags(cfg)}
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "bench.jsonl", "w") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"bench: {measure} frames in {total:.2f}s -> {fps:.1f} FPS "
          f"({'pass' if passed else 'FAIL'} vs baseline {FPS_BASELINE:.0f}); "
          f"latency p50 {p50:.1f} ms, p95 {p95:.1f} ms, p99 {p99:.1f} ms; "
          f"peak RSS {peak_rss_mb:.0f} MB")
    for k in sorted(timings):
        print(f"  {k:<10} {timings[k]:8.3f}s ({100 * timings[k] / total:5.1f}%)")
    return EXIT_OK if passed else EXIT_CHECK_FAILURE


# -- entry point -------------------------------------------------------


def _add_common(sub, ablations: bool = False, checkpoint: bool = False):
    sub.add_argument("--config", help="path to a YAML run configuration")
    sub.add_argument("--seed", type=int, default=None, help="override config seed")
    sub.add_argument("--out", default=None, help="override output directory")
    if checkpoint:
        sub.add_argument("--checkpoint", default=None, help="checkpoint file")
    if ablations:
        sub.add_argument("--no-attention", action="store_true",
                         help="disable self-attention blocks")
        sub.add_argument("--no-temporal", action="store_true",
                         help="disable the recurrent/temporal stage")
        sub.add_argument("--beta", type=float, default=None,
                         help="reliability prior strength (0 disables it)")
        sub.add_argument("--modality", choices=["rgb", "lidar", "both"],
                         default=None, help="restrict input modalities")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="navfuse",
        description="Camera+LiDAR fusion navigation pipeline")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("synth", help="generate synthetic KITTI-layout scenarios")
    _add_common(p)
    p.set_defaults(fn=cmd_synth)

    p = subs.add_parser("train", help="train the pipeline")
    _add_common(p, ablations=True)
    p.add_argument("--epochs", type=int, default=None, help="set train.total_epochs")
    p.set_defaults(fn=cmd_train)

    p = subs.add_parser("eval", help="evaluate a checkpoint")
    _add_common(p, ablations=True, checkpoint=True)
    p.set_defaults(fn=cmd_eval)

    p = subs.add_parser("gradcheck", help="finite-difference gradient verification")
    _add_common(p)
    p.set_defaults(fn=cmd_gradcheck)

    p = subs.add_parser("bench", help="throughput benchmark")
    _add_common(p, ablations=True, checkpoint=True)
    p.add_argument("--frames", type=int, default=200, help="frames to measure")
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (ConfigError, ContractError, DimensionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, FormatError, CheckpointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except NavfuseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
