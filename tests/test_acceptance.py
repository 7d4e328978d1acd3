"""Acceptance gate: nine release criteria, one verdict line each.

Each test prints exactly one ``ACCEPTANCE n <name>: PASS|FAIL`` line before
asserting, so a plain ``pytest -s tests/test_acceptance.py`` reads as a
checklist.  Tolerances are stated inline next to each assertion.
"""

import json
import struct
import time
from dataclasses import asdict, replace

import numpy as np

from navfuse.checkpoint import Checkpoint, load_model, save_checkpoint
from navfuse.cli import main
from navfuse.config import RunConfig, config_to_dict
from navfuse.fusion import (ReliabilityScores, fusion_weights, init_fusion_params,
                            reliability_cloud, reliability_image, semantic_map)
from navfuse.geometry import lidar_to_camera, project_points
from navfuse.kitti import (CalibrationSet, load_ppm, load_sequences, parse_calib,
                           parse_poses, parse_velodyne_bin, save_ppm,
                           serialize_poses, serialize_velodyne_bin)
from navfuse.metrics import (evaluate_run, metric_fps, metric_lp, metric_na, metric_ri)
from navfuse.optim import TrainConfig
from navfuse.params import ParamRegistry, make_rng
from navfuse.pipeline import init_pipeline
from navfuse.simulate import (SCENARIOS, CameraConfig, LidarConfig, World,
                              _default_boxes, degrade_cloud,
                              degrade_image, make_trajectory, preset_scenario,
                              render_frame, scan_frame, synth_sequence)
from navfuse.tensor import Tensor
from navfuse.train import train
from navfuse.verify import (run_op_checks, run_pipeline_check, small_pipeline_config,
                            small_synth_frames)


def _verdict(num: int, name: str, ok: bool) -> None:
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


# -- 1: gradient integrity ---------------------------------------------


def test_criterion_1_gradient_integrity():
    t0 = time.perf_counter()
    reports = list(run_op_checks(seeds=(0, 1, 2)).values())
    reports += [run_pipeline_check(seed=s) for s in (0, 1, 2)]
    elapsed = time.perf_counter() - t0
    ok = all(r.passed and r.max_rel_err <= 1e-4 for r in reports) and elapsed < 120.0
    _verdict(1, "gradient integrity (ops + 4-frame pipeline, 3 seeds, <2 min)", ok)


# -- 2: simplex and monotone gating ------------------------------------


def _in_frustum(cloud, calib, cam):
    """The in-frustum count that pipeline_step passes to reliability_cloud."""
    return len(project_points(lidar_to_camera(cloud, calib).xyz, calib.P,
                              cam.width, cam.height)[3])


def test_criterion_2_simplex_and_monotone_gating():
    ok = True
    # 1000 random configurations: weights on the simplex to 1e-12 and
    # each weight strictly increasing in its own reliability at beta=1
    rng = make_rng(0)
    for _ in range(1000):
        dim = int(rng.integers(2, 12))
        params = ParamRegistry()
        init_fusion_params(params, rng, dim, dim)
        # random (non-zero) gate content vectors: monotonicity must not
        # rely on the zero-init shortcut
        for which in ("rgb", "lidar"):
            params.get(f"fuse.gate_u_{which}").data[...] = rng.normal(size=dim)
        f_rgb = semantic_map(Tensor(rng.normal(size=dim)), params, "rgb")
        f_lidar = semantic_map(Tensor(rng.normal(size=dim)), params, "lidar")
        r = rng.uniform(0.01, 0.98, size=2)
        w_rgb, w_lidar = fusion_weights(f_rgb, f_lidar, ReliabilityScores(*r), params,
                                        beta=1.0).data
        ok &= w_rgb > 0 and w_lidar > 0
        ok &= abs(w_rgb + w_lidar - 1.0) <= 1e-12
        bump = rng.uniform(0.005, 1.0 - r[0])
        w2 = fusion_weights(f_rgb, f_lidar,
                            ReliabilityScores(r[0] + bump, r[1]), params, beta=1.0)
        ok &= w2.data[0] > w_rgb
        w3 = fusion_weights(f_rgb, f_lidar,
                            ReliabilityScores(r[0], min(1.0, r[1] + bump)),
                            params, beta=1.0)
        ok &= w3.data[1] > w_lidar

    # end-to-end chain on 100 seeded synthetic frames with fixed parameters:
    # each degradation preset lowers its modality's reliability AND weight
    params = ParamRegistry()
    init_fusion_params(params, make_rng(1), 8, 8)
    world, _ = preset_scenario("standard", frames=100)
    cam, lidar = CameraConfig(), LidarConfig()
    calib = CalibrationSet(P=cam.projection(), Tr=lidar.transform())
    _, dark_spec = preset_scenario("low_light")
    _, thin_spec = preset_scenario("lidar_degraded")
    tau = 1e4
    rng = make_rng(2)
    for t in range(100):
        img = render_frame(world, t, cam)
        cloud = scan_frame(world, t, cam, lidar)
        f_rgb = semantic_map(Tensor(rng.normal(size=8)), params, "rgb")
        f_lidar = semantic_map(Tensor(rng.normal(size=8)), params, "lidar")
        r_img = reliability_image(img, tau)
        r_cloud = reliability_cloud(_in_frustum(cloud, calib, cam))
        base = fusion_weights(f_rgb, f_lidar, ReliabilityScores(r_img, r_cloud), params)
        r_dark = reliability_image(degrade_image(img, dark_spec, rng), tau)
        w_dark = fusion_weights(f_rgb, f_lidar, ReliabilityScores(r_dark, r_cloud), params)
        ok &= r_dark < r_img and w_dark.data[0] < base.data[0]
        r_thin = reliability_cloud(_in_frustum(degrade_cloud(cloud, thin_spec, rng),
                                               calib, cam))
        w_thin = fusion_weights(f_rgb, f_lidar, ReliabilityScores(r_img, r_thin), params)
        ok &= r_thin < r_cloud and w_thin.data[1] < base.data[1]
    _verdict(2, "simplex + monotone gating (1000 configs, 100-frame chain)", ok)


# -- 3: geometry round-trip --------------------------------------------


def test_criterion_3_geometry_round_trip():
    ok = True
    cam, lidar = CameraConfig(), LidarConfig()
    calib = CalibrationSet(P=cam.projection(), Tr=lidar.transform())
    P = calib.P
    fx, fy = P[0, 0], P[1, 1]
    cx, cy = P[0, 2], P[1, 2]
    checked = 0
    for seed in range(20):
        world = World(boxes=_default_boxes(moving=seed % 2 == 1),
                      trajectory=make_trajectory(seed + 2, speed=0.5,
                                                 yaw_rate_deg=float(seed % 5)))
        cloud = scan_frame(world, seed, cam, lidar)
        cam_cloud = lidar_to_camera(cloud, calib)
        u, v, d, idx = project_points(cam_cloud.xyz, P, cam.width, cam.height)
        ok &= len(idx) > 0
        # invert the pinhole model at the projected pixel and re-project
        x = (u - cx) * d / fx - P[0, 3] / fx
        y = (v - cy) * d / fy - P[1, 3] / fy
        back = np.column_stack([x, y, d])
        u2, v2, d2, idx2 = project_points(back, P, cam.width, cam.height)
        ok &= len(idx2) == len(idx)
        ok &= np.abs(u2 - u).max() <= 0.5 and np.abs(v2 - v).max() <= 0.5
        ok &= np.abs(d2 - d).max() <= 1e-9
        ok &= np.abs(back - cam_cloud.xyz[idx]).max() <= 1e-9
        checked += len(idx)
    ok &= checked > 0
    _verdict(3, "geometry round-trip (<=0.5 px, <=1e-9 m depth, 20 frames)", ok)


# -- 4: format conformance ---------------------------------------------


def test_criterion_4_format_conformance(tmp_path):
    ok = True
    # velodyne fixture: two records, exact float32 values
    raw = struct.pack("<8f", 1.0, 2.0, 3.0, 0.5, -1.0, 0.25, 4.0, 1.0)
    cloud = parse_velodyne_bin(raw)
    ok &= np.array_equal(cloud.points,
                         [[1.0, 2.0, 3.0, 0.5], [-1.0, 0.25, 4.0, 1.0]])
    ok &= serialize_velodyne_bin(cloud) == raw
    # calib fixture
    calib = parse_calib("P2: 100 0 32 0 0 100 32 0 0 0 1 0\n"
                        "Tr: 1 0 0 0 0 1 0 0 0 0 1 0.1\n")
    ok &= calib.P[0, 0] == 100.0 and calib.Tr[2, 3] == 0.1
    # poses fixture + bit-exact text round-trip
    pose_text = "1.0 0.0 0.0 0.125 0.0 1.0 0.0 -2.5 0.0 0.0 1.0 7.75\n"
    poses = parse_poses(pose_text)
    ok &= np.array_equal(poses[0].T[:3, 3], [0.125, -2.5, 7.75])
    ok &= parse_poses(serialize_poses(poses))[0].T.tobytes() == poses[0].T.tobytes()
    # PPM fixture + bit-exact byte round-trip
    ppm = b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 0, 255])
    img = load_ppm(ppm)
    ok &= img.pixels.shape == (1, 2, 3)
    ok &= np.array_equal(img.pixels[0, 0], [255, 0, 0])
    ok &= load_ppm(save_ppm(img)).pixels.tobytes() == img.pixels.tobytes()

    # synth output is ingestible and labels re-integrate onto the written
    # pose trajectory within 1e-9
    cfg = tmp_path / "cfg.yaml"
    root = tmp_path / "data"
    cfg.write_text(f"out_dir: {root}\ndata:\n  root: {root}\n"
                   "synth:\n  frames: 12\n  width: 32\n  height: 32\n"
                   "  focal: 32.0\n  n_azimuth: 32\n  n_elevation: 8\n")
    ok &= main(["synth", "--config", str(cfg)]) == 0
    # a lookahead well inside the max_step clamp keeps labels invertible,
    # so re-integration recovers the written pose trajectory exactly
    seqs = load_sequences(root, lookahead_m=2.0)
    ok &= set(seqs) == {0, 1, 2, 3}
    for sid, frames in seqs.items():
        ok &= len(frames) == 11  # final pose labels the preceding frame
        poses = parse_poses((root / "poses" / f"{sid:02d}.txt").read_text())
        positions = np.stack([p.T[:3, 3] for p in poses])
        for t, lf in enumerate(frames):
            r, p = poses[t].T[:3, :3], positions[t]
            fwd, lat = lf.waypoint
            target = p + r @ np.array([lat, 0.0, fwd])
            ok &= float(np.linalg.norm(positions - target, axis=1).min()) <= 1e-9
    _verdict(4, "format conformance + synth ingest (re-integration <=1e-9)", ok)


# -- 5: learning sanity (overfit oracle) -------------------------------


def _overfit_frames():
    world = World(boxes=_default_boxes(moving=False),
                  trajectory=make_trajectory(33, speed=0.5, yaw_rate_deg=1.0))
    cam = CameraConfig(width=16, height=16, focal=16.0)
    lidar = LidarConfig(n_azimuth=16, n_elevation=8)
    return synth_sequence(world, 33, cam, lidar, lookahead_m=2.0)


def _overfit_run(frames):
    model = init_pipeline(small_pipeline_config(), seed=0)
    trace = []

    def hook(epoch, m, result):
        na = evaluate_run([("standard", frames)], m).na
        trace.append((epoch, na))
        return na >= 0.9

    result = train(model, [frames], [frames], TrainConfig(seed=0),
                   max_epochs=200, stop_hook=hook)
    return trace, result


def test_criterion_5_overfit_oracle():
    frames = _overfit_frames()
    assert len(frames) == 32
    t0 = time.perf_counter()
    trace_a, result_a = _overfit_run(frames)
    trace_b, result_b = _overfit_run(frames)
    elapsed = time.perf_counter() - t0
    ok = (trace_a[-1][1] >= 0.9 and len(result_a.logs) <= 200
          and elapsed < 300.0
          and trace_a == trace_b  # deterministic per seed
          and [l.val_loss for l in result_a.logs] == [l.val_loss for l in result_b.logs])
    _verdict(5, "overfit oracle (NA >= 0.9 on 32 frames, <=200 epochs, <5 min)", ok)


# -- 6: throughput -----------------------------------------------------


def test_criterion_6_throughput(tmp_path):
    out = tmp_path / "bench"
    code = main(["bench", "--out", str(out), "--frames", "200"])
    rec = json.loads((out / "bench.jsonl").read_text())
    ok = code == 0 and rec["passed"] and rec["frames"] >= 200 and rec["fps"] >= 20.0
    _verdict(6, f"throughput ({rec['fps']:.1f} FPS >= 20, {rec['frames']} frames)", ok)


# -- 7: metric correctness ---------------------------------------------


def _err(pred, label):
    """One frame's error as evaluate_run computes it."""
    return float(np.linalg.norm(np.asarray(pred, dtype=float) - np.asarray(label, dtype=float)))


def test_criterion_7_metric_unit_examples():
    zero3 = [0.0, 0.0, 0.0]
    wp_err = np.array([_err([1.0, 0.0], [1.0, 0.0]), _err([0.0, 0.4], [0.0, 0.0]),
                       _err([2.0, 2.0], [0.0, 0.0])])
    ok = metric_na(wp_err, threshold=0.5) == 2.0 / 3.0
    # strict inequality at the 0.5 m edge: an exact 0.5 m miss does not count
    ok &= metric_na(np.array([_err([0.5, 0.0], [0.0, 0.0])]), 0.5) == 0.0
    ok &= metric_na(np.array([_err([0.49999, 0.0], [0.0, 0.0])]), 0.5) == 1.0
    ego_err = np.array([_err([3.0, 0.0, 0.0], zero3), _err([0.0, 0.0, 1.0], zero3)])
    ok &= metric_lp(ego_err) == 2.0
    ok &= metric_fps(120, 6.0) == 20.0
    ok &= metric_ri(0.45, 0.9) == 0.5
    ok &= metric_ri(0.72, 0.9) == 0.72 / 0.9
    ok &= metric_ri(0.9, 0.9) == 1.0
    _verdict(7, "metric unit examples (incl. strict 0.5 m edge)", ok)


# -- 8: determinism ----------------------------------------------------


def _strip_fps(metrics_dict):
    d = dict(metrics_dict)
    d.pop("fps")
    return d


def test_criterion_8_determinism(tmp_path):
    frames = small_synth_frames(9)
    cfg = small_pipeline_config()

    def run():
        model = init_pipeline(cfg, seed=0)
        result = train(model, [frames], [frames],
                       TrainConfig(seed=0, total_epochs=2), max_epochs=2)
        model.params.load_state_dict(result.best_params)
        for k, v in result.best_buffers.items():
            model.buffers[k][...] = v
        metrics = evaluate_run([("standard", frames)], model)
        return model, result, metrics

    model_a, result_a, metrics_a = run()
    _, result_b, metrics_b = run()
    ok = [l.train_loss for l in result_a.logs] == [l.train_loss for l in result_b.logs]
    ok &= [l.val_loss for l in result_a.logs] == [l.val_loss for l in result_b.logs]
    ok &= all(np.array_equal(result_a.best_params[k], result_b.best_params[k])
              for k in result_a.best_params)
    ok &= _strip_fps(asdict(metrics_a)) == _strip_fps(asdict(metrics_b))

    # checkpoint round-trip preserves eval metrics bitwise
    path = str(tmp_path / "ck.bin")
    save_checkpoint(Checkpoint(config=config_to_dict(RunConfig(pipeline=cfg)),
                               params=model_a.params.state_dict(),
                               buffers={k: v.copy() for k, v in model_a.buffers.items()}),
                    path)
    metrics_c = evaluate_run([("standard", frames)], load_model(path))
    ok &= _strip_fps(asdict(metrics_c)) == _strip_fps(asdict(metrics_a))
    _verdict(8, "determinism (train+eval bitwise, checkpoint round-trip)", ok)


# -- 9: scenario report ------------------------------------------------


def test_criterion_9_scenario_report():
    cam, lidar = CameraConfig(), LidarConfig()
    rng = make_rng(0)
    dataset = []
    for name in SCENARIOS:
        world, spec = preset_scenario(name, frames=10)
        seq = [replace(lf, frame=replace(lf.frame,
                                         image=degrade_image(lf.frame.image, spec, rng),
                                         cloud=degrade_cloud(lf.frame.cloud, spec, rng)))
               for lf in synth_sequence(world, 10, cam, lidar)]
        dataset.append((name, seq))
    model = init_pipeline(small_pipeline_config(), seed=0)
    metrics = evaluate_run(dataset, model)
    rows = metrics.scenarios
    ok = set(rows) == set(SCENARIOS)
    ok &= all(0.0 <= row["na"] <= 1.0 and row["lp"] >= 0.0 for row in rows.values())
    ok &= all(row["w_rgb"] > 0 and row["w_lidar"] > 0 for row in rows.values())
    # RI per special scenario whenever standard NA is non-zero
    if rows["standard"]["na"] > 0:
        ok &= {tag for tag, row in rows.items() if row["ri"] is not None} == (
            set(SCENARIOS) - {"standard"})
    ok &= rows["lidar_degraded"]["w_lidar"] < rows["standard"]["w_lidar"]
    _verdict(9, "scenario report (degraded-LiDAR weight below standard)", ok)
