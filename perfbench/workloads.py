"""The navfuse benchmark's workloads and the phases every run goes through.

The benchmark drives navfuse from outside, through its public functions:
``cli.main(["synth", ...])`` writes the KITTI-layout tree, ``kitti.load_sequences``
reads it back, ``init_pipeline``/``initial_state``/``pipeline_step`` run the
closed loop, and ``train.train`` trains. Module attributes are looked up at
call time (``pipeline.pipeline_step``, not an imported name) so that the
tracer, and a test that injects a fault, see every call.

Every run reports every end-to-end metric, so every workload both evaluates
and trains; the workload decides which of the two is its primary activity:

1. set-up, repeated ``SETUP_REPEATS`` times: synth tree, load, model init;
2. warm-up: the first sequence once (the reference for the bitwise re-run
   check), the train probe once (the source of ``train_loss``) and the train
   unit once (the reference for later train units);
3. the timed loop: for ``seconds`` it alternates eval units (one sequence,
   closed loop) and train units, keeping two thirds of the time for the
   primary activity. A train unit is the probe for the ``eval_*`` workloads
   and one epoch of train() over all sequences for ``train_bptt``.

Interleaving spreads both activities over the whole loop, so that the slow
drift of a shared machine's speed reaches both alike. The warm-ups fault in
the allocator's memory: at seed the first pass over fresh memory runs up to
twice as slow, and no timed frame or step pays for it.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from navfuse import cli, kitti, pipeline
from navfuse import train as train_mod
from navfuse.fusion import REL_FLOOR
from navfuse.kitti import AugmentPolicy
from navfuse.optim import TrainConfig
from navfuse.params import make_rng
from navfuse.pipeline import PipelineConfig, initial_state

import spans as spans_mod


@dataclass(frozen=True)
class Workload:
    name: str
    primary: str   # "eval" or "train"
    synth: dict    # the synth section of the run config handed to `navfuse synth`
    why: str


# Synth writes `frames` poses per sequence; the last has no label, so 51
# written frames give 50 closed-loop steps.
DESK = {"frames": 51}
WIDE = {"frames": 17, "width": 320, "height": 96, "focal": 160.0,
        "n_azimuth": 256, "n_elevation": 32}

WORKLOADS = {w.name: w for w in (
    Workload("eval_desk", "eval", DESK,
             "default 64x64 camera and 64x16 LiDAR, 4x50 frames; the point branch "
             "dominates the step and the eval tape leak shows in peak RSS"),
    Workload("eval_wide", "eval", WIDE,
             "KITTI-aspect 320x96 camera and dense 256x32 LiDAR, 4x16 frames; the "
             "RGB branch is a large share and the cloud exceeds the point budget"),
    Workload("train_bptt", "train", DESK,
             "train() with augmentation over the 4 desk sequences, default config; "
             "training at full batch size is its primary activity"),
)}


SETUP_REPEATS = 3
MIN_FRAMES = 200   # p95 then leaves at least 10 samples above it

# init_pipeline zero-initialises these, which makes every waypoint exactly 0
# and the attention pooling uniform; the benchmark fills them from the seed
# (normal, with this standard deviation). The head stays small, so that
# predictions start near the origin as init_pipeline intends and the first
# training loss is set by the labels, not by the seed.
ZERO_INIT = {"head.fc2.w": 0.001, "head.fc2.b": 0.001,
             "fuse.gate_u_rgb": 0.1, "fuse.gate_u_lidar": 0.1,
             "point.group_score.w": 0.1, "point.global_score.w": 0.1}
FILL_STREAM = 7919

END_TO_END = {
    "fps": "1/s",
    "frame_latency_p50_ms": "ms",
    "frame_latency_p95_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "train_frames_per_s": "1/s",
    "train_step_p50_ms": "ms",
    "train_loss": "loss",
}


# -- output checks ----------------------------------------------------


def output_record(res) -> np.ndarray:
    """The values a frame's output check and bitwise comparison look at."""
    w, r = res.fused.weights, res.fused.reliabilities
    return np.concatenate([res.nav.waypoint, res.nav.ego_delta,
                           [w.w_rgb, w.w_lidar, r.r_rgb, r.r_lidar]]).astype(np.float64)


def output_ok(rec: np.ndarray, max_step: float) -> bool:
    """Waypoint and ego delta finite and within +-max_step, fusion weights
    summing to 1 within 1e-12, both reliabilities in [REL_FLOOR, 1]."""
    motion, w_rgb, w_lidar, rel = rec[:5], rec[5], rec[6], rec[7:]
    return bool(np.all(np.isfinite(motion)) and np.all(np.abs(motion) <= max_step)
                and abs(w_rgb + w_lidar - 1.0) <= 1e-12
                and np.all((rel >= REL_FLOOR) & (rel <= 1.0)))


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, n: int, why: str):
        self.failed += n
        self.notes.append(why)


def _report_exception(tally: Tally, what: str):
    traceback.print_exc(file=sys.stderr)
    tally.notes.append(f"{what} raised {sys.exc_info()[1]!r}")


# -- set-up -----------------------------------------------------------


def build_model(seed: int):
    model = pipeline.init_pipeline(PipelineConfig(), seed=seed)
    state = model.params.state_dict()
    rng = make_rng(seed + FILL_STREAM)
    for path, scale in ZERO_INIT.items():
        state[path] = rng.normal(scale=scale, size=state[path].shape)
    model.params.load_state_dict(state)
    return model


def setup(workload: Workload, seed: int, work_dir: Path):
    """Write the synth tree, read it back and build the model; returns the
    wall seconds, the sequences (standard scenario first) and the model."""
    t0 = time.perf_counter()
    cfg_path = work_dir / "run.yaml"
    cfg_path.write_text(yaml.safe_dump({"seed": seed, "out_dir": str(work_dir / "data"),
                                        "synth": dict(workload.synth)}))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["synth", "--config", str(cfg_path)])
    if code != 0:
        raise RuntimeError(f"navfuse synth exited with {code}")
    by_id = kitti.load_sequences(work_dir / "data")
    seqs = [by_id[k] for k in sorted(by_id)]
    model = build_model(seed)
    return time.perf_counter() - t0, seqs, model


# -- closed-loop eval --------------------------------------------------


@dataclass
class EvalLog:
    latencies: list[float] = field(default_factory=list)
    count_carried: bool = False
    carried_nodes: list[int] = field(default_factory=list)


def run_sequence(seq, model, tally: Tally, log: EvalLog) -> list[bytes]:
    """One client, one sequence, fresh temporal state: each frame is sent
    only after the previous decision returned. Returns per-frame output bytes."""
    state = initial_state(model.cfg)
    out = []
    for lf in seq:
        rng = make_rng(0)
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            res = pipeline.pipeline_step(lf.frame, state, model, mode="eval", rng=rng)
        except Exception:
            _report_exception(tally, f"pipeline_step on frame {lf.frame.index}")
            tally.failed += 1
            break
        log.latencies.append(time.perf_counter() - t0)
        state = res.state
        rec = output_record(res)
        if not output_ok(rec, model.cfg.max_step):
            tally.fail(1, f"frame {lf.frame.index} failed the output check: {rec.tolist()}")
        out.append(rec.tobytes())
    if log.count_carried:
        log.carried_nodes.append(carried_graph_nodes(state))
    return out


def compare_rerun(first: list[bytes], rerun: list[bytes], tally: Tally):
    """Count the frames of a re-run that differ bitwise from the first run."""
    differ = sum(a != b for a, b in zip(first, rerun)) + abs(len(first) - len(rerun))
    if differ:
        tally.fail(differ, f"re-run of the first sequence differs on {differ} frames")


def eval_metrics(log: EvalLog) -> dict[str, float]:
    lat = log.latencies
    return {"fps": len(lat) / sum(lat),
            "frame_latency_p50_ms": 1e3 * statistics.median(lat),
            "frame_latency_p95_ms": 1e3 * float(np.percentile(lat, 95))}


# -- training ----------------------------------------------------------


class StepClock:
    """Times optimizer steps from outside train(): a step ends when adam_step
    (as train.py resolves it) returns, and starts where the previous step or
    the previous epoch's validation ended, or at train start. So a step runs
    from its batch's first forward to the end of Adam."""

    def __init__(self):
        self.durations: list[float] = []

    def __enter__(self):
        self._adam, self._validation = train_mod.adam_step, train_mod.validation_loss
        self._last = time.perf_counter()

        def timed_adam(*args, **kwargs):
            try:
                return self._adam(*args, **kwargs)
            finally:
                now = time.perf_counter()
                self.durations.append(now - self._last)
                self._last = now

        def validation(*args, **kwargs):
            try:
                return self._validation(*args, **kwargs)
            finally:
                self._last = time.perf_counter()

        train_mod.adam_step, train_mod.validation_loss = timed_adam, validation
        return self

    def __exit__(self, *exc):
        train_mod.adam_step, train_mod.validation_loss = self._adam, self._validation


@dataclass
class TrainRun:
    wall: float
    frames: int
    steps: list[float]
    last_epoch_loss: float
    digest: str


def train_unit(model, train_seqs, val_seqs, tcfg: TrainConfig, epochs: int,
               reference: TrainRun | None, tally: Tally) -> TrainRun | None:
    """`epochs` epochs of train() as `navfuse train` runs it: augmentation
    on, validation after each epoch. Parameters and buffers are restored
    afterwards, so every unit starts from the same model. With a reference,
    the losses, gradient norms and trained parameters must reproduce it
    bitwise."""
    params0 = model.params.state_dict()
    buffers0 = {k: v.copy() for k, v in model.buffers.items()}
    with StepClock() as clock:
        t0 = time.perf_counter()
        try:
            result = train_mod.train(model, train_seqs, val_seqs, tcfg,
                                     augment=AugmentPolicy(), max_epochs=epochs)
        except Exception:
            _report_exception(tally, "train()")
            result = None
        wall = time.perf_counter() - t0
    steps = list(clock.durations)
    tally.attempted += len(steps) + (result is None)
    trained = model.params.state_dict()
    model.params.load_state_dict(params0)
    for k, v in buffers0.items():
        model.buffers[k][...] = v
    if result is None:
        tally.failed += 1
        return None
    vals = np.array([[log.train_loss, log.val_loss, log.grad_norm, log.lr]
                     for log in result.logs])
    if len(result.logs) != epochs or not np.all(np.isfinite(vals)):
        tally.fail(len(steps), f"train() logged {vals.tolist()} over {epochs} epochs")
    digest = hashlib.sha256(vals.tobytes())
    for path in sorted(trained):
        digest.update(trained[path].tobytes())
    run = TrainRun(wall=wall, frames=epochs * sum(len(s) for s in train_seqs), steps=steps,
                   last_epoch_loss=float(vals[-1, 0]), digest=digest.hexdigest())
    if reference is not None and run.digest != reference.digest:
        tally.fail(len(steps), "train() does not reproduce its warm-up run bitwise")
    return run


# The probe trains on the first sequence, one chunk per optimizer step, with
# a one-step learning-rate warm-up: the default warm-up of 100 steps is
# longer than the whole probe, and the weights would hardly move.
# Its second epoch's mean loss is then about 6.7 on eval_desk, against 10.6
# with adam_step made a no-op. A larger rate moves it further but makes it
# depend more on the seed's trajectories.
PROBE_EPOCHS = 2


def probe(model, first, seed: int, reference: TrainRun | None,
          tally: Tally) -> TrainRun | None:
    """The train unit of the eval workloads, and the source of train_loss in
    every workload."""
    return train_unit(model, [first], [first],
                      TrainConfig(seed=seed, batch_size=1, lr_init=3e-4, warmup_steps=1),
                      PROBE_EPOCHS, reference, tally)


def train_metrics(runs: list[TrainRun], loss: float) -> dict[str, float]:
    """Throughput and step time over the timed train units; the loss is the
    mean training loss of the warm-up probe's last epoch, the same quantity
    on every workload."""
    return {"train_frames_per_s": sum(r.frames for r in runs) / sum(r.wall for r in runs),
            "train_step_p50_ms": 1e3 * statistics.median(s for r in runs for s in r.steps),
            "train_loss": loss}


# -- one run -----------------------------------------------------------


@dataclass
class Result:
    workload: str
    seed: int
    tally: Tally
    metrics: dict[str, float]
    info: dict
    tracer: spans_mod.Tracer | None = None
    layer_metrics: dict[str, float] = field(default_factory=dict)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run(workload: Workload, seed: int, seconds: float, work_dir: Path,
        trace: bool = False) -> Result:
    """One benchmark run in this process. With `trace`, the whole run is
    traced and the per-layer metrics are computed from the spans."""
    tracer = spans_mod.Tracer() if trace else None
    with tracer if tracer is not None else contextlib.nullcontext():
        return _run(workload, seed, seconds, work_dir, tracer)


def _run(workload, seed, seconds, work_dir, tracer) -> Result:
    tally = Tally()
    windows: dict[str, list[tuple[float, float]]] = {"setup": [], "eval": [], "train": []}
    info: dict = {"workload": workload.name, "seed": seed}

    # set-up, several times; the last one's data and model are used
    setup_times = []
    for i in range(SETUP_REPEATS):
        d = work_dir / f"setup{i}"
        d.mkdir(parents=True)
        t = time.perf_counter()
        secs, seqs, model = setup(workload, seed, d)
        windows["setup"].append((t, time.perf_counter()))
        setup_times.append(secs)
        if i + 1 < SETUP_REPEATS:
            shutil.rmtree(d)
    first = seqs[0]
    clouds = [len(lf.frame.cloud) for s in seqs for lf in s]
    info.update(setup_repeats=SETUP_REPEATS, sequences=[len(s) for s in seqs],
                points_per_cloud=[min(clouds), max(clouds)])
    pad_ratio = float(np.mean([model.cfg.point.input_budget / n for n in clouds]))

    # warm-up: the references for the bitwise checks, and train_loss
    reference = run_sequence(first, model, tally, EvalLog())
    probe_ref = probe(model, first, seed, None, tally)

    if workload.primary == "eval":
        eval_share = 2 / 3
        unit_ref = probe_ref

        def next_train_unit():
            return probe(model, first, seed, unit_ref, tally)
    else:
        eval_share = 1 / 3
        tcfg = TrainConfig(seed=seed)
        unit_ref = train_unit(model, seqs, [first], tcfg, 1, None, tally)

        def next_train_unit():
            return train_unit(model, seqs, [first], tcfg, 1, unit_ref, tally)

    log = EvalLog(count_carried=tracer is not None)
    train_runs: list[TrainRun] = []
    digest = hashlib.sha256()
    spent = {"eval": 0.0, "train": 0.0}
    eval_ops = 0
    k = 0
    while True:
        total = spent["eval"] + spent["train"]
        need_eval = k < len(seqs) or len(log.latencies) < MIN_FRAMES
        if total >= seconds and not need_eval and train_runs:
            break
        if total >= seconds:
            do_eval = need_eval
        else:
            do_eval = spent["eval"] <= eval_share * total
        ops0 = sum(tracer.op_calls.values()) if tracer is not None else 0
        t = time.perf_counter()
        if do_eval:
            out = run_sequence(seqs[k % len(seqs)], model, tally, log)
            if k % len(seqs) == 0:
                compare_rerun(reference, out, tally)
            if k < len(seqs):
                digest.update(b"".join(out))
            k += 1
        else:
            run = next_train_unit()
            if run is None:
                break
            train_runs.append(run)
        phase = "eval" if do_eval else "train"
        windows[phase].append((t, time.perf_counter()))
        spent[phase] += time.perf_counter() - t
        if do_eval and tracer is not None:
            eval_ops += sum(tracer.op_calls.values()) - ops0

    metrics: dict[str, float] = {}
    if log.latencies:
        metrics.update(eval_metrics(log))
    metrics["peak_rss_mb"] = peak_rss_mb()
    metrics["setup_s"] = statistics.median(setup_times)
    if train_runs and probe_ref is not None:
        metrics.update(train_metrics(train_runs, probe_ref.last_epoch_loss))
    info.update(outputs_sha256=digest.hexdigest(),
                train_sha256=probe_ref.digest if probe_ref is not None else None,
                eval_frames=len(log.latencies),
                train_steps=sum(len(r.steps) for r in train_runs),
                error_rate=tally.failed / max(tally.attempted, 1))

    result = Result(workload=workload.name, seed=seed, tally=tally, metrics=metrics,
                    info=info, tracer=tracer)
    if tracer is not None:
        result.layer_metrics = layer_metrics(tracer, windows, log, pad_ratio, eval_ops)
    return result


# -- per-layer metrics from the trace ----------------------------------

# span name -> per-layer metric name; self time per eval frame
FRAME_LAYERS = {
    "backbones.group_and_encode": "backbones.group_and_encode_ms",
    "backbones.fps_sample": "backbones.fps_sample_ms",
    "backbones.dynamic_sample_count": "backbones.dynamic_sample_count_ms",
    "backbones.point_forward": "backbones.point_forward_ms",
    "backbones.rgb_forward": "backbones.rgb_forward_ms",
    "backbones.attention_block": "backbones.attention_block_ms",
    "tensor.conv2d": "tensor.conv2d_ms",
    "tensor.batch_norm": "tensor.batch_norm_ms",
    "fusion.reliability_image": "fusion.reliability_image_ms",
    "fusion.reliability_cloud": "fusion.reliability_cloud_ms",
    "fusion.semantic_map": "fusion.semantic_map_ms",
    "fusion.gate": "fusion.gate_ms",
    "fusion.fuse": "fusion.fuse_ms",
    "geometry.lidar_to_camera": "geometry.lidar_to_camera_ms",
    "geometry.project_points": "geometry.project_points_ms",
    "geometry.render_sparse_depth": "geometry.render_sparse_depth_ms",
    "temporal.temporal_delta": "temporal.temporal_delta_ms",
    "temporal.recurrent_step": "temporal.recurrent_step_ms",
    "temporal.temporal_attention": "temporal.temporal_attention_ms",
    "temporal.decision_forward": "temporal.decision_forward_ms",
    "pipeline.pipeline_step": "pipeline.self_ms",
}
# self time per optimizer step
STEP_LAYERS = {
    "tensor.backward": "tensor.backward_ms",
    "optim.adam_step": "optim.adam_step_ms",
    "optim.clip_global_norm": "optim.clip_global_norm_ms",
    "kitti.augment_frame": "kitti.augment_frame_ms",
    "temporal.nav_loss": "temporal.nav_loss_ms",
    "train.train": "train.self_ms",
}
# self time per call
SETUP_LAYERS = {
    "kitti.parse_velodyne_bin": "kitti.parse_velodyne_bin_ms",
    "kitti.load_ppm": "kitti.load_ppm_ms",
    "simulate.render_frame": "simulate.render_frame_ms",
    "simulate.scan_frame": "simulate.scan_frame_ms",
    "simulate.degrade_image": "simulate.degrade_image_ms",
    "simulate.degrade_cloud": "simulate.degrade_cloud_ms",
    "pipeline.init_pipeline": "pipeline.init_pipeline_ms",
}
SETUP_SECONDS = {  # self time per call, in seconds
    "kitti.load_sequences": "kitti.load_sequences_s",
    "cli.synth": "cli.synth_s",
}


def _per_layer_units() -> dict[str, str]:
    units = {}
    for table in (FRAME_LAYERS, STEP_LAYERS, SETUP_LAYERS):
        units.update({m: "ms" for m in table.values()})
    units.update({m: "s" for m in SETUP_SECONDS.values()})
    units.update({
        "pipeline.step_ms": "ms",
        "train.forward_ms": "ms",
        "train.validation_s": "s",
        "backbones.point_pad_ratio": "ratio",
        "tensor.carried_graph_nodes": "count",
        "tensor.op_calls": "count",
        "trace.fps": "1/s",
        "trace.frames": "count",
        "trace.steps": "count",
    })
    for span_name in sorted({name for _, _, name in spans_mod.SPANS} | {"tensor.backward"}):
        units[f"calls.{span_name}"] = "count"
    return units


PER_LAYER = _per_layer_units()


def carried_graph_nodes(state) -> int:
    """Tape nodes (tensors with a backward closure) reachable from a
    returned TemporalState, found by walking each tensor's parents."""
    roots = [state.hidden, *state.window]
    if state.prev_fused is not None:
        roots.append(state.prev_fused)
    seen: set[int] = set()
    taped = 0
    stack = roots
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        taped += t._backward_fn is not None
        stack.extend(t._parents)
    return taped


def layer_metrics(tracer: spans_mod.Tracer, windows, log: EvalLog,
                  pad_ratio: float, eval_op_calls: int) -> dict[str, float]:
    """Per-layer metrics from the spans inside each phase's windows: eval-side
    layers per frame of the timed eval phase, train-side layers per optimizer
    step of the timed train phase, set-up layers per call. Call counts use
    the same unit as the layer's time."""
    spans = tracer.spans
    selfs = spans_mod.self_times(spans)
    self_s = {g: Counter() for g in windows}   # phase -> span name -> self seconds
    calls = {g: Counter() for g in windows}
    phase = _phases(spans, windows)
    in_validation: set[int] = set()
    forward = validation = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        if phase[i] is None:
            continue
        self_s[phase[i]][name] += selfs[i]
        calls[phase[i]][name] += 1
        if parent >= 0 and (parent in in_validation
                            or spans[parent][0] == "train.validation_loss"):
            in_validation.add(i)
        if phase[i] == "train":
            if name == "train.validation_loss":
                validation += end - start
            elif name == "pipeline.pipeline_step" and i not in in_validation:
                forward += end - start
    frames = calls["eval"]["pipeline.pipeline_step"]
    steps = calls["train"]["optim.adam_step"]
    epochs = calls["train"]["train.validation_loss"]

    out: dict[str, float] = {}
    for name, metric in FRAME_LAYERS.items():
        out[metric] = 1e3 * self_s["eval"][name] / frames
    roots = [span[2] - span[1] for span, ph in zip(spans, phase)
             if span[0] == spans_mod.FRAME_ROOT and span[3] == -1 and ph == "eval"]
    out["pipeline.step_ms"] = 1e3 * sum(roots) / frames
    for name, metric in STEP_LAYERS.items():
        out[metric] = 1e3 * self_s["train"][name] / steps
    out["train.forward_ms"] = 1e3 * forward / steps
    out["train.validation_s"] = validation / epochs
    for table, scale in ((SETUP_LAYERS, 1e3), (SETUP_SECONDS, 1.0)):
        for name, metric in table.items():
            out[metric] = scale * self_s["setup"][name] / max(calls["setup"][name], 1)
    out["backbones.point_pad_ratio"] = pad_ratio
    out["tensor.carried_graph_nodes"] = float(np.mean(log.carried_nodes))
    out["tensor.op_calls"] = eval_op_calls / frames
    out["trace.fps"] = len(log.latencies) / sum(log.latencies)
    out["trace.frames"] = float(frames)
    out["trace.steps"] = float(steps)
    per_step = set(STEP_LAYERS) | {"train.validation_loss"}
    per_setup = set(SETUP_LAYERS) | set(SETUP_SECONDS)
    for metric in PER_LAYER:
        if metric.startswith("calls."):
            name = metric[len("calls."):]
            if name in per_step:
                out[metric] = calls["train"][name] / steps
            elif name in per_setup:
                out[metric] = calls["setup"][name] / calls["setup"]["cli.synth"]
            else:
                out[metric] = calls["eval"][name] / frames
    return out


def _phases(spans, windows) -> list[str | None]:
    """The phase whose window holds each span, or None (warm-up, gaps)."""
    intervals = sorted((lo, hi, phase) for phase, ivs in windows.items() for lo, hi in ivs)
    starts = [lo for lo, _, _ in intervals]
    out = []
    for _, start, end, _, _ in spans:
        j = bisect.bisect_right(starts, start) - 1
        out.append(intervals[j][2] if j >= 0 and end <= intervals[j][1] else None)
    return out
