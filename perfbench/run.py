"""navfuse benchmark: closed-loop frame latency, FPS, memory and training
throughput on three workloads, with a traced per-layer split.

    python3 perfbench/run.py --workload eval_desk --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Run from the root of a navfuse checkout; the package is imported from
``src/``. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("eval_desk", "eval_wide", "train_bptt")


def blas_info() -> dict:
    """BLAS library name, configuration and thread count of the running numpy."""
    import numpy as np

    info = {"name": "unknown", "config": None, "threads": None}
    try:
        info["name"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                info["threads"] = threads()
                info["config"] = config().decode()
                return info
    return info


def machine_context() -> dict:
    import numpy as np

    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_info(), "machine": platform.machine()}


def result_json(result, trace: bool) -> dict:
    import workloads

    units = workloads.PER_LAYER if trace else workloads.END_TO_END
    values = result.layer_metrics if trace else result.metrics
    return {"correct": result.tally.failed == 0,
            "attempted": result.tally.attempted,
            "failed": result.tally.failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items() if name in values}}


def report_lines(result, trace: bool) -> list[str]:
    """Human-readable lines: context, every metric with its unit, checks."""
    info = result.info
    lines = [f"workload {result.workload}  seed {result.seed}",
             f"context {json.dumps(machine_context(), sort_keys=True)}",
             f"sequences {info['sequences']}  points/cloud {info['points_per_cloud']}  "
             f"setup repeats {info['setup_repeats']}",
             f"eval frames timed {info['eval_frames']} (p95 has "
             f"{info['eval_frames'] // 20} samples above it)  "
             f"train steps timed {info['train_steps']}",
             f"outputs_sha256 {info['outputs_sha256']}",
             f"train_sha256 {info['train_sha256']}",
             f"error_rate {info['error_rate']} ({result.tally.failed} failed of "
             f"{result.tally.attempted} frames and steps attempted)"]
    lines += [f"  note: {n}" for n in result.tally.notes[:20]]
    for name, entry in result_json(result, trace)["metrics"].items():
        lines.append(f"  {name:<40} {entry['value']:.6g} {entry['unit']}")
    if trace:
        import spans

        tree = result.tracer.spans
        selfs = spans.self_times(tree)
        in_frames = sum(s for s, span in zip(selfs, tree) if span[4] > 0)
        roots = sum(e - s for name, s, e, _, _ in tree if name == spans.FRAME_ROOT)
        lines.append(f"trace: {len(tree)} spans, {len(spans.check_tree(tree))} tree "
                     f"problems; self times inside frames sum to {in_frames:.6f} s, "
                     f"pipeline_step spans to {roots:.6f} s")
    return lines


def run_one(args) -> int:
    import workloads

    work_root = ROOT / ".perfbench" / "work"
    work_dir = work_root / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = workloads.run(workloads.WORKLOADS[args.workload], args.seed,
                               args.seconds, work_dir, trace=bool(args.trace))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if args.trace:
        result.tracer.write(ROOT / ".perfbench" / "traces"
                            / f"{args.workload}-seed{args.seed}.jsonl")
    for line in report_lines(result, bool(args.trace)):
        print(line)
    print(json.dumps(result_json(result, bool(args.trace))))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process of its own, one after another, so
    that peak RSS is per workload and load comes from one process at a time."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for metric, entry in res["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="wall time of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "navfuse" / "__init__.py").is_file():
        print(f"perfbench: no navfuse package under {ROOT / 'src'}; run from a "
              "navfuse checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
