"""The traced benchmark wraps navfuse functions by module attribute; every
name it wraps or patches must still exist, or the traced run breaks."""

import importlib
import importlib.util
from pathlib import Path

import navfuse.pipeline
import navfuse.tensor
import navfuse.train
from navfuse.verify import small_pipeline_config

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_resolves():
    missing = [f"{module}.{attr}" for module, attr, _ in _load_spans().SPANS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_every_counted_tensor_op_resolves():
    # the tracer looks each op up by name on entry, so deleting one breaks
    # every traced run
    missing = [op for op in _load_spans().TENSOR_OPS
               if not callable(getattr(navfuse.tensor, op, None))]
    assert missing == []


def test_train_keeps_the_names_the_benchmark_patches():
    # the benchmark's training clock replaces these two to time steps and
    # exclude validation
    assert callable(navfuse.train.adam_step)
    assert callable(navfuse.train.validation_loss)


def test_model_keeps_the_buffers_the_benchmark_restores():
    # the benchmark's train unit copies model.buffers before training and
    # writes it back after; the pipeline keeps no state outside its
    # parameters, so it is empty
    model = navfuse.pipeline.init_pipeline(small_pipeline_config())
    assert model.buffers == {}
