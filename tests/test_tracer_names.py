"""The benchmark's tracer patches lagflow functions by module-level name
(``perfbench/tracer.py``); a renamed or dropped name would only show up in a
traced benchmark run, so check here that every name still resolves."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_layer_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYER_NAMES


def test_every_traced_name_resolves():
    names = load_layer_names()
    assert names
    missing = [f"lagflow.{module}.{attr}" for module, attr, _, _ in names
               if not hasattr(importlib.import_module(f"lagflow.{module}"), attr)]
    assert missing == []


def test_wgf2d_keeps_the_sparse_linalg_module_name():
    # the tracer swaps lagflow.wgf2d.spla for a proxy and the solver factors through it
    wgf2d = importlib.import_module("lagflow.wgf2d")
    assert wgf2d.spla is importlib.import_module("scipy.sparse.linalg")
