"""The benchmark's tracer wraps names that exist where it looks for them."""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_trace_hooks_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # defines the hooks; installs nothing
    for mod_name, attr, _ in tracer.FUNCTIONS:
        assert hasattr(importlib.import_module(mod_name), attr), (mod_name, attr)
    for mod_name, cls_name, attr, _ in tracer.METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        assert attr in vars(cls), (mod_name, cls_name, attr)
    heat = importlib.import_module("sobex.heat")
    assert "modes_for" in vars(heat.NeumannSystem)
