"""The benchmark's tracer must still find every orderword function it names."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_has_a_binding():
    # Every benchmark run resolves all targets, so one renamed or deleted
    # function would crash it.
    tracer = _load_tracer()
    found = {name for name, _owner, _attr, _original in tracer.target_bindings()}
    assert [name for name, _module, _path in tracer.TARGETS if name not in found] == []
