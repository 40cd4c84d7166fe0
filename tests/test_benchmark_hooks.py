"""The benchmark tracer's hooks still find the entry points they wrap.

perfbench/tracer.py is read, never edited: a renamed or moved entry point
would otherwise show only when a traced benchmark run fails.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import streamres.cli  # noqa: F401  (the tracer patches modules already loaded)
from streamres import registry, simulator
from streamres.viability import Rng

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_entry_point_resolves(tracer_module):
    for module_name, attr, name in tracer_module.ENTRY_POINTS:
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), name


def test_speedup_section_reports_both_spans(tracer_module):
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        registry._speedup(Rng(42), 100)
    finally:
        tracer.uninstall()
    assert tracer.calls["probe.empirical_first_success_rounds"] == 1
    assert tracer.calls["simulator.run_speedup_empirical"] == 1
    # One span encloses the other, so the outer one's self time is less
    # than its busy time.
    outer = "simulator.run_speedup_empirical"
    assert tracer.self_time[outer] < tracer.busy[outer]
    assert registry.run_speedup_empirical is simulator.run_speedup_empirical
