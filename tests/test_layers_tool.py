"""tools/layers.py keeps its timings when the Tier-1 suite fails."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

LAYERS_PATH = Path(__file__).resolve().parents[1] / "tools" / "layers.py"


@pytest.fixture
def layers():
    spec = importlib.util.spec_from_file_location("streamres_layers_tool", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_failing_suite_still_writes_the_layers(layers, monkeypatch, tmp_path, capsys):
    runs = iter(range(100))
    monkeypatch.setattr(layers, "one_run", lambda: {"stub.layer_us": float(next(runs))})

    def failing_suite():
        raise RuntimeError("Tier-1 suite failed:\nFAILED tests/test_x.py::test_y")

    monkeypatch.setattr(layers, "_tier1_s", failing_suite)
    out = tmp_path / "layers.json"
    assert layers.main(["--runs", "5", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    # The first call is the unrecorded warm-up.
    assert report["layers"] == {
        "stub.layer_us": {
            "median": 3.0, "q1": 2.0, "q3": 4.0, "samples": [1.0, 2.0, 3.0, 4.0, 5.0]
        }
    }
    assert report["tier1_failure"].endswith("FAILED tests/test_x.py::test_y")
    assert "FAILED tests/test_x.py::test_y" in capsys.readouterr().err


def test_one_run_times_the_event_log_read(layers, monkeypatch):
    # The registry, verify-count and import layers take seconds; stub them.
    monkeypatch.setattr(layers, "_sections", lambda: {})
    monkeypatch.setattr(layers, "_verify_layers", lambda: {})
    monkeypatch.setattr(layers, "_calls_per_verify", lambda: {})
    monkeypatch.setattr(layers, "_import_ms", lambda: 0.0)
    run = layers.one_run()
    assert run["reservoir.events_read_us"] > 0.0
    assert run["reservoir.sim_tick_us"] > 0.0


def test_one_run_times_verify_whole_and_the_sweep_in_process(layers):
    fork_pays = layers.registry._fork_pays
    timed = layers._verify_layers()
    assert layers.registry._fork_pays is fork_pays
    assert set(timed) == {"registry.verify_s", "registry.sweep_in_process_s"}
    assert all(seconds > 0.0 for seconds in timed.values())
