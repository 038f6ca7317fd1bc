"""Smoke tests: every example script runs end-to-end on a reduced workload.

The examples are part of the public deliverable; these tests import each one
as a module, shrink its workload constants so the run stays fast, and execute
its ``main()``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def load_example(name):
    """Import an example script as a module without running it."""
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(name.replace(".py", ""), path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestExamplesRun:
    def test_examples_directory_contents(self):
        names = {p.name for p in EXAMPLES_DIR.glob("*.py")}
        assert "quickstart.py" in names
        assert len(names) >= 4, "the deliverable requires at least three scenario examples"

    def test_quickstart_runs(self, capsys):
        module = load_example("quickstart.py")
        module.main()
        output = capsys.readouterr().out
        assert "Exact unit-disk placement" in output
        assert "Dynamic MaxRS" in output

    def test_hotspot_monitoring_runs(self, capsys):
        module = load_example("hotspot_monitoring.py")
        module.STREAM_LENGTH = 80
        module.CHECKPOINTS = 2
        module.main()
        output = capsys.readouterr().out
        assert "Replaying" in output
        assert "Guarantee" in output

    def test_wildlife_tracking_runs(self, capsys):
        module = load_example("wildlife_tracking.py")
        module.ANIMALS = 6
        module.SAMPLES_PER_ANIMAL = 5
        module.main()
        output = capsys.readouterr().out
        assert "exact angular sweep" in output
        assert "Best placement covers" in output

    def test_sharded_engine_runs(self, capsys):
        module = load_example("sharded_engine.py")
        module.N_POINTS = 400
        module.ENTITIES = 6
        module.WORKERS = 2
        module.main()
        output = capsys.readouterr().out
        assert "3 unique solved" in output  # the duplicate was deduplicated
        assert "engine agrees: True" in output

    def test_retail_site_selection_runs(self, capsys):
        module = load_example("retail_site_selection.py")
        module.CUSTOMERS = 80
        module.main()
        output = capsys.readouterr().out
        assert "Best 2x2 delivery zone" in output
        assert "What-if analysis" in output

    def test_convolution_hardness_runs(self, capsys):
        module = load_example("convolution_hardness.py")
        module.main()
        output = capsys.readouterr().out
        assert "Theorem 1.3" in output
        assert output.count("True") >= 8, "every reduction check must match the naive result"
