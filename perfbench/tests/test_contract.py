"""``BENCHMARK.json`` agrees with the benchmark's own tables, and the
benchmark refuses to run where there is no program to measure."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import report
from conftest import BENCH
from workloads import WORKLOADS

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_keys_and_metric_tables():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in SPEC["workloads"])
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == [
        (m.name, m.unit, m.better) for m in report.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (m.name, m.unit, m.better) for m in report.PER_LAYER]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)


def test_bounds():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])


def test_every_layer_metric_names_what_it_should_move():
    assert all(m.moves and m.heavy_on for m in report.PER_LAYER)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable] + SPEC["command"][1:] + [
            "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
            "--seconds", "1",
            "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert "{" not in done.stdout
