"""Tests for the atomic recorder writers, artifact JSON consistency and history I/O."""

import json
import os

import pytest

from repro.bench.grid import BENCH_SCHEMA, run_suite
from repro.bench.recorder import (
    append_history,
    atomic_write_text,
    load_history,
    write_bench_json,
)


@pytest.fixture(scope="module")
def paper_artifact():
    """A ``repro-bench-grid/1`` payload of one quick E12 run: its rows carry
    booleans (``values_match``) next to integer I/O counts."""
    run = run_suite("paper", quick=True, overrides={"experiments": ["E12"]},
                    spans=False, log=None)
    return run, {"schema": BENCH_SCHEMA, "quick": True, "suites": [run.to_dict()]}


# --------------------------------------------------------------------------- #
# atomic writes + fault injection
# --------------------------------------------------------------------------- #

class TestAtomicWrites:
    def test_write_then_replace(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, lambda handle: handle.write("payload"))
        with open(path) as handle:
            assert handle.read() == "payload"

    def test_crash_mid_write_leaves_original_intact(self, tmp_path):
        # Regression: the recorder used plain open(path, "w"), so a crash
        # mid-write truncated a committed artifact to a partial file.
        path = tmp_path / "artifact.json"
        path.write_text('{"schema": "old", "intact": true}\n')

        def exploding(handle):
            handle.write('{"schema": "new", "partial":')
            raise RuntimeError("disk full")

        with pytest.raises(RuntimeError):
            atomic_write_text(str(path), exploding)
        assert json.loads(path.read_text()) == {"schema": "old", "intact": True}

    def test_crash_leaves_no_tmp_litter(self, tmp_path):
        path = tmp_path / "artifact.json"

        def exploding(handle):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            atomic_write_text(str(path), exploding)
        assert os.listdir(str(tmp_path)) == []

    def test_report_writers_survive_crash(self, tmp_path, monkeypatch, paper_artifact):
        # The artifact writer routes through the same atomic path: fail the
        # final rename and the original artifact must survive.
        _, payload = paper_artifact
        path = tmp_path / "BENCH_paper.json"
        write_bench_json(payload, str(path))
        original = path.read_text()

        def exploding_replace(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr("repro.bench.recorder.os.replace", exploding_replace)
        with pytest.raises(OSError):
            write_bench_json({"schema": BENCH_SCHEMA, "suites": []}, str(path))
        assert path.read_text() == original
        assert [name for name in os.listdir(str(tmp_path))
                if name.endswith(".tmp")] == []

    def test_write_bench_json(self, tmp_path):
        path = str(tmp_path / "BENCH_grid.json")
        write_bench_json({"schema": "repro-bench-grid/1", "suites": []}, path)
        with open(path) as handle:
            assert json.load(handle)["schema"] == "repro-bench-grid/1"


# --------------------------------------------------------------------------- #
# artifact <-> run consistency
# --------------------------------------------------------------------------- #

class TestCsvJsonConsistency:
    def test_csv_booleans_use_json_spelling(self, tmp_path, paper_artifact):
        # Booleans in rows and checks are JSON booleans, never the Python
        # spelling of a stringified value.
        _, payload = paper_artifact
        path = tmp_path / "BENCH_paper.json"
        write_bench_json(payload, str(path))
        text = path.read_text()
        assert '"values_match": true' in text
        assert '"passed": true' in text
        assert "True" not in text and "False" not in text

    def test_csv_json_claims_round_trip(self, tmp_path, paper_artifact):
        run, payload = paper_artifact
        path = str(tmp_path / "BENCH_paper.json")
        write_bench_json(payload, path)
        with open(path) as handle:
            suite = json.load(handle)["suites"][0]
        assert suite["checks"] == [check.to_dict() for check in run.checks]
        assert all(check["name"].startswith("E12: ") for check in suite["checks"])

    def test_report_to_dict_round_trips_through_json(self, paper_artifact):
        run, _ = paper_artifact
        payload = run.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert run.ok and run.history_entry()["checks_passed"] is True


# --------------------------------------------------------------------------- #
# perf-history append/load
# --------------------------------------------------------------------------- #

class TestHistory:
    def test_append_creates_and_extends(self, tmp_path):
        path = str(tmp_path / "PERF_HISTORY.jsonl")
        assert append_history(path, [{"suite": "kernels", "gates": {"s": 2.0}}]) == 1
        assert append_history(path, [{"suite": "engine"},
                                     {"suite": "service"}]) == 2
        entries = load_history(path)
        assert [entry["suite"] for entry in entries] == \
            ["kernels", "engine", "service"]

    def test_load_skips_blank_and_torn_lines(self, tmp_path):
        path = tmp_path / "PERF_HISTORY.jsonl"
        path.write_text('{"suite": "kernels"}\n'
                        '\n'
                        '{"suite": "engi'      # torn mid-write by a crash
                        '\n'
                        '[1, 2, 3]\n'           # JSON but not an entry object
                        '{"suite": "service"}\n')
        entries = load_history(str(path))
        assert [entry["suite"] for entry in entries] == ["kernels", "service"]

    def test_append_preserves_existing_lines_atomically(self, tmp_path):
        path = tmp_path / "PERF_HISTORY.jsonl"
        path.write_text('{"suite": "kernels", "gates": {"x": 1.5}}\n')
        append_history(str(path), [{"suite": "parallel"}])
        lines = [json.loads(line) for line in
                 path.read_text().splitlines() if line.strip()]
        assert lines[0] == {"suite": "kernels", "gates": {"x": 1.5}}
        assert lines[1] == {"suite": "parallel"}
        assert [name for name in os.listdir(str(tmp_path))
                if name.endswith(".tmp")] == []
