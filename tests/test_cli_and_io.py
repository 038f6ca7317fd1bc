"""Tests for the command-line interface, CSV point I/O and the benchmark artifact writer."""

import json

import pytest

from repro.bench.grid import BENCH_SCHEMA, run_grid, run_suite
from repro.bench.paper import EXPERIMENTS
from repro.bench.recorder import write_bench_json
from repro.cli import build_parser, main
from repro.datasets import read_points_csv, write_points_csv


# --------------------------------------------------------------------------- #
# CSV point I/O
# --------------------------------------------------------------------------- #

class TestPointCsv:
    def test_roundtrip_plain_points(self, tmp_path):
        path = str(tmp_path / "points.csv")
        points = [(0.0, 1.0), (2.5, 3.5), (4.0, 5.0)]
        write_points_csv(path, points)
        table = read_points_csv(path)
        assert table.points == points
        assert table.weights is None
        assert table.colors is None
        assert table.dim == 2
        assert len(table) == 3

    def test_roundtrip_with_weights_and_colors(self, tmp_path):
        path = str(tmp_path / "points.csv")
        points = [(0.0, 1.0, 2.0), (3.0, 4.0, 5.0)]
        write_points_csv(path, points, weights=[1.5, 2.5], colors=["a", "b"])
        table = read_points_csv(path)
        assert table.points == points
        assert table.weights == [1.5, 2.5]
        assert table.colors == ["a", "b"]

    def test_accepts_xy_aliases(self, tmp_path):
        path = tmp_path / "alias.csv"
        path.write_text("x,y,weight\n1.0,2.0,3.0\n4.0,5.0,6.0\n")
        table = read_points_csv(str(path))
        assert table.points == [(1.0, 2.0), (4.0, 5.0)]
        assert table.weights == [3.0, 6.0]

    def test_missing_coordinates_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("weight\n1.0\n")
        with pytest.raises(ValueError):
            read_points_csv(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert len(read_points_csv(str(path))) == 0

    def test_mismatched_weights_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_points_csv(str(tmp_path / "x.csv"), [(0.0, 0.0)], weights=[1.0, 2.0])


# --------------------------------------------------------------------------- #
# benchmark artifacts of the paper suite
# --------------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def e12_run():
    """One quick E12 run (deterministic I/O counts, cheap)."""
    return run_suite("paper", quick=True, overrides={"experiments": ["E12"]},
                     spans=False, log=None)


class TestRecorder:
    def test_report_to_dict_is_json_serialisable(self, e12_run):
        payload = e12_run.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        rows = payload["cases"][0]["metrics"]["rows"]
        assert [row["n"] for row in rows] == [128, 256]
        assert payload["gates"] == {}

    def test_write_report_csv(self, e12_run, tmp_path):
        path = str(tmp_path / "BENCH_paper.json")
        write_bench_json({"schema": BENCH_SCHEMA, "suites": [e12_run.to_dict()]}, path)
        with open(path) as handle:
            suite = json.load(handle)["suites"][0]
        assert suite["suite"] == "paper"
        assert suite["cases"][0]["metrics"]["rows"] == e12_run.cases[0].metrics["rows"]

    def test_write_reports_json(self, tmp_path):
        output = str(tmp_path / "BENCH_paper.json")
        status = run_grid(names=["paper"], quick=True, output=output,
                          overrides={"experiments": ["E12", "E8"]},
                          spans=False, log=None)
        assert status == 0
        with open(output) as handle:
            artifact = json.load(handle)
        assert [case["id"] for case in artifact["suites"][0]["cases"]] == [
            "paper/E12/n=256", "paper/E8/n=60"]

    def test_write_reports_csv_dir(self, tmp_path):
        history = str(tmp_path / "PERF_HISTORY.jsonl")
        run_grid(names=["paper"], quick=True, output=str(tmp_path / "g.json"),
                 history=history, overrides={"experiments": ["E8"]},
                 spans=False, log=None)
        with open(history) as handle:
            entry = json.loads(handle.read())
        assert entry["suite"] == "paper" and entry["checks_passed"] is True
        assert entry["gates"] == {}


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #

class TestExperimentRegistry:
    def test_contains_all_fifteen_experiments(self):
        assert list(EXPERIMENTS) == ["E%d" % i for i in range(1, 16)]

    def test_every_driver_is_callable(self):
        for experiment in EXPERIMENTS.values():
            assert callable(experiment.driver)
            assert experiment.driver.__doc__
            assert experiment.size_key in experiment.full


class TestCli:
    def test_parser_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiments_list(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        assert "paper" in out and "E1-E15" in out

    def test_experiments_run_unknown_id(self, capsys):
        assert main(["bench", "grid", "--suite", "paper", "--quick",
                     "--set", 'experiments=["E42"]']) == 2
        err = capsys.readouterr().err
        assert "unknown experiment ids: E42" in err
        assert "Traceback" not in err

    def test_generate_and_solve_disk(self, tmp_path, capsys):
        csv_path = str(tmp_path / "workload.csv")
        assert main(["generate", "clustered", "--output", csv_path,
                     "--n", "60", "--seed", "3"]) == 0
        table = read_points_csv(csv_path)
        assert len(table) == 60

        assert main(["solve", "disk", "--input", csv_path, "--radius", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "value:" in out and "placement:" in out

    def test_generate_trajectory_and_solve_colored(self, tmp_path, capsys):
        csv_path = str(tmp_path / "trajectories.csv")
        assert main(["generate", "trajectory", "--output", csv_path,
                     "--n", "80", "--entities", "8", "--seed", "5"]) == 0
        assert main(["solve", "colored-disk", "--input", csv_path,
                     "--radius", "1.5", "--epsilon", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "value:" in out

    def test_solve_colored_requires_color_column(self, tmp_path, capsys):
        csv_path = str(tmp_path / "plain.csv")
        write_points_csv(csv_path, [(0.0, 0.0), (1.0, 1.0)])
        assert main(["solve", "colored-disk", "--input", csv_path]) == 2
        assert "color" in capsys.readouterr().err

    def test_solve_empty_input_fails(self, tmp_path, capsys):
        csv_path = tmp_path / "empty.csv"
        csv_path.write_text("x1,x2\n")
        assert main(["solve", "disk", "--input", str(csv_path)]) == 2

    def test_solve_bad_radius_exits_2_without_traceback(self, tmp_path, capsys):
        csv_path = str(tmp_path / "pts.csv")
        write_points_csv(csv_path, [(0.0, 0.0), (1.0, 1.0)])
        assert main(["solve", "disk", "--input", csv_path, "--radius", "-1"]) == 2
        err = capsys.readouterr().err
        assert "radius" in err and "Traceback" not in err

    def test_solve_ball_approx_and_rectangle(self, tmp_path, capsys):
        csv_path = str(tmp_path / "hotspot.csv")
        assert main(["generate", "hotspot", "--output", csv_path,
                     "--n", "50", "--seed", "7"]) == 0
        assert main(["solve", "ball-approx", "--input", csv_path,
                     "--radius", "1.0", "--epsilon", "0.4"]) == 0
        assert main(["solve", "rectangle", "--input", csv_path,
                     "--width", "2.0", "--height", "2.0"]) == 0
        out = capsys.readouterr().out
        assert out.count("value:") == 2


class TestCliVersionAndEntryPoint:
    """``repro --version`` and the shared module / console entry point."""

    def test_version_flag_prints_package_version(self, capsys):
        import repro
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.strip() == "repro %s" % repro.__version__

    def test_version_matches_project_metadata_fallback(self):
        """The uninstalled-checkout fallback must track pyproject.toml."""
        import re
        from pathlib import Path
        import repro
        pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
        declared = re.search(r'^version = "([^"]+)"', pyproject, re.M).group(1)
        assert repro.__version__ == declared

    def test_module_and_console_script_share_one_entry_point(self):
        """``python -m repro`` and the ``repro`` console script must dispatch
        to the same callable (repro.cli:main)."""
        import repro.__main__ as module_entry
        from pathlib import Path
        assert module_entry.main is main
        pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
        assert 'repro = "repro.cli:main"' in pyproject


class TestCliServe:
    """Smoke tests for the ``serve`` subcommand (the serving front end)."""

    def test_serve_generated_trace(self, capsys):
        assert main(["serve", "--requests", "80", "--n", "120",
                     "--concurrency", "16", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "throughput:" in out and "coalescing:" in out and "latency:" in out

    def test_serve_save_and_replay_roundtrip(self, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.jsonl")
        assert main(["serve", "--requests", "60", "--n", "100",
                     "--save-trace", trace_path, "--seed", "3"]) == 0
        capsys.readouterr()
        assert main(["serve", "--replay", trace_path, "--n", "100",
                     "--seed", "3", "--routing", "sharded",
                     "--cache-ttl", "5", "--cache-size", "64"]) == 0
        out = capsys.readouterr().out
        assert "routing=sharded" in out and "60 requests" in out

    def test_serve_with_input_csv(self, tmp_path, capsys):
        csv_path = str(tmp_path / "pts.csv")
        assert main(["generate", "clustered", "--output", csv_path,
                     "--n", "90", "--seed", "5"]) == 0
        capsys.readouterr()
        assert main(["serve", "--input", csv_path, "--requests", "50",
                     "--radius", "0.5", "--backend", "python"]) == 0
        assert "throughput:" in capsys.readouterr().out

    def test_serve_rejects_bad_flags(self, tmp_path, capsys):
        assert main(["serve", "--requests", "10", "--concurrency", "0"]) == 2
        assert main(["serve", "--replay", str(tmp_path / "missing.jsonl")]) == 2
        csv_path = tmp_path / "empty.csv"
        csv_path.write_text("x1,x2\n")
        assert main(["serve", "--input", str(csv_path), "--requests", "10"]) == 2

    @pytest.mark.parametrize("line", [
        '{"kind": "monitor", "arrival": "soon"}',
        '{"kind": "query", "query": 5}',
    ])
    def test_replay_rejects_a_malformed_trace_line(self, tmp_path, capsys, line):
        # loadgen refuses the trace before it attempts any connection.
        trace_path = tmp_path / "bad.jsonl"
        trace_path.write_text(line + "\n")
        assert main(["loadgen", "--connect", "127.0.0.1:1",
                     "--replay", str(trace_path)]) == 2
        assert main(["serve", "--n", "20", "--replay", str(trace_path)]) == 2
        assert capsys.readouterr().err.count("cannot load trace") == 2


class TestCliShardedEngine:
    """Smoke tests for the ``--engine sharded`` / ``--workers`` flags."""

    @staticmethod
    def _value_line(output):
        return next(line for line in output.splitlines() if line.startswith("value:"))

    def test_sharded_disk_matches_direct(self, tmp_path, capsys):
        csv_path = str(tmp_path / "workload.csv")
        assert main(["generate", "clustered", "--output", csv_path,
                     "--n", "120", "--seed", "9"]) == 0
        capsys.readouterr()
        assert main(["solve", "disk", "--input", csv_path, "--radius", "1.0"]) == 0
        direct = self._value_line(capsys.readouterr().out)
        assert main(["solve", "disk", "--input", csv_path, "--radius", "1.0",
                     "--engine", "sharded", "--workers", "2"]) == 0
        sharded_out = capsys.readouterr().out
        assert self._value_line(sharded_out) == direct
        # --workers > 1 without --executor picks the worker-process pool
        assert "engine:    sharded (shared-process, workers=2" in sharded_out

    def test_sharded_rectangle_serial_executor(self, tmp_path, capsys):
        csv_path = str(tmp_path / "workload.csv")
        assert main(["generate", "uniform", "--output", csv_path,
                     "--n", "80", "--seed", "11"]) == 0
        capsys.readouterr()
        assert main(["solve", "rectangle", "--input", csv_path, "--width", "2.0",
                     "--height", "2.0", "--engine", "sharded",
                     "--executor", "serial"]) == 0
        out = capsys.readouterr().out
        assert "value:" in out and "engine:    sharded (serial" in out

    def test_sharded_colored_requires_color_column(self, tmp_path, capsys):
        csv_path = str(tmp_path / "plain.csv")
        write_points_csv(csv_path, [(0.0, 0.0), (1.0, 1.0)])
        assert main(["solve", "colored-disk", "--input", csv_path,
                     "--engine", "sharded"]) == 2
        assert "color" in capsys.readouterr().err

    def test_sharded_ball_approx_runs(self, tmp_path, capsys):
        csv_path = str(tmp_path / "hotspot.csv")
        assert main(["generate", "hotspot", "--output", csv_path,
                     "--n", "60", "--seed", "13"]) == 0
        capsys.readouterr()
        assert main(["solve", "ball-approx", "--input", csv_path, "--radius", "1.0",
                     "--epsilon", "0.4", "--engine", "sharded", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "exact:     False" in out and "engine:    sharded" in out
