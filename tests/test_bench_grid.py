"""Tests for the unified benchmark grid, the noise-band comparator and the CLI."""

import json

import pytest

from repro.bench.compare import (
    compare_artifact,
    compare_gates,
    latest_baselines,
    metric_direction,
    self_test,
)
from repro.bench.grid import BENCH_SCHEMA, GridCase, run_grid, run_suite
from repro.bench.recorder import load_history
from repro.bench.suites import SUITES, get_suite
from repro.cli import main

TINY_KERNELS = {"n_sweep": 400, "n_disk": 200, "n_probes": 150}
TINY_ENGINE = {"n": 400}


# --------------------------------------------------------------------------- #
# grid dataclasses + registry
# --------------------------------------------------------------------------- #

class TestGridBasics:
    def test_case_id_includes_declared_axes_only(self):
        case = GridCase("kernels", "disk_sweep", 2000, backend="numpy")
        assert case.case_id == "kernels/disk_sweep/n=2000/backend=numpy"
        assert case.axes == {"workload": "disk_sweep", "size": 2000,
                             "backend": "numpy", "executor": None}
        plain = GridCase("engine", "rectangle", 500, executor="serial")
        assert plain.case_id == "engine/rectangle/n=500/executor=serial"

    def test_registry_names_every_benchmark_layer(self):
        assert set(SUITES) == {"kernels", "engine", "streaming", "service",
                               "parallel", "zoo", "serving_slo", "paper"}
        for name in SUITES:
            suite = get_suite(name)
            assert suite.name == name
            assert suite.description

    def test_unknown_suite_is_a_keyerror(self):
        with pytest.raises(KeyError, match="unknown bench suite"):
            get_suite("nope")


# --------------------------------------------------------------------------- #
# suite runs at tiny override sizes
# --------------------------------------------------------------------------- #

class TestRunSuite:
    def test_kernels_suite_structure(self):
        run = run_suite("kernels", quick=True, overrides=TINY_KERNELS,
                        spans=False, log=None)
        assert run.suite == "kernels" and run.quick and run.ok
        assert len(run.cases) == 8  # 4 kernels x 2 backends
        assert all(check.passed for check in run.checks)
        assert set(run.gates) == {"speedup_interval_sweep",
                                  "speedup_rectangle_sweep",
                                  "speedup_disk_sweep",
                                  "speedup_probe_depths"}
        payload = run.to_dict()
        assert payload["config"]["n_sweep"] == 400
        assert {case["axes"]["backend"] for case in payload["cases"]} == \
            {"python", "numpy"}
        assert json.loads(json.dumps(payload)) == payload

    def test_engine_suite_checks_values_against_direct(self):
        run = run_suite("engine", quick=True, overrides=TINY_ENGINE,
                        spans=False, log=None)
        assert run.ok
        names = [check.name for check in run.checks]
        assert "disk serial == direct value" in names
        assert "disk_sharded_speedup" in run.gates

    def test_history_entry_shape(self):
        run = run_suite("kernels", quick=True, overrides=TINY_KERNELS,
                        spans=False, log=None)
        entry = run.history_entry()
        assert entry["schema"] == BENCH_SCHEMA
        assert entry["suite"] == "kernels"
        assert entry["quick"] is True
        assert entry["checks_passed"] is True
        assert entry["cases"] == 8
        assert entry["gates"] == run.gates

    def test_overrides_merge_over_defaults(self):
        run = run_suite("kernels", quick=True,
                        overrides={**TINY_KERNELS, "backends": ["python"]},
                        spans=False, log=None)
        assert len(run.cases) == 4          # one backend -> no speedup gates
        assert run.gates == {} and run.checks == []


# --------------------------------------------------------------------------- #
# run_grid: artifact + history + exit code
# --------------------------------------------------------------------------- #

class TestRunGrid:
    def test_writes_artifact_and_history(self, tmp_path):
        output = str(tmp_path / "BENCH_grid.json")
        history = str(tmp_path / "PERF_HISTORY.jsonl")
        status = run_grid(names=["kernels"], quick=True, output=output,
                          history=history, overrides=TINY_KERNELS,
                          spans=False, log=None)
        assert status == 0
        with open(output) as handle:
            artifact = json.load(handle)
        assert artifact["schema"] == BENCH_SCHEMA
        assert artifact["quick"] is True
        assert [suite["suite"] for suite in artifact["suites"]] == ["kernels"]
        entries = load_history(history)
        assert len(entries) == 1 and entries[0]["suite"] == "kernels"

    def test_failed_check_exits_nonzero(self, tmp_path, monkeypatch):
        from repro.bench import suites as suites_module
        from repro.bench.grid import CheckResult

        original = suites_module.KernelsSuite.finish

        def sabotaged(self, results, config, context):
            checks, summary, gates = original(self, results, config, context)
            checks.append(CheckResult("injected failure", False, "synthetic"))
            return checks, summary, gates

        monkeypatch.setattr(suites_module.KernelsSuite, "finish", sabotaged)
        status = run_grid(names=["kernels"], quick=True,
                          output=str(tmp_path / "g.json"),
                          overrides=TINY_KERNELS, spans=False, log=None)
        assert status == 1


# --------------------------------------------------------------------------- #
# the noise-band comparator
# --------------------------------------------------------------------------- #

class TestComparator:
    def test_metric_directions(self):
        assert metric_direction("speedup_disk_sweep") == 1
        assert metric_direction("dirty_shard_batched_vs_recompute_ratio") == 1
        assert metric_direction("query_latency_recompute_over_dirty") == 1
        assert metric_direction("seconds") == -1
        assert metric_direction("mean_query_latency") == -1

    def test_higher_better_drop_beyond_band_regresses(self):
        regressions = compare_gates("kernels", {"speedup_x": 10.0},
                                    {"speedup_x": 6.0}, noise=0.25)
        assert len(regressions) == 1
        assert regressions[0].metric == "speedup_x"
        assert "regressed" in regressions[0].describe()

    def test_drop_within_band_passes(self):
        assert compare_gates("kernels", {"speedup_x": 10.0},
                             {"speedup_x": 8.0}, noise=0.25) == []

    def test_lower_better_rise_beyond_band_regresses(self):
        assert compare_gates("s", {"p95_seconds": 1.0},
                             {"p95_seconds": 2.0}, noise=0.25)
        assert compare_gates("s", {"p95_seconds": 1.0},
                             {"p95_seconds": 0.5}, noise=0.25) == []

    def test_improvements_never_regress(self):
        assert compare_gates("kernels", {"speedup_x": 10.0},
                             {"speedup_x": 40.0}, noise=0.25) == []

    def test_non_numeric_and_missing_gates_skipped(self):
        # Non-numeric baseline gates compare nothing, and neither does a new
        # gate the baseline lacks.  (A baseline gate the *current* run lacks
        # fails: see the next test.)
        assert compare_gates("s", {"a": "fast", "b": True, "c": 2.0},
                             {"a": "slow", "b": False, "c": 2.0, "d": 1.0},
                             noise=0.1) == []

    def test_baseline_gate_missing_from_current_run_fails(self):
        # A renamed or dropped gate used to compare nothing and pass.
        regressions = compare_gates(
            "parallel", {"speedup_old": 1.2, "speedup_kept": 1.5},
            {"speedup_new": 1.4, "speedup_kept": 1.5}, noise=0.5)
        assert [r.metric for r in regressions] == ["speedup_old"]
        assert regressions[0].current is None
        assert "speedup_old is missing" in regressions[0].describe()
        history = [{"suite": "kernels", "quick": True,
                    "gates": {"speedup_x": 10.0}}]
        renamed = self._artifact({"speedup_y": 10.0})
        assert compare_artifact(renamed, history, noise=0.25, log=None) == 1

    def test_latest_baseline_wins_and_filters_mode(self):
        entries = [
            {"suite": "kernels", "quick": True, "gates": {"s": 1.0}},
            {"suite": "kernels", "quick": False, "gates": {"s": 9.0}},
            {"suite": "kernels", "quick": True, "gates": {"s": 2.0}},
        ]
        baselines = latest_baselines(entries, quick=True)
        assert baselines["kernels"]["gates"] == {"s": 2.0}

    def _artifact(self, gates, checks_passed=True):
        return {
            "schema": BENCH_SCHEMA,
            "quick": True,
            "suites": [{
                "suite": "kernels",
                "quick": True,
                "cases": [],
                "checks": [{"name": "c", "passed": checks_passed, "detail": ""}],
                "summary": dict(gates),
                "gates": dict(gates),
            }],
        }

    def test_compare_artifact_flags_regression(self):
        history = [{"suite": "kernels", "quick": True,
                    "gates": {"speedup_x": 10.0}}]
        good = compare_artifact(self._artifact({"speedup_x": 9.0}), history,
                                noise=0.25, log=None)
        bad = compare_artifact(self._artifact({"speedup_x": 5.0}), history,
                               noise=0.25, log=None)
        assert (good, bad) == (0, 1)

    def test_compare_artifact_fails_on_failed_check(self):
        history = [{"suite": "kernels", "quick": True,
                    "gates": {"speedup_x": 10.0}}]
        artifact = self._artifact({"speedup_x": 10.0}, checks_passed=False)
        assert compare_artifact(artifact, history, noise=0.25, log=None) == 1

    def test_no_baseline_is_not_a_failure(self):
        artifact = self._artifact({"speedup_x": 10.0})
        assert compare_artifact(artifact, [], noise=0.25, log=None) == 0

    def test_self_test_catches_injection(self):
        assert self_test(self._artifact({"speedup_x": 10.0}), noise=0.25,
                         log=None) == 0

    @pytest.mark.parametrize("noise", [0.1, 0.25, 0.5, 0.75, 1.0])
    def test_self_test_catches_injection_at_any_band(self, noise):
        """The injected move must land strictly beyond the band for wide
        bands too (CI runs --noise 0.5); a multiplicative 1/(1+2n)
        degradation only clears the band for noise < 0.5."""
        artifact = self._artifact({"speedup_x": 10.0,
                                   "query_latency_recompute_over_dirty": 5.0})
        assert self_test(artifact, noise=noise, log=None) == 0

    def test_self_test_fails_without_numeric_gates(self):
        assert self_test(self._artifact({}), noise=0.25, log=None) == 1


# --------------------------------------------------------------------------- #
# the `repro bench` CLI
# --------------------------------------------------------------------------- #

class TestBenchCli:
    def test_bench_list_names_every_suite(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        for name in SUITES:
            assert name in out

    def test_bench_grid_unknown_suite_is_usage_error(self, capsys):
        assert main(["bench", "grid", "--suite", "nope"]) == 2
        assert "unknown bench suites" in capsys.readouterr().err

    def test_bench_grid_bad_override_is_usage_error(self, capsys):
        assert main(["bench", "grid", "--suite", "kernels",
                     "--set", "nodelimiter"]) == 2
        assert "key=value" in capsys.readouterr().err

    def test_bench_grid_misspelled_or_malformed_override_is_usage_error(
            self, tmp_path, capsys):
        # One --set list applies to every selected suite, so a key only
        # fails when none of them declares it; nothing runs before that.
        output = tmp_path / "g.json"
        assert main(["bench", "grid", "--suite", "kernels", "--quick",
                     "--set", "n_swep=500", "--output", str(output)]) == 2
        err = capsys.readouterr().err
        assert "n_swep" in err and "Traceback" not in err
        assert not output.exists()
        assert main(["bench", "grid", "--suite", "kernels", "--suite", "engine",
                     "--quick", "--no-spans", "--set", "n_sweep=abc",
                     "--output", str(output)]) == 2
        assert "n_sweep" in capsys.readouterr().err
        with pytest.raises(ValueError, match="n_swep"):
            run_grid(names=["kernels", "engine"], quick=True,
                     output=str(output), overrides={"n_swep": 500}, log=None)

    def test_bench_grid_runs_and_compare_passes(self, tmp_path, capsys):
        output = str(tmp_path / "BENCH_grid.json")
        history = str(tmp_path / "PERF_HISTORY.jsonl")
        sets = []
        for key, value in TINY_KERNELS.items():
            sets += ["--set", "%s=%d" % (key, value)]
        assert main(["bench", "grid", "--suite", "kernels", "--quick",
                     "--output", output, "--history", history,
                     "--no-spans"] + sets) == 0
        assert main(["bench", "compare", "--current", output,
                     "--history", history, "--self-test"]) == 0
        out = capsys.readouterr().out
        assert "within the 25% noise band" in out
        assert "injected" in out and "caught" in out

    def test_bench_compare_fails_on_injected_regression(self, tmp_path, capsys):
        # The acceptance demonstration: degrade every gate metric far beyond
        # the noise band and the comparator must exit 1.
        output = str(tmp_path / "BENCH_grid.json")
        history = str(tmp_path / "PERF_HISTORY.jsonl")
        sets = []
        for key, value in TINY_KERNELS.items():
            sets += ["--set", "%s=%d" % (key, value)]
        assert main(["bench", "grid", "--suite", "kernels", "--quick",
                     "--output", output, "--history", history,
                     "--no-spans"] + sets) == 0
        with open(output) as handle:
            artifact = json.load(handle)
        for suite in artifact["suites"]:
            suite["gates"] = {metric: value / 10.0
                              for metric, value in suite["gates"].items()}
        degraded = str(tmp_path / "BENCH_degraded.json")
        with open(degraded, "w") as handle:
            json.dump(artifact, handle)
        assert main(["bench", "compare", "--current", degraded,
                     "--history", history]) == 1
        assert "regressed" in capsys.readouterr().out

    def test_bench_compare_missing_artifact_is_usage_error(self, tmp_path, capsys):
        assert main(["bench", "compare",
                     "--current", str(tmp_path / "missing.json"),
                     "--history", str(tmp_path / "none.jsonl")]) == 2

    def test_bench_compare_without_history_passes(self, tmp_path, capsys):
        artifact = {"schema": BENCH_SCHEMA, "quick": True, "suites": []}
        path = str(tmp_path / "a.json")
        with open(path, "w") as handle:
            json.dump(artifact, handle)
        assert main(["bench", "compare", "--current", path,
                     "--history", str(tmp_path / "none.jsonl")]) == 0
        assert "nothing to compare" in capsys.readouterr().out
