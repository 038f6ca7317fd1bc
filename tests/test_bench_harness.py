"""Tests for the ``paper`` grid suite (experiments E1-E15) and the grid
helpers its drivers share with every other suite."""

import dataclasses

import pytest

from repro.bench.grid import CheckResult, SuiteRun, run_suite, timed
from repro.bench.suites import get_suite


def run_paper(*ids, log=None, **per_id):
    """Run the quick ``paper`` suite on the given experiment ids."""
    overrides = {"experiments": list(ids)}
    overrides.update(per_id)
    return run_suite("paper", quick=True, overrides=overrides, spans=False, log=log)


def assert_claims_hold(run):
    """The run produced rows for every case and every paper claim held."""
    assert run.cases and all(case.metrics["rows"] for case in run.cases)
    assert run.checks and run.ok, [check for check in run.checks if not check.passed]


@pytest.fixture(scope="module")
def e8_log():
    lines = []
    run = run_paper("E8", log=lines.append)
    return run, lines


class TestTimer:
    """Drivers time their calls with ``grid.timed``."""

    def test_measures_elapsed_time(self):
        seconds, total = timed(lambda: sum(range(1000)))
        assert total == 499500
        assert seconds >= 0.0

    def test_elapsed_is_zero_before_first_use(self):
        calls = []
        seconds, value = timed(lambda: calls.append(1) or len(calls), repeats=0)
        assert calls == [1] and value == 1       # repeats < 1 still runs once
        assert 0.0 <= seconds < float("inf")

    def test_reusable_and_measures_an_exceptional_block(self):
        values = iter([3, 1, 2])
        seconds, last = timed(lambda: next(values), repeats=3)
        assert last == 2 and seconds >= 0.0     # best-of-3 time, last value

        def explode():
            raise RuntimeError("measured anyway")

        with pytest.raises(RuntimeError):
            timed(explode)
        assert timed(lambda: "again")[1] == "again"


class TestFormatTable:
    """``run_suite`` logs a header line, one line per case, one per check."""

    def test_alignment_and_headers(self, e8_log):
        run, lines = e8_log
        assert lines[0] == "[paper] 1 cases (quick)"
        assert lines[1].startswith("  paper/E8/n=60 ")
        check_lines = [line for line in lines if line.startswith("  check ")]
        assert len(check_lines) == len(run.checks) == 2
        assert all(line.endswith("[ok]") for line in check_lines)
        assert "E8: a 2x2 rectangle never covers less weight" in check_lines[1]

    def test_float_formatting(self, e8_log):
        _, lines = e8_log
        seconds = lines[1].split()[-1]
        assert seconds.endswith("s")
        whole, _, fraction = seconds[:-1].partition(".")
        assert whole.isdigit() and len(fraction) == 3


class TestExperimentReport:
    """A paper claim is a ``CheckResult``; ``SuiteRun.ok`` is their verdict."""

    @staticmethod
    def _run(*checks):
        return SuiteRun(suite="paper", quick=True, config={}, cases=[],
                        checks=list(checks), summary={}, gates={})

    def test_claims_and_render(self):
        run = self._run(CheckResult("E0: holds", True),
                        CheckResult("E0: fails", False, "worst row: ..."))
        assert run.to_dict()["checks"] == [
            {"name": "E0: holds", "passed": True, "detail": ""},
            {"name": "E0: fails", "passed": False, "detail": "worst row: ..."}]
        assert not run.ok
        assert run.history_entry()["checks_passed"] is False

    def test_all_claims_hold_default(self):
        assert self._run().ok

    def test_all_claims_hold_tracks_every_claim(self):
        first, second = CheckResult("first", True), CheckResult("second", False)
        run = self._run(first)
        assert run.ok
        run.checks.append(second)
        assert not run.ok
        second.passed = True
        assert run.ok


class TestExperimentsRunExitCode:
    """`repro bench grid --suite paper` exits 1 when any claim fails, 0 otherwise."""

    @staticmethod
    def _grid(tmp_path):
        from repro.cli import main
        return main(["bench", "grid", "--suite", "paper", "--quick", "--no-spans",
                     "--set", 'experiments=["E8"]',
                     "--output", str(tmp_path / "paper.json")])

    def test_failed_claim_exits_one(self, monkeypatch, tmp_path, capsys):
        import repro.exact

        real = repro.exact.maxrs_rectangle_exact

        def empty_rectangle(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), value=0.0)

        # E8 claims a 2x2 square covers at least the weight of a unit disk.
        monkeypatch.setattr(repro.exact, "maxrs_rectangle_exact", empty_rectangle)
        assert self._grid(tmp_path) == 1
        assert "FAIL [paper] E8: a 2x2 rectangle" in capsys.readouterr().out

    def test_passing_claims_exit_zero(self, tmp_path, capsys):
        assert self._grid(tmp_path) == 0
        assert "FAIL" not in capsys.readouterr().out


class TestGeometricSizes:
    """The suite's size defaults and its config validation."""

    def test_progression(self):
        suite = get_suite("paper")
        quick, full = suite.defaults(True), suite.defaults(False)
        ids = ["E%d" % k for k in range(1, 16)]
        assert quick["experiments"] == full["experiments"] == ids
        assert set(quick) == set(full) == {"experiments", *ids}
        for eid in ids:
            assert set(quick[eid]) == set(full[eid]), eid
        assert quick["E1"] == {"sizes": [40, 60], "epsilons": [0.35], "seed": 1}
        assert full["E1"] == {"sizes": [80, 160, 320], "epsilons": [0.2, 0.3, 0.4],
                              "seed": 1}
        assert quick["E6"]["point_counts"] == [50, 100]
        assert full["E6"]["point_counts"] == [200, 400, 800]

        # A partial override keeps the mode's defaults for the other keys.
        config = {**quick, "experiments": ["E8"], "E8": {"n": 40}, "quick": True}
        cases, _ = suite.build(config)
        assert [case.case_id for case in cases] == ["paper/E8/n=40"]
        assert config["E8"] == {"n": 40, "seed": 8}

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown experiment ids: E42"):
            run_paper("E42")
        with pytest.raises(ValueError, match="E1 takes no size"):
            run_paper("E1", E1={"size": [10]})
        with pytest.raises(ValueError, match="list of ids"):
            run_suite("paper", quick=True, overrides={"experiments": "E1"},
                      spans=False, log=None)


class TestExperimentDriversSmall:
    """Each experiment runs as its quick ``paper`` case and every claim holds.

    Quick mode checks every claim except the four growth-shape claims (E1,
    E2, E7, E13), whose measured growth goes to the summary instead.
    """

    def test_e1_small(self):
        run = run_paper("E1")
        assert_claims_hold(run)
        assert "E1_cells_growth" in run.summary

    def test_e2_small(self):
        run = run_paper("E2")
        assert_claims_hold(run)
        assert "E2_cells_per_update_growth" in run.summary

    def test_e3_small(self):
        assert_claims_hold(run_paper("E3"))

    def test_e4_small(self):
        assert_claims_hold(run_paper("E4"))

    def test_e5_small(self):
        assert_claims_hold(run_paper("E5"))

    def test_e6_small(self):
        run = run_paper("E6")
        assert_claims_hold(run)
        assert len(run.checks) == 2

    def test_e6_catches_a_wrong_oracle_answer(self, monkeypatch):
        import repro.batched

        real = repro.batched.batched_maxrs_1d

        def one_answer_off(*args, **kwargs):
            answers = real(*args, **kwargs)
            answers[0] = dataclasses.replace(answers[0], value=answers[0].value + 1.0)
            return answers

        monkeypatch.setattr(repro.batched, "batched_maxrs_1d", one_answer_off)
        run = run_paper("E6")
        assert [check.name for check in run.checks if not check.passed] == [
            "E6: the batched oracle equals the O(n^2) brute force for every query length"]

    def test_e7_small(self):
        run = run_paper("E7")
        assert_claims_hold(run)
        assert "E7_oracle_time_growth" in run.summary

    def test_e8_small(self, e8_log):
        assert_claims_hold(e8_log[0])

    def test_e9_small(self):
        assert_claims_hold(run_paper("E9"))

    def test_e10_small(self):
        assert_claims_hold(run_paper("E10"))
