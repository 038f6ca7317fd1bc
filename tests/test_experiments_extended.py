"""Smoke tests: every extended experiment (E11-E15) runs as its quick
``paper`` grid case and its claims hold.

The full-size tables come from ``repro bench grid --suite paper``.
"""

from repro.bench.grid import run_suite


def run_paper(experiment_id, log=None, **kwargs):
    overrides = {"experiments": [experiment_id]}
    if kwargs:
        overrides[experiment_id] = kwargs
    return run_suite("paper", quick=True, overrides=overrides, spans=False, log=log)


class TestExtendedExperiments:
    def test_e11_sampling_baselines(self):
        run = run_paper("E11")
        assert [case.case_id for case in run.cases] == ["paper/E11/n=120"]
        assert len(run.cases[0].metrics["rows"]) == 2
        assert run.ok

    def test_e12_io_model(self):
        run = run_paper("E12")
        assert [case.case_id for case in run.cases] == ["paper/E12/n=256"]
        rows = run.cases[0].metrics["rows"]
        assert len(rows) == 2
        # I/O counts are deterministic: the sort-based scan always wins.
        assert all(row["scan_based_ios"] < row["nested_scan_ios"] for row in rows)
        assert run.ok

    def test_e13_streaming_monitor(self):
        run = run_paper("E13")
        # Quick mode checks the guarantee only; the growth-shape claim is
        # full-size, and quick runs report the measured growth.
        assert [check.name for check in run.checks] == [
            "E13: every reported hotspot is within (1/2 - eps) of the exact optimum"]
        assert run.ok
        assert {"E13_exact_query_cost_growth",
                "E13_dynamic_update_cost_growth"} <= set(run.summary)

    def test_e14_colored_boxes(self):
        run = run_paper("E14")
        assert len(run.checks) == 3
        assert run.ok

    def test_e15_boxes_beyond_plane(self):
        run = run_paper("E15")
        assert len(run.checks) == 2
        assert run.ok

    def test_reports_render_as_text(self):
        lines = []
        run = run_paper("E12", log=lines.append, sizes=[128])
        assert run.ok
        assert lines[0] == "[paper] 1 cases (quick)"
        assert lines[1].startswith("  paper/E12/n=128")
        assert any(line.startswith("  check E12: sort-based external MaxRS")
                   and line.endswith("[ok]") for line in lines)
