"""The ``paper`` grid suite: experiments E1-E15 check the source paper's claims.

The paper (PODS 2025) is a theory paper without empirical tables, so each
experiment reproduces the *shape* of one theorem or comparison:

=====  ===================================================================
E1     static (1/2 - eps) MaxRS with a d-ball (Theorem 1.2)
E2     dynamic (1/2 - eps) MaxRS with a d-ball (Theorem 1.1)
E3     colored (1/2 - eps) MaxRS with a d-ball (Theorem 1.5)
E4     output-sensitive exact colored disk MaxRS (Theorem 4.6)
E5     (1 - eps) colored disk MaxRS via color sampling (Theorem 1.6)
E6     batched MaxRS in R^1 and the (min,+) reduction (Theorem 1.3)
E7     batched smallest k-enclosing interval (Theorem 1.4)
E8     the Figure 1 hotspot scenario with exact baselines
E9     ablation of Technique 1's sample size and grid shifts (Lemmas 3.1-3.4)
E10    colored disk solvers head to head (exact sweep, Techniques 1 and 2)
E11    prior-work sampling baselines vs Technique 1 (Section 1.5)
E12    external-memory MaxRS in the I/O model (the [CCT12/CCT14] shape)
E13    continuous hotspot monitoring vs exact recomputation (Section 1.1)
E14    colored box MaxRS, the Technique 2 extension (Section 7)
E15    exact box MaxRS in R^3 and the d >= 3 regime of Theorem 1.2
=====  ===================================================================

Each experiment is one grid case whose workload is its id: the table it
measures goes in the case's ``metrics["rows"]`` and each claim becomes a
:class:`~repro.bench.grid.CheckResult` named ``"E<k>: <claim>"``.  Claims
about quantities that are deterministic per seed (approximation ratios,
agreement between exact solvers, I/O and work counters) are checked in both
modes.  The four claims about growth shape (E1, E2, E7, E13) are checked only
at full size: at quick sizes constant costs dominate the growth, so quick
runs report it in ``summary`` instead.  The suite declares no gates;
wall-clock seconds stay in the rows and the summary.

The config is ``experiments`` (the ids to run) plus one dict of driver
keyword arguments per id; ``--set E1='{"sizes": [40, 60]}'`` overrides some
of them and keeps the mode's defaults for the rest.  Quick defaults are the
sizes the test suite runs; full defaults are the sizes of the E1-E15 tables.

Solver imports happen inside the drivers so ``import repro.bench`` stays
light.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .grid import CaseResult, CheckResult, GridCase, GridSuite, timed

__all__ = ["PaperSuite", "EXPERIMENTS"]

Rows = List[Dict[str, object]]
Outcome = Tuple[Rows, List[CheckResult], Dict[str, object]]


class Experiment(NamedTuple):
    """One registered experiment: its driver, the keyword argument that sets
    its largest instance (the case's ``size`` axis) and its defaults."""

    driver: Callable[..., Outcome]
    size_key: str
    full: Dict[str, object]
    quick: Dict[str, object]


EXPERIMENTS: Dict[str, Experiment] = {}
"""Registry of the E1-E15 drivers, keyed by experiment id."""


def _experiment(experiment_id: str, size_key: str, full: Dict[str, object],
                quick: Dict[str, object]):
    def register(driver):
        EXPERIMENTS[experiment_id] = Experiment(driver, size_key, full, quick)
        return driver
    return register


def _seconds(value: float) -> float:
    return round(value, 6)


def _growth(series: List[float]) -> Optional[float]:
    """Last over first value, or ``None`` without two positive points."""
    if len(series) < 2 or series[0] <= 0:
        return None
    return series[-1] / series[0]


def _meets_guarantee(name: str, rows: Rows, ratio: str = "ratio") -> CheckResult:
    """Every row's ``ratio`` reaches its ``guarantee``; the 1e-9 slack absorbs
    the rounding of the ratio's float division."""
    if not rows:
        return CheckResult(name, False, "no instances measured")
    worst = min(rows, key=lambda row: row[ratio] - row["guarantee"])
    return CheckResult(name, worst[ratio] >= worst["guarantee"] - 1e-9,
                       "worst row: %s" % worst)


def _all_rows(name: str, rows: Rows, holds: Callable[[Dict[str, object]], bool]) -> CheckResult:
    """``holds(row)`` for every row; the detail names the failing rows."""
    failing = [row for row in rows if not holds(row)]
    return CheckResult(name, bool(rows) and not failing,
                       "failing rows: %s" % failing[:3] if failing else
                       "%d rows" % len(rows))


def _min_plus_rows(reduction: Callable, sizes, rng, label: str) -> Rows:
    """Run a (min,+)-convolution reduction on random integer sequences and
    compare it with the naive quadratic convolution."""
    from ..convolution import min_plus_convolution

    rows = []
    for length in sizes:
        a = [int(v) for v in rng.integers(-50, 50, size=length)]
        b = [int(v) for v in rng.integers(-50, 50, size=length)]
        seconds, through_oracle = timed(lambda: reduction(a, b))
        naive = min_plus_convolution(a, b)
        # Integer inputs pass through float weights and lengths, so the
        # reduction's answers may differ from the exact integers by rounding.
        matches = len(through_oracle) == len(naive) and all(
            abs(x - y) < 1e-9 for x, y in zip(through_oracle, naive))
        rows.append({"what": label, "n": length, "matches": matches,
                     "time_s": _seconds(seconds)})
    return rows


# --------------------------------------------------------------------------- #
# E1-E10: the paper's theorems
# --------------------------------------------------------------------------- #

@_experiment("E1", "sizes",
             full={"sizes": [80, 160, 320], "epsilons": [0.2, 0.3, 0.4], "seed": 1},
             quick={"sizes": [40, 60], "epsilons": [0.35], "seed": 1})
def e1_static_ball(quick, sizes, epsilons, seed) -> Outcome:
    """Static (1/2-eps)-approximate MaxRS with a d-ball (Theorem 1.2)."""
    from ..core import max_range_sum_ball
    from ..datasets import planted_ball_instance, uniform_weighted_points
    from ..exact import maxrs_disk_exact

    rows: Rows = []

    def measure(dim, points, opt, epsilon, guarantee, weights=None):
        seconds, approx = timed(lambda: max_range_sum_ball(
            points, radius=1.0, epsilon=epsilon, weights=weights, seed=seed))
        rows.append({"dim": dim, "n": len(points), "epsilon": epsilon,
                     "opt": opt, "approx": approx.value,
                     "ratio": approx.value / opt if opt else 1.0,
                     "guarantee": guarantee,
                     "cells": approx.meta["cells_evaluated"],
                     "time_s": _seconds(seconds)})

    # Part A: d = 2, ratio against the exact disk sweep across epsilons.
    n_fixed = sizes[len(sizes) // 2]
    points, weights = uniform_weighted_points(n_fixed, dim=2, extent=6.0, seed=seed)
    exact = maxrs_disk_exact(points, radius=1.0, weights=weights).value
    for epsilon in epsilons:
        measure(2, points, exact, epsilon, 0.5 - epsilon, weights)

    # Part B: scaling in n at fixed epsilon (d = 2).
    cells = []
    for n in sizes:
        pts, ws = uniform_weighted_points(n, dim=2, extent=6.0, seed=seed + n)
        measure(2, pts, maxrs_disk_exact(pts, radius=1.0, weights=ws).value,
                0.4, 0.1, ws)
        cells.append(rows[-1]["cells"])

    # Part C: d = 3, where no exact baseline is practical -- planted optimum.
    for n in (60, 100):
        pts, opt = planted_ball_instance(n, planted=max(5, n // 10), dim=3, seed=seed + n)
        measure(3, pts, opt, 0.45, 0.05)

    checks = [_meets_guarantee(
        "approx value >= (1/2 - eps) * opt on every instance", rows)]
    summary: Dict[str, object] = {}
    growth = _growth(cells)
    if growth is not None:
        bound = (sizes[-1] / sizes[0]) ** 2
        summary["E1_cells_growth"] = round(growth, 3)
        if not quick:
            # Evaluated grid cells are Technique 1's work counter, fixed per
            # seed, so the near-linear claim is tested on them, not on time.
            checks.append(CheckResult(
                "evaluated cells grow below quadratically in n (near-linear work)",
                growth <= bound,
                "cells %d -> %d (%.2fx) for %.1fx more points; bound %.1fx"
                % (cells[0], cells[-1], growth, sizes[-1] / sizes[0], bound)))
    return rows, checks, summary


def _replay_dynamic(structure, stream) -> None:
    id_of = {}
    for position, event in enumerate(stream):
        if event.kind == "insert":
            id_of[position] = structure.insert(event.point, event.weight)
        else:
            structure.delete(id_of.pop(event.target))


@_experiment("E2", "stream_lengths",
             full={"stream_lengths": [100, 200, 400], "epsilon": 0.45, "seed": 2},
             quick={"stream_lengths": [60, 240], "epsilon": 0.45, "seed": 2})
def e2_dynamic(quick, stream_lengths, epsilon, seed) -> Outcome:
    """Dynamic (1/2-eps)-approximate MaxRS with a d-ball (Theorem 1.1)."""
    from ..core import DynamicMaxRS
    from ..datasets import hotspot_monitoring_stream
    from ..exact import maxrs_disk_exact

    rows: Rows = []
    for updates in stream_lengths:
        stream = hotspot_monitoring_stream(updates, dim=2, extent=8.0, seed=seed)
        structure = DynamicMaxRS(dim=2, radius=1.0, epsilon=epsilon, seed=seed)
        seconds, _ = timed(lambda: _replay_dynamic(structure, stream))
        live = [coords for coords, _ in stream.live_points_after(len(stream))]
        opt = maxrs_disk_exact(live, radius=1.0).value if live else 0.0
        approx = structure.query().value
        events = max(1, len(stream))
        rows.append({"updates": len(stream), "live_n": len(live),
                     "us_per_update": 1e6 * seconds / events,
                     "cells_per_update": structure.stats["cells_touched"] / events,
                     "opt": opt, "approx": approx,
                     "ratio": approx / opt if opt else 1.0,
                     "guarantee": 0.5 - epsilon,
                     "rebuilds": structure.stats["rebuilds"]})

    checks = [_meets_guarantee(
        "approx value >= (1/2 - eps) * opt at the end of every stream", rows)]
    summary: Dict[str, object] = {}
    growth = _growth([row["cells_per_update"] for row in rows])
    if growth is not None:
        bound = 0.9 * stream_lengths[-1] / stream_lengths[0]
        summary["E2_cells_per_update_growth"] = round(growth, 3)
        if not quick:
            # Cells touched per update is the structure's work counter, fixed
            # per seed, so the amortised-cost claim is tested on it.
            checks.append(CheckResult(
                "amortised update work grows sub-linearly in the stream length",
                growth <= bound,
                "cells per update %.1f -> %.1f (%.2fx); bound %.2fx"
                % (rows[0]["cells_per_update"], rows[-1]["cells_per_update"],
                   growth, bound)))
    return rows, checks, summary


@_experiment("E3", "entity_counts",
             full={"entity_counts": [8, 16, 32], "epsilon": 0.35, "seed": 3},
             quick={"entity_counts": [5, 8], "epsilon": 0.35, "seed": 3})
def e3_colored_ball(quick, entity_counts, epsilon, seed) -> Outcome:
    """Colored (1/2-eps)-approximate MaxRS with a d-ball (Theorem 1.5).

    The d = 3 row uses a planted optimum: no exact solver is practical there.
    """
    from ..core import colored_maxrs_ball
    from ..datasets import planted_colored_instance, trajectory_colored_points
    from ..exact import colored_maxrs_disk_sweep

    rows: Rows = []

    def measure(dim, points, colors, opt, epsilon, guarantee):
        seconds, approx = timed(lambda: colored_maxrs_ball(
            points, radius=1.0, epsilon=epsilon, colors=colors, seed=seed))
        rows.append({"dim": dim, "n": len(points), "colors": len(set(colors)),
                     "opt": opt, "approx": approx.value,
                     "ratio": approx.value / opt if opt else 1.0,
                     "guarantee": guarantee, "time_s": _seconds(seconds)})

    for entities in entity_counts:
        points, colors = trajectory_colored_points(entities, samples_per_entity=6,
                                                   extent=6.0, seed=seed + entities)
        exact = colored_maxrs_disk_sweep(points, radius=1.0, colors=colors).value
        measure(2, points, colors, exact, epsilon, 0.5 - epsilon)
    points, colors, opt = planted_colored_instance(60, planted_colors=10, dim=3, seed=seed)
    measure(3, points, colors, opt, 0.45, 0.05)
    return rows, [_meets_guarantee(
        "colored approx >= (1/2 - eps) * opt on every instance", rows)], {}


@_experiment("E4", "n",
             full={"opt_values": [3, 6, 12], "n": 150, "seed": 4},
             quick={"opt_values": [3, 5], "n": 60, "seed": 4})
def e4_output_sensitive(quick, opt_values, n, seed) -> Outcome:
    """Output-sensitive exact colored disk MaxRS (Theorem 4.6).

    The planted workload keeps n fixed while opt grows, so the k = O(n * opt)
    bound of Lemma 4.5 shows in the ``bichromatic_k`` column.
    """
    from ..core import colored_maxrs_disk_arrangement, colored_maxrs_disk_output_sensitive
    from ..datasets import planted_colored_instance
    from ..exact import colored_maxrs_disk_sweep

    rows: Rows = []
    for opt in opt_values:
        points, colors, _ = planted_colored_instance(
            n, planted_colors=opt, dim=2, background_colors=3, seed=seed + opt)
        sweep_s, sweep = timed(lambda: colored_maxrs_disk_sweep(
            points, radius=1.0, colors=colors))
        os_s, output_sensitive = timed(lambda: colored_maxrs_disk_output_sensitive(
            points, radius=1.0, colors=colors))
        arrangement = colored_maxrs_disk_arrangement(points, radius=1.0, colors=colors)
        rows.append({"n": n, "opt": opt, "sweep_value": sweep.value,
                     "os_value": output_sensitive.value,
                     "arrangement_value": arrangement.value,
                     "sweep_time_s": _seconds(sweep_s), "os_time_s": _seconds(os_s),
                     "bichromatic_k": arrangement.meta["bichromatic_intersections"],
                     "n_times_opt": n * opt})
    return rows, [_all_rows(
        "output-sensitive value equals the exact sweep and the arrangement value",
        rows, lambda row: row["sweep_value"] == row["os_value"] == row["arrangement_value"])], {}


@_experiment("E5", "n",
             full={"planted_opts": [8, 16, 32], "n": 200, "epsilons": [0.2, 0.3], "seed": 5},
             quick={"planted_opts": [4], "n": 60, "epsilons": [0.3], "seed": 5})
def e5_colored_disk_eps(quick, planted_opts, n, epsilons, seed) -> Outcome:
    """(1-eps)-approximate colored disk MaxRS via color sampling (Theorem 1.6).

    Planted workloads keep the optimum known, and ``sampling_constant=0.5``
    lowers the algorithm's cut-off so the larger optima take the
    color-sampling branch.
    """
    from ..core import colored_maxrs_disk
    from ..datasets import planted_colored_instance

    rows: Rows = []
    for opt in planted_opts:
        points, colors, true_opt = planted_colored_instance(
            n, planted_colors=opt, dim=2, background_colors=3, seed=seed + opt)
        for epsilon in epsilons:
            seconds, approx = timed(lambda: colored_maxrs_disk(
                points, radius=1.0, epsilon=epsilon, colors=colors, seed=seed,
                sampling_constant=0.5))
            rows.append({"n": n, "opt": true_opt, "epsilon": epsilon,
                         "approx": approx.value, "ratio": approx.value / true_opt,
                         "guarantee": 1.0 - epsilon,
                         "branch": approx.meta.get("branch", "?"),
                         "time_s": _seconds(seconds)})
    return rows, [_meets_guarantee("approx value >= (1 - eps) * opt on every instance",
                                   rows)], {}


@_experiment("E6", "point_counts",
             full={"sequence_lengths": [16, 32, 64], "point_counts": [200, 400, 800],
                   "query_counts": [5, 10, 20], "seed": 6},
             quick={"sequence_lengths": [8, 12], "point_counts": [50, 100],
                    "query_counts": [3, 5], "seed": 6})
def e6_batched_maxrs(quick, sequence_lengths, point_counts, query_counts, seed) -> Outcome:
    """Batched MaxRS in R^1: the reduction from (min,+)-convolution (Theorem 1.3)."""
    from ..batched import batched_maxrs_1d
    from ..convolution import min_plus_via_batched_maxrs
    from ..core.sampling import default_rng
    from ..datasets import uniform_weighted_points
    from ..exact import maxrs_interval_bruteforce

    rng = default_rng(seed)
    rows = _min_plus_rows(min_plus_via_batched_maxrs, sequence_lengths, rng,
                          "(min,+) via batched MaxRS")
    checks = [_all_rows("the Section 5 reduction reproduces the naive (min,+)-convolution",
                        rows, lambda row: row["matches"])]

    # The O(m n log n) upper bound: the oracle answers each of m lengths with
    # one sweep, checked against the independent O(n^2) brute force.
    mismatches: List[str] = []
    times, work = [], []
    for n, m in zip(point_counts, query_counts):
        points, weights = uniform_weighted_points(n, dim=1, extent=100.0, seed=seed + n)
        xs = [p[0] for p in points]
        lengths = [float(v) for v in rng.uniform(1.0, 50.0, size=m)]
        seconds, answers = timed(lambda: batched_maxrs_1d(xs, lengths, weights=weights))
        wrong = [] if len(answers) == len(lengths) else [
            "n=%d: %d answers for %d lengths" % (n, len(answers), len(lengths))]
        for length, answer in zip(lengths, answers):
            expected = maxrs_interval_bruteforce(xs, length, weights=weights)
            # Both sum the same float weights (each >= 0.5) in different
            # orders, so they agree to rounding; a different covered set
            # would differ by at least one weight.
            if not math.isclose(answer.value, expected, rel_tol=1e-9, abs_tol=1e-9):
                wrong.append("n=%d length=%.3f: oracle %r, brute force %r"
                             % (n, length, answer.value, expected))
        mismatches.extend(wrong)
        rows.append({"what": "batched MaxRS oracle", "n": n, "m": m,
                     "matches": not wrong, "time_s": _seconds(seconds)})
        times.append(seconds)
        work.append(n * m)
    checks.append(CheckResult(
        "the batched oracle equals the O(n^2) brute force for every query length",
        bool(times) and not mismatches,
        "; ".join(mismatches[:3]) or "%d instances" % len(times)))
    summary: Dict[str, object] = {}
    growth = _growth(times)
    if growth is not None:
        summary["E6_oracle_time_growth"] = round(growth, 3)
        summary["E6_oracle_work_growth"] = round(work[-1] / work[0], 3)
    return rows, checks, summary


@_experiment("E7", "point_counts",
             full={"sequence_lengths": [16, 32, 64], "point_counts": [200, 400, 800],
                   "seed": 7},
             quick={"sequence_lengths": [8, 12], "point_counts": [50, 100], "seed": 7})
def e7_bsei(quick, sequence_lengths, point_counts, seed) -> Outcome:
    """Batched smallest k-enclosing interval (Theorem 1.4)."""
    from ..batched import batched_smallest_enclosing_intervals
    from ..convolution import min_plus_via_bsei
    from ..core.sampling import default_rng

    rng = default_rng(seed)
    rows = _min_plus_rows(min_plus_via_bsei, sequence_lengths, rng,
                          "(min,+) via batched SEI")
    checks = [_all_rows("the Section 6 reduction reproduces the naive (min,+)-convolution",
                        rows, lambda row: row["matches"])]

    times = []
    for n in point_counts:
        xs = [float(v) for v in rng.uniform(0.0, 1000.0, size=n)]
        seconds, _ = timed(lambda: batched_smallest_enclosing_intervals(xs))
        times.append(seconds)
        rows.append({"what": "batched SEI oracle", "n": n, "time_s": _seconds(seconds)})
    summary: Dict[str, object] = {}
    growth = _growth(times)
    if growth is not None:
        size_growth = point_counts[-1] / point_counts[0]
        summary["E7_oracle_time_growth"] = round(growth, 3)
        # Wall-clock shape is only meaningful above the timer's noise floor:
        # below 1 ms constant overheads hide the quadratic growth.
        if not quick and times[0] >= 1e-3:
            checks.append(CheckResult(
                "batched SEI oracle time grows roughly quadratically (matching upper bound)",
                growth >= size_growth ** 1.3,
                "time growth %.2fx for %.1fx more points; bound %.2fx"
                % (growth, size_growth, size_growth ** 1.3)))
    return rows, checks, summary


@_experiment("E8", "n", full={"n": 250, "seed": 8}, quick={"n": 60, "seed": 8})
def e8_baselines(quick, n, seed) -> Outcome:
    """Hotspot detection with rectangles, disks and balls (Figure 1)."""
    from ..core import max_range_sum_ball
    from ..datasets import trajectory_colored_points, weighted_hotspot_points
    from ..exact import colored_maxrs_disk_sweep, maxrs_disk_exact, maxrs_rectangle_exact

    points, weights = weighted_hotspot_points(n, dim=2, extent=10.0, seed=seed)
    colored_points, colors = trajectory_colored_points(20, samples_per_entity=8,
                                                       extent=10.0, seed=seed)
    rect_s, rect = timed(lambda: maxrs_rectangle_exact(points, 2.0, 2.0, weights=weights))
    disk_s, disk = timed(lambda: maxrs_disk_exact(points, radius=1.0, weights=weights))
    approx_s, approx = timed(lambda: max_range_sum_ball(
        points, radius=1.0, epsilon=0.3, weights=weights, seed=seed))
    colored_s, colored = timed(lambda: colored_maxrs_disk_sweep(
        colored_points, radius=1.0, colors=colors))
    rows = [
        {"query": "2x2 rectangle", "method": "exact sweep [IA83, NB95]",
         "value": rect.value, "time_s": _seconds(rect_s)},
        {"query": "unit disk", "method": "exact angular sweep [CL86]",
         "value": disk.value, "time_s": _seconds(disk_s)},
        {"query": "unit disk", "method": "Technique 1 (eps=0.3)",
         "value": approx.value, "time_s": _seconds(approx_s)},
        {"query": "unit disk (colored)", "method": "exact colored sweep",
         "value": colored.value, "time_s": _seconds(colored_s)},
    ]
    checks = [
        CheckResult("approximate disk value within [(1/2 - eps) opt, opt]",
                    (0.5 - 0.3) * disk.value - 1e-9 <= approx.value <= disk.value + 1e-9,
                    "approx %r, exact disk %r" % (approx.value, disk.value)),
        CheckResult("a 2x2 rectangle never covers less weight than a unit disk "
                    "(the disk fits inside the square)", rect.value >= disk.value - 1e-9,
                    "rectangle %r, disk %r" % (rect.value, disk.value)),
    ]
    return rows, checks, {}


@_experiment("E9", "n",
             full={"n": 200, "sample_constants": [0.25, 0.5, 1.0, 2.0],
                   "shift_caps": [1, 2, None], "seed": 9},
             quick={"n": 60, "sample_constants": [0.5, 1.0], "shift_caps": [1, None],
                    "seed": 9})
def e9_ablation(quick, n, sample_constants, shift_caps, seed) -> Outcome:
    """Ablation: per-cell sample size and grid shifts of Technique 1 (Lemmas 3.1-3.4).

    Smaller sample constants and fewer shifts trade the guarantee for speed;
    the rows show the degradation.
    """
    from ..core import max_range_sum_ball
    from ..datasets import uniform_weighted_points
    from ..exact import maxrs_disk_exact

    points, weights = uniform_weighted_points(n, dim=2, extent=6.0, seed=seed)
    opt = maxrs_disk_exact(points, radius=1.0, weights=weights).value
    rows: Rows = []
    knobs = ([("sample_constant", c, {"sample_constant": c}) for c in sample_constants]
             + [("shift_cap", "full" if cap is None else cap, {"shift_cap": cap})
                for cap in shift_caps])
    for knob, setting, kwargs in knobs:
        seconds, approx = timed(lambda: max_range_sum_ball(
            points, radius=1.0, epsilon=0.35, weights=weights, seed=seed, **kwargs))
        rows.append({"knob": knob, "setting": setting, "opt": opt,
                     "approx": approx.value,
                     "ratio": approx.value / opt if opt else 1.0,
                     "time_s": _seconds(seconds)})
    best = max((row["ratio"] for row in rows if row["knob"] == "sample_constant"),
               default=0.0)
    return rows, [
        CheckResult("with the theoretical knobs (largest sample constant, full shifts) "
                    "the (1/2 - eps) guarantee holds", best >= 0.15 - 1e-9,
                    "best sample-constant ratio %.3f; guarantee 0.15" % best),
        _all_rows("every knob setting still places the ball on positive weight", rows,
                  lambda row: row["approx"] > 0),
    ], {}


@_experiment("E10", "instance_sizes",
             full={"instance_sizes": [80, 160, 320], "seed": 10},
             quick={"instance_sizes": [50, 80], "seed": 10})
def e10_crossover(quick, instance_sizes, seed) -> Outcome:
    """Colored disk MaxRS: exact sweep vs Technique 1 vs Technique 2.

    Planted instances (opt grows with n) show who wins where: the sweep's
    n^2 cost, Technique 1's near-linear (1/2-eps) answer, Technique 2's exact
    output-sensitive cost and its (1-eps) color-sampling variant.
    """
    from ..core import (
        colored_maxrs_ball,
        colored_maxrs_disk,
        colored_maxrs_disk_output_sensitive,
    )
    from ..datasets import planted_colored_instance
    from ..exact import colored_maxrs_disk_sweep

    rows: Rows = []
    for n in instance_sizes:
        points, colors, true_opt = planted_colored_instance(
            n, planted_colors=max(4, n // 20), dim=2, background_colors=3,
            seed=seed + n)
        sweep_s, sweep = timed(lambda: colored_maxrs_disk_sweep(
            points, radius=1.0, colors=colors))
        tech1_s, tech1 = timed(lambda: colored_maxrs_ball(
            points, radius=1.0, epsilon=0.3, colors=colors, seed=seed))
        exact_s, tech2_exact = timed(lambda: colored_maxrs_disk_output_sensitive(
            points, radius=1.0, colors=colors))
        eps_s, tech2_eps = timed(lambda: colored_maxrs_disk(
            points, radius=1.0, epsilon=0.25, colors=colors, seed=seed))
        rows.append({"n": n, "opt": true_opt, "sweep_value": sweep.value,
                     "tech1_value": tech1.value, "tech2_exact_value": tech2_exact.value,
                     "tech2_eps_value": tech2_eps.value,
                     "sweep_s": _seconds(sweep_s), "tech1_s": _seconds(tech1_s),
                     "tech2_exact_s": _seconds(exact_s), "tech2_eps_s": _seconds(eps_s)})
    return rows, [_all_rows(
        "every solver meets its guarantee against the exact sweep", rows,
        lambda row: (row["tech1_value"] >= 0.2 * row["sweep_value"] - 1e-9
                     and row["tech2_eps_value"] >= 0.75 * row["sweep_value"] - 1e-9
                     and row["tech2_exact_value"] == row["sweep_value"] == row["opt"]))], {}


# --------------------------------------------------------------------------- #
# E11-E15: baselines, substrates and extensions
# --------------------------------------------------------------------------- #

@_experiment("E11", "sizes",
             full={"sizes": [100, 200, 400], "epsilon": 0.3, "seed": 11},
             quick={"sizes": [60, 120], "epsilon": 0.35, "seed": 1})
def e11_sampling_baselines(quick, sizes, epsilon, seed) -> Outcome:
    """Prior-work baselines vs Technique 1 for disk MaxRS (Section 1.5).

    The point-sampling baseline gives the stronger (1-eps) guarantee but pays
    an exact quadratic solve on the sample; the grid decomposition is exact
    but degrades to the exact sweep on concentrated inputs.
    """
    from ..approx import maxrs_disk_grid_decomposition, maxrs_disk_sampled
    from ..core import max_range_sum_ball
    from ..datasets import clustered_points
    from ..exact import maxrs_disk_exact

    rows: Rows = []
    for n in sizes:
        points = clustered_points(n, dim=2, extent=8.0, clusters=3, seed=seed + n)
        exact_s, exact = timed(lambda: maxrs_disk_exact(points, radius=1.0))
        tech1_s, tech1 = timed(lambda: max_range_sum_ball(
            points, radius=1.0, epsilon=epsilon, seed=seed))
        sampled_s, sampled = timed(lambda: maxrs_disk_sampled(
            points, radius=1.0, epsilon=epsilon, seed=seed))
        grid_s, grid = timed(lambda: maxrs_disk_grid_decomposition(points, radius=1.0))
        rows.append({"n": n, "opt": exact.value, "tech1": tech1.value,
                     "sampled": sampled.value, "grid_decomp": grid.value,
                     "exact_flags": exact.exact and grid.exact,
                     "tech1_s": _seconds(tech1_s), "sampled_s": _seconds(sampled_s),
                     "grid_s": _seconds(grid_s), "exact_s": _seconds(exact_s)})
    return rows, [_all_rows(
        "Technique 1 meets (1/2 - eps), point sampling meets 1/2, and the grid "
        "decomposition is exact", rows,
        lambda row: (row["tech1"] >= (0.5 - epsilon) * row["opt"] - 1e-9
                     and row["sampled"] >= 0.5 * row["opt"] - 1e-9
                     and abs(row["grid_decomp"] - row["opt"]) < 1e-9
                     and row["exact_flags"]))], {}


@_experiment("E12", "sizes",
             full={"sizes": [256, 512, 1024], "block_size": 16, "memory": 128, "seed": 12},
             quick={"sizes": [128, 256], "block_size": 8, "memory": 64, "seed": 2})
def e12_io_model(quick, sizes, block_size, memory, seed) -> Outcome:
    """External MaxRS in the I/O model: sort-based vs nested scan.

    Nested-scan I/O grows quadratically in the number of blocks, while the
    sort-based algorithms stay within a small factor of sort(n).
    """
    import random

    from ..io_model import (
        BlockStorage,
        external_maxrs_interval,
        external_maxrs_interval_nested_scan,
        external_maxrs_rectangle,
        external_merge_sort,
    )

    rng = random.Random(seed)
    rows: Rows = []
    for n in sizes:
        records_1d = [(rng.uniform(0.0, 100.0), rng.uniform(0.5, 2.0)) for _ in range(n)]
        records_2d = [(rng.uniform(0.0, 40.0), rng.uniform(0.0, 40.0), rng.uniform(0.5, 2.0))
                      for _ in range(n)]
        storage = BlockStorage(block_size=block_size, memory_capacity=memory)
        file_1d = storage.file_from_records(records_1d)
        file_2d = storage.file_from_records(records_2d)

        before = storage.stats.snapshot()
        external_merge_sort(file_1d, key=lambda r: r[0])
        sort_ios = storage.stats.delta_since(before).total_ios

        sort_based = external_maxrs_interval(file_1d, length=5.0)
        nested = external_maxrs_interval_nested_scan(file_1d, length=5.0)
        rectangle = external_maxrs_rectangle(file_2d, width=4.0, height=4.0)
        rows.append({"n": n, "blocks": file_1d.block_count, "sort_ios": sort_ios,
                     "scan_based_ios": sort_based.meta["io"].total_ios,
                     "nested_scan_ios": nested.meta["io"].total_ios,
                     "rect_ios": rectangle.meta["io"].total_ios,
                     # Both sum the same record weights in different orders.
                     "values_match": abs(sort_based.value - nested.value) < 1e-6})
    return rows, [_all_rows(
        "sort-based external MaxRS uses fewer block transfers than nested scans "
        "and both agree on the optimum", rows,
        lambda row: row["values_match"] and row["scan_based_ios"] < row["nested_scan_ios"])], {}


@_experiment("E13", "stream_lengths",
             full={"stream_lengths": [100, 200, 400], "epsilon": 0.3, "query_every": 25,
                   "seed": 13},
             quick={"stream_lengths": [40, 80], "epsilon": 0.45, "query_every": 20,
                    "seed": 3})
def e13_streaming_monitor(quick, stream_lengths, epsilon, query_every, seed) -> Outcome:
    """Continuous hotspot monitoring: Theorem 1.1 structure vs exact recomputation.

    The sampling structure's per-update constants are large in pure Python,
    so the exact baseline can be cheaper at these live-set sizes; the shape
    reproduced is that its per-query cost grows with the live set while the
    dynamic per-update cost stays flat.
    """
    from ..datasets import hotspot_monitoring_stream
    from ..streaming import ApproximateMaxRSMonitor, ExactRecomputeMonitor

    rows: Rows = []
    for updates in stream_lengths:
        stream = hotspot_monitoring_stream(updates, dim=2, extent=8.0, seed=seed + updates)
        approx = ApproximateMaxRSMonitor(dim=2, radius=1.0, epsilon=epsilon, seed=seed)
        exact = ExactRecomputeMonitor(radius=1.0)
        approx_s, approx_snaps = timed(lambda: approx.replay(stream, query_every=query_every))
        exact_s, exact_snaps = timed(lambda: exact.replay(stream, query_every=query_every))
        worst_ratio = min([1.0] + [a.value / e.value for a, e in zip(approx_snaps, exact_snaps)
                                   if e.value > 0])
        rows.append({"updates": updates,
                     "approx_ms_per_update": 1000.0 * approx_s / max(1, len(stream)),
                     "exact_ms_per_query": 1000.0 * exact_s / max(1, len(exact_snaps)),
                     "worst_ratio": worst_ratio, "guarantee": 0.5 - epsilon})

    checks = [_meets_guarantee(
        "every reported hotspot is within (1/2 - eps) of the exact optimum",
        rows, ratio="worst_ratio")]
    summary: Dict[str, object] = {}
    exact_growth = _growth([row["exact_ms_per_query"] for row in rows])
    approx_growth = _growth([row["approx_ms_per_update"] for row in rows])
    if exact_growth is not None and approx_growth is not None:
        summary["E13_exact_query_cost_growth"] = round(exact_growth, 3)
        summary["E13_dynamic_update_cost_growth"] = round(approx_growth, 3)
        if not quick:
            checks.append(CheckResult(
                "the exact per-query cost grows faster with the stream length than the "
                "dynamic structure's per-update cost (the Theorem 1.1 shape)",
                exact_growth > approx_growth,
                "exact %.2fx vs dynamic %.2fx" % (exact_growth, approx_growth)))
    return rows, checks, summary


@_experiment("E14", "entity_counts",
             full={"entity_counts": [10, 20, 40], "epsilon": 0.25, "seed": 14},
             quick={"entity_counts": [8, 14], "epsilon": 0.3, "seed": 4})
def e14_colored_boxes(quick, entity_counts, epsilon, seed) -> Outcome:
    """Colored box MaxRS: the Technique 2 extension (Section 7, open problem 1).

    The box analogue of Theorems 4.6 and 1.6, against the [ZGH+22]-style
    exact baseline; the corner argument replaces Lemma 4.3.
    """
    from ..boxes import (
        colored_maxrs_box,
        colored_maxrs_box_arrangement,
        colored_maxrs_box_output_sensitive,
        estimate_colored_opt_box,
    )
    from ..datasets import trajectory_colored_points
    from ..exact import colored_maxrs_rectangle_exact

    rows: Rows = []
    for entities in entity_counts:
        points, colors = trajectory_colored_points(entities, samples_per_entity=8,
                                                   extent=8.0, seed=seed + entities)
        box = {"width": 2.0, "height": 2.0, "colors": colors}
        baseline_s, baseline = timed(lambda: colored_maxrs_rectangle_exact(points, **box))
        arrangement_s, arrangement = timed(lambda: colored_maxrs_box_arrangement(points, **box))
        output_s, output_sensitive = timed(
            lambda: colored_maxrs_box_output_sensitive(points, **box))
        eps_s, approx = timed(lambda: colored_maxrs_box(
            points, epsilon=epsilon, seed=seed, **box))
        rows.append({"entities": entities, "n": len(points), "opt": baseline.value,
                     "arrangement": arrangement.value,
                     "output_sensitive": output_sensitive.value,
                     "eps_value": approx.value,
                     "opt_estimate": estimate_colored_opt_box(points, **box),
                     "baseline_s": _seconds(baseline_s),
                     "arrangement_s": _seconds(arrangement_s),
                     "output_sensitive_s": _seconds(output_s), "eps_s": _seconds(eps_s)})
    return rows, [
        _all_rows("arrangement and output-sensitive solvers match the exact baseline", rows,
                  lambda row: row["arrangement"] == row["opt"] == row["output_sensitive"]),
        _all_rows("color sampling meets the (1 - eps) guarantee", rows,
                  lambda row: row["eps_value"] >= (1.0 - epsilon) * row["opt"] - 1e-9),
        _all_rows("the corner estimator brackets opt within a factor of 4", rows,
                  lambda row: (row["opt"] / 4.0 - 1e-9 <= row["opt_estimate"]
                               <= row["opt"] + 1e-9)),
    ], {}


@_experiment("E15", "sizes",
             full={"sizes": [40, 80, 160], "seed": 15},
             quick={"sizes": [30, 60], "seed": 5})
def e15_boxes_beyond_plane(quick, sizes, seed) -> Outcome:
    """Exact box MaxRS in R^3 and the d >= 3 regime of Theorem 1.2.

    Exact d-ball MaxRS for d >= 3 costs ~n^d, which is why Theorem 1.2's
    dimension-friendly approximation matters in this regime.  The brute force
    cross-checks the z-slab sweep up to 40 points.
    """
    import random

    from ..core import max_range_sum_ball
    from ..datasets import planted_ball_instance
    from ..exact import maxrs_box3d_exact, maxrs_box_bruteforce

    rng = random.Random(seed)
    sides = (1.5, 1.5, 1.5)
    rows: Rows = []
    for n in sizes:
        points = [(rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0))
                  for _ in range(n)]
        sweep_s, sweep = timed(lambda: maxrs_box3d_exact(points, side_lengths=sides))
        brute_s = brute = None
        if n <= 40:
            brute_s, brute = timed(lambda: maxrs_box_bruteforce(points, side_lengths=sides))
        ball_points, ball_opt = planted_ball_instance(n, planted=max(5, n // 8), dim=3,
                                                      seed=seed + n)
        approx = max_range_sum_ball(ball_points, radius=1.0, epsilon=0.4, seed=seed)
        rows.append({"n": n, "box3d_value": sweep.value, "box3d_s": _seconds(sweep_s),
                     "bruteforce_value": None if brute is None else brute.value,
                     "bruteforce_s": None if brute_s is None else _seconds(brute_s),
                     "ball_opt": ball_opt, "ball_approx": approx.value,
                     "ratio": approx.value / ball_opt if ball_opt else 1.0,
                     "guarantee": 0.1})
    return rows, [
        _all_rows("the z-slab sweep matches the brute force where the latter is feasible",
                  rows, lambda row: (row["bruteforce_value"] is None
                                     or abs(row["bruteforce_value"] - row["box3d_value"]) < 1e-9)),
        _meets_guarantee("the d = 3 ball approximation stays within its guarantee on "
                         "planted optima", rows),
    ], {}


# --------------------------------------------------------------------------- #
# the suite
# --------------------------------------------------------------------------- #

def _case_size(value) -> int:
    return int(max(value)) if isinstance(value, (list, tuple)) else int(value)


class PaperSuite(GridSuite):
    """E1-E15: one case per experiment, one check per paper claim."""

    name = "paper"
    description = ("E1-E15: the source paper's claims (Theorems 1.1-1.6 and "
                   "their baselines), each checked on its experiment")

    def defaults(self, quick: bool) -> Dict[str, object]:
        """Every experiment, each with its driver's keyword arguments."""
        config: Dict[str, object] = {"experiments": list(EXPERIMENTS)}
        for experiment_id, experiment in EXPERIMENTS.items():
            config[experiment_id] = dict(experiment.quick if quick else experiment.full)
        return config

    def build(self, config):
        """One case per requested id.  Validates the ids and each id's keyword
        arguments, and completes a partial per-id override with the mode's
        defaults in ``config`` itself, so the artifact records what ran."""
        wanted = config["experiments"]
        if not isinstance(wanted, (list, tuple)):
            raise ValueError("experiments expects a list of ids, e.g. '[\"E1\",\"E11\"]'")
        unknown = [eid for eid in wanted if eid not in EXPERIMENTS]
        if unknown:
            raise ValueError("unknown experiment ids: %s (known: %s)"
                             % (", ".join(map(str, unknown)), ", ".join(EXPERIMENTS)))
        defaults = self.defaults(bool(config.get("quick")))
        cases = []
        for eid in wanted:
            given = config.get(eid, {})
            if not isinstance(given, dict):
                raise ValueError("%s expects a JSON object of keyword arguments" % eid)
            extra = sorted(set(given) - set(defaults[eid]))
            if extra:
                raise ValueError("%s takes no %s (it takes: %s)"
                                 % (eid, ", ".join(extra), ", ".join(defaults[eid])))
            config[eid] = {**defaults[eid], **given}
            size = config[eid][EXPERIMENTS[eid].size_key]
            cases.append(GridCase(self.name, eid, _case_size(size)))
        return cases, {"checks": [], "summary": {}}

    def run_case(self, case, config, context):
        """Run one experiment's driver; its claims join the suite's checks."""
        driver = EXPERIMENTS[case.workload].driver
        seconds, (rows, checks, summary) = timed(
            lambda: driver(bool(config["quick"]), **config[case.workload]))
        for check in checks:
            check.name = "%s: %s" % (case.workload, check.name)
        context["checks"].extend(checks)
        context["summary"].update(summary)
        return CaseResult(case.case_id, case.axes,
                          {"seconds": _seconds(seconds), "rows": rows})

    def finish(self, results, config, context):
        """The collected claims and growth measurements; no gates."""
        return context["checks"], context["summary"], {}
