"""Differential test harness for the kernel backends (repro.kernels).

Every (solver x backend) pair runs on the four workload families the
experiments use -- uniform, clustered, hotspot and planted-optimum -- and the
backends must agree:

* **equal objective values** -- bit-identical whenever the weight arithmetic
  is exact (unweighted / integer-weight instances, and every colored solver,
  whose objective is an integer count); within floating-point reassociation
  noise (rel. 1e-9) for real-valued weights, since the NumPy kernels may sum
  the same terms in a different order;
* **valid argmax locations** -- every reported placement is re-scored by an
  independent oracle and must achieve the reported value.  Backends may
  report *different* optimal placements (ties broken differently); they may
  not report a location that does not attain the optimum.

This is the cheapest correctness oracle the library has: any randomized
dataset pushed through both backends is a regression test, because the
pure-Python backend is the paper-faithful reference implementation.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import kernels
from repro.core import max_range_sum_ball, weighted_depth
from repro.core.technique2 import colored_maxrs_disk_output_sensitive
from repro.datasets import (
    clustered_points,
    planted_ball_instance,
    planted_colored_instance,
    uniform_weighted_points,
    weighted_hotspot_points,
)
from repro.exact import (
    maxrs_disk_exact,
    maxrs_interval_exact,
    maxrs_rectangle_exact,
)

BACKENDS = ("python", "numpy")

REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-9)


# --------------------------------------------------------------------------- #
# datasets: (points, weights, exact_arithmetic)
# --------------------------------------------------------------------------- #

def _dataset(name: str):
    """Build one named workload; integer weights make float sums exact."""
    if name == "uniform":
        points, weights = uniform_weighted_points(400, dim=2, extent=14.0, seed=41)
        return points, weights, False
    if name == "clustered":
        points = clustered_points(400, dim=2, extent=14.0, clusters=4, seed=43)
        return points, [1.0] * len(points), True
    if name == "hotspot":
        points, weights = weighted_hotspot_points(400, dim=2, extent=14.0, seed=47)
        return points, weights, False
    if name == "planted":
        points, opt = planted_ball_instance(300, planted=18, dim=2, radius=1.0, seed=53)
        return points, [1.0] * len(points), True
    raise AssertionError(name)


DATASETS = ("uniform", "clustered", "hotspot", "planted")


# --------------------------------------------------------------------------- #
# re-scoring oracles (independent of both backends)
# --------------------------------------------------------------------------- #

def _score_interval(left, length, xs, ws):
    return sum(w for x, w in zip(xs, ws) if left - 1e-9 <= x <= left + length + 1e-9)


def _score_rectangle(corner, width, height, points, ws):
    a, b = corner
    return sum(
        w for (x, y), w in zip(points, ws)
        if a - 1e-9 <= x <= a + width + 1e-9 and b - 1e-9 <= y <= b + height + 1e-9
    )


# --------------------------------------------------------------------------- #
# the differential harness
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("dataset", DATASETS)
class TestSolverConformance:
    def test_interval(self, dataset):
        points, ws, exact_arith = _dataset(dataset)
        xs = [p[0] for p in points]
        length = 1.5
        results = {
            backend: maxrs_interval_exact(xs, length, weights=ws, backend=backend)
            for backend in BACKENDS
        }
        reference = results["python"]
        for backend, result in results.items():
            if exact_arith:
                assert result.value == reference.value, backend
            else:
                assert _close(result.value, reference.value), backend
            score = _score_interval(result.center[0], length, xs, ws)
            assert _close(score, result.value), (
                "%s reported a left endpoint scoring %r, not %r"
                % (backend, score, result.value)
            )

    def test_rectangle(self, dataset):
        points, ws, exact_arith = _dataset(dataset)
        width, height = 2.0, 1.5
        results = {
            backend: maxrs_rectangle_exact(points, width, height, weights=ws,
                                           backend=backend)
            for backend in BACKENDS
        }
        reference = results["python"]
        for backend, result in results.items():
            if exact_arith:
                assert result.value == reference.value, backend
            else:
                assert _close(result.value, reference.value), backend
            score = _score_rectangle(result.center, width, height, points, ws)
            assert _close(score, result.value), (
                "%s reported a corner scoring %r, not %r"
                % (backend, score, result.value)
            )

    def test_disk(self, dataset):
        points, ws, exact_arith = _dataset(dataset)
        results = {
            backend: maxrs_disk_exact(points, radius=1.0, weights=ws, backend=backend)
            for backend in BACKENDS
        }
        reference = results["python"]
        for backend, result in results.items():
            if exact_arith:
                assert result.value == reference.value, backend
            else:
                assert _close(result.value, reference.value), backend
            score = weighted_depth(result.center, points, ws, radius=1.0)
            assert _close(score, result.value), (
                "%s reported a center scoring %r, not %r"
                % (backend, score, result.value)
            )

    def test_technique1_ball(self, dataset):
        """Same seed => same samples; only the depth kernel differs.

        On exact-arithmetic instances the two backends must therefore land on
        identical values; the reported value counts only the balls of the
        winning cell, so the full-input depth of the placement bounds it from
        above.  (A slice of the dataset keeps the pure-Python probe loop --
        the reference under test, not a production path -- affordable.)
        """
        points, ws, exact_arith = _dataset(dataset)
        points, ws = points[:200], ws[:200]
        results = {
            backend: max_range_sum_ball(points, radius=1.0, epsilon=0.35, weights=ws,
                                        seed=97, backend=backend)
            for backend in BACKENDS
        }
        reference = results["python"]
        for backend, result in results.items():
            if exact_arith:
                assert result.value == reference.value, backend
            else:
                assert _close(result.value, reference.value), backend
            score = weighted_depth(result.center, points, ws, radius=1.0)
            assert score >= result.value - 1e-9


def test_planted_disk_optimum_found_by_both_backends():
    """The planted instance's optimum is known by construction: both kernel
    backends must find exactly that value."""
    points, opt = planted_ball_instance(300, planted=18, dim=2, radius=1.0, seed=53)
    for backend in BACKENDS:
        result = maxrs_disk_exact(points, radius=1.0, backend=backend)
        assert result.value == float(opt), backend


def test_colored_output_sensitive_conformance():
    """Colored depth is an integer count: backends must agree exactly."""
    points, colors, opt = planted_colored_instance(
        220, planted_colors=9, dim=2, background_colors=3, seed=59)
    values = {
        backend: colored_maxrs_disk_output_sensitive(
            points, radius=1.0, colors=colors, backend=backend).value
        for backend in BACKENDS
    }
    assert values["python"] == values["numpy"] == opt


# --------------------------------------------------------------------------- #
# raw kernel conformance (no solver wrapper in the way)
# --------------------------------------------------------------------------- #

def test_disk_neighbor_candidates_agree():
    points = clustered_points(250, dim=2, extent=8.0, clusters=3, seed=61)
    py = kernels.get_backend("python").disk_neighbor_candidates(points, 1.0)
    np_ = kernels.get_backend("numpy").disk_neighbor_candidates(points, 1.0)
    assert len(py) == len(np_) == len(points)
    for reference, vectorised in zip(py, np_):
        assert list(reference) == [int(j) for j in vectorised]


def test_disk_pairs_do_not_depend_on_the_cell_join(monkeypatch):
    """Segments small enough to pair directly yield the same pairs, with
    the same offsets, as the cell join finds for them."""
    numpy_backend = kernels.get_backend("numpy")
    points = clustered_points(150, dim=2, extent=4.0, clusters=3, seed=67)
    pts = np.asarray(points + points[:30], dtype=float)
    sizes = np.array([40, 1, 60, 49, 30])  # the last repeats the first's points

    def pairs():
        pivot, other, dx, dy, dist = numpy_backend._disk_interaction_pairs(
            pts, 0.5, sizes)
        order = np.lexsort((other, pivot))
        return [column[order] for column in (pivot, other, dx, dy, dist)]

    assert sizes.max() <= numpy_backend._DENSE_SEGMENT_POINTS
    direct = pairs()
    monkeypatch.setattr(numpy_backend, "_DENSE_SEGMENT_POINTS", 0)
    joined = pairs()
    assert len(direct[0]) > len(pts)
    for mine, theirs in zip(direct, joined):
        assert np.array_equal(mine, theirs)
    segment = np.arange(sizes.size).repeat(sizes)
    assert np.array_equal(segment[direct[0]], segment[direct[1]])


def _segment_case(name):
    """One segmented-sweep input: ``(segments, exact_arithmetic, pair
    budget)``, each segment a ``(points, weights)`` pair; a budget replaces
    the NumPy sweep's block size (``None`` keeps the default)."""
    if name in DATASETS:
        points, ws, exact_arith = _dataset(name)
        cut = len(points) // 3
        # an empty segment, and a last one repeating the first's points
        return ([(points[:cut], ws[:cut]), ([], []), (points[cut:], ws[cut:]),
                 (points[:40], ws[:40])], exact_arith, None)
    if name == "identical":
        points = clustered_points(60, dim=2, extent=3.0, clusters=2, seed=5)
        return [(points, [1.0] * 60), (points, [2.0] * 60)], True, None
    if name == "degenerate":
        # a one-point segment, and concentric duplicates beside a neighbour
        return ([([(0.0, 0.0)], [3.0]),
                 ([(1.0, 1.0)] * 3 + [(1.5, 1.0)], [1.0, 2.0, 1.0, 1.0]),
                 ([], [])], True, None)
    if name == "pruned":
        points, ws, exact_arith = _dataset("clustered")
        return ([(points[:150], ws[:150]), (points[150:], ws[150:])],
                exact_arith, 16)
    raise AssertionError(name)


@pytest.mark.parametrize("case", DATASETS + ("identical", "degenerate", "pruned"))
def test_disk_sweep_segments_agree(case, monkeypatch):
    """Every segment answers alone: backends agree per segment, and each
    reported center re-scores within its own segment."""
    numpy_backend = kernels.get_backend("numpy")
    segments, exact_arith, budget = _segment_case(case)
    blocks = []
    if budget is not None:
        monkeypatch.setattr(numpy_backend, "_DISK_BLOCK_PAIRS", budget)
        sweep_block = numpy_backend._sweep_block
        monkeypatch.setattr(numpy_backend, "_sweep_block",
                            lambda *args: blocks.append(None) or sweep_block(*args))
    coords = [p for points, _ in segments for p in points]
    weights = [w for _, ws in segments for w in ws]
    offsets = [0]
    for points, _ in segments:
        offsets.append(offsets[-1] + len(points))
    answers = {backend: kernels.get_backend(backend).disk_sweep_segments(
        coords, weights, 1.0, offsets) for backend in BACKENDS}
    for backend, per_segment in answers.items():
        assert len(per_segment) == len(segments), backend
        for (value, center), (reference, _), (points, ws) in zip(
                per_segment, answers["python"], segments):
            if exact_arith:
                assert value == reference, backend
            else:
                assert _close(value, reference), backend
            if not points:
                assert (value, center) == (0.0, None), backend
                continue
            score = weighted_depth(center, points, ws, radius=1.0)
            assert _close(score, value), (
                "%s reported a center scoring %r, not %r" % (backend, score, value))
    if case == "identical":
        # same coordinates, double the weights: no segment saw the other's
        single, double = (value for value, _ in answers["numpy"])
        assert double == 2 * single
    if budget is not None:
        assert len(blocks) > 2  # the budget split the pivots into blocks


@pytest.mark.parametrize("dataset", ["uniform", "hotspot"])
def test_numpy_disk_sweep_is_shard_stable(dataset):
    """Real weights: the points within a halo of the optimal disk, kept in
    order (as a halo shard keeps them), reproduce the whole input's answer
    bit for bit, though its pivots lose candidates farther out."""
    sweep = kernels.get_backend("numpy").disk_sweep
    points, ws, _ = _dataset(dataset)
    value, center = sweep(points, ws, 1.0)
    near = [i for i, p in enumerate(points) if math.dist(p, center) <= 1.25]
    assert len(near) < len(points)
    assert sweep([points[i] for i in near], [ws[i] for i in near], 1.0) == (
        value, center)


def _schedule_case(name):
    """One small rectangle-sweep input, ``(points, weights)``, for a
    1.5 x 1.0 rectangle."""
    rng = np.random.default_rng(83)
    if name == "uniform":
        return uniform_weighted_points(60, dim=2, extent=6.0, seed=83)
    if name == "clustered":
        points = clustered_points(80, dim=2, extent=6.0, clusters=3, seed=89)
        return points, [float(w) for w in rng.integers(1, 4, size=80)]
    if name == "half-grid":
        # coordinates on a half-unit grid: ties everywhere
        points = [(0.5 * x, 0.5 * y) for x, y in rng.integers(0, 8, size=(70, 2))]
        return points, [float(w) for w in rng.integers(0, 3, size=70)]
    if name == "spread":
        # one column holds all 40 points, a rectangle only one: the chunk
        # rule asks for less than one event
        return [(3.0 * i, 0.01 * i) for i in range(40)], [1.0] * 40
    if name == "blob":
        # one rectangle holds every point, the first the highest (so the
        # first point's column holds them all too): the rule asks for 20
        return [(0.02 * i, 0.4 - 0.01 * i) for i in range(40)], [1.0] * 40
    if name == "zero":
        points, _ = uniform_weighted_points(40, dim=2, extent=4.0, seed=97)
        return points, [0.0] * 40
    raise AssertionError(name)


@pytest.mark.parametrize("warm", [0, 1])
@pytest.mark.parametrize("case", ["uniform", "clustered", "half-grid", "spread",
                                  "blob", "zero"])
def test_rectangle_sweep_schedule_conformance(case, warm, monkeypatch):
    """The NumPy rectangle sweep with its schedule shrunk to chunks of 2-5
    events and 0-1 warm-start columns: many chunks, the chunk rule clamped
    at the floor (``spread``) and at the cap (``blob``), and the cap alone
    when the incumbent and insertion mass are 0 (``zero``).  The answer
    agrees with the Python reference, re-scores to its value, and is the
    default schedule's answer bit for bit."""
    numpy_backend = kernels.get_backend("numpy")
    points, ws = _schedule_case(case)
    width, height = 1.5, 1.0
    default = numpy_backend.rectangle_sweep(points, ws, width, height)
    chunk_rule = numpy_backend._rectangle_chunk
    chunks = []
    monkeypatch.setattr(numpy_backend, "_RECT_WARM", warm)
    monkeypatch.setattr(numpy_backend, "_RECT_MIN_CHUNK", 2)
    monkeypatch.setattr(numpy_backend, "_RECT_CHUNK", 5)
    monkeypatch.setattr(numpy_backend, "_rectangle_chunk",
                        lambda *args: chunks.append((args, chunk_rule(*args)))
                        or chunks[-1][1])
    value, corner = numpy_backend.rectangle_sweep(points, ws, width, height)
    reference, _ = kernels.get_backend("python").rectangle_sweep(
        points, ws, width, height)

    (n_events, best, peak), chunk = chunks[0]
    assert n_events // chunk >= 16
    expected = {"spread": 2, "blob": 5, "zero": 5}
    assert chunk == expected.get(case, chunk) and 2 <= chunk <= 5
    if case == "zero":
        assert best == peak == 0.0
    else:
        assert best > 0.0 and peak > 0.0
    if all(w == int(w) for w in ws):
        assert value == reference
    else:
        assert _close(value, reference)
    score = _score_rectangle(corner, width, height, points, ws)
    assert _close(score, value)
    assert (value, corner) == default


@pytest.mark.parametrize("n, seed, width, height", [(1000, 12, 0.6, 2.5),
                                                    (4000, 6, 1.5, 1.2)])
def test_numpy_rectangle_answer_does_not_depend_on_the_schedule(
        n, seed, width, height, monkeypatch):
    """Real weights: the warm start, the chunk sizes and the incumbent
    change which placements the sweep replays, not its answer (value and
    corner, bit for bit).  On these inputs, reporting the winning column's
    running sum gives a different answer under each of these schedules."""
    numpy_backend = kernels.get_backend("numpy")
    points = clustered_points(n, dim=2, extent=12.0, clusters=4, seed=seed)
    ws = np.random.default_rng(seed).uniform(0.5, 2.0, n)
    answers = set()
    for warm, floor, cap, share in ((32, 64, 64, 0.25), (8, 256, 1024, 1.0),
                                    (1, 16, 1024, 0.05)):
        monkeypatch.setattr(numpy_backend, "_RECT_WARM", warm)
        monkeypatch.setattr(numpy_backend, "_RECT_MIN_CHUNK", floor)
        monkeypatch.setattr(numpy_backend, "_RECT_CHUNK", cap)
        monkeypatch.setattr(numpy_backend, "_RECT_SHARE", share)
        answers.add(numpy_backend.rectangle_sweep(points, ws, width, height))
    assert len(answers) == 1


def test_probe_depths_agree():
    points, ws = uniform_weighted_points(150, dim=2, extent=6.0, seed=67)
    probes = [(x + 0.25, y - 0.25) for x, y in points[:40]]
    py = kernels.get_backend("python").probe_depths(probes, points, ws, 1.0)
    np_ = kernels.get_backend("numpy").probe_depths(probes, points, ws, 1.0)
    for a, b in zip(py, np_):
        assert _close(float(a), float(b))


def test_colored_depth_batch_agree():
    points, colors, _ = planted_colored_instance(
        160, planted_colors=7, dim=2, background_colors=4, seed=71)
    probes = [points[i] for i in range(0, len(points), 7)]
    py = kernels.get_backend("python").colored_depth_batch(probes, points, colors, 1.0)
    np_ = kernels.get_backend("numpy").colored_depth_batch(probes, points, colors, 1.0)
    assert [int(v) for v in py] == [int(v) for v in np_]


# --------------------------------------------------------------------------- #
# registry behaviour
# --------------------------------------------------------------------------- #

class TestRegistry:
    def test_available_backends(self):
        names = kernels.available_backends()
        assert "python" in names and "numpy" in names

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            maxrs_interval_exact([0.0, 1.0], 1.0, backend="fortran")

    def test_auto_threshold(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert kernels.resolve_backend("auto", kernels.AUTO_THRESHOLD - 1) == "python"
        assert kernels.resolve_backend("auto", kernels.AUTO_THRESHOLD) == "numpy"
        # batched depth evaluation vectorises at any size
        assert kernels.resolve_backend("auto", 1, "probe_depths") == "numpy"

    def test_disk_sweep_threshold_reaches_engine_tasks(self, monkeypatch):
        from repro.engine import Query
        from repro.engine.planner import _array_inputs

        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        disk = kernels.KERNEL_AUTO_THRESHOLDS["disk_sweep"]
        assert disk < kernels.AUTO_THRESHOLD
        assert kernels.resolve_backend("auto", disk - 1, "disk_sweep") == "python"
        assert kernels.resolve_backend("auto", disk, "disk_sweep") == "numpy"
        assert Query.disk(1.0).sweep_kernel == "disk_sweep"
        assert Query.topk_disk(1.0, 2).sweep_kernel == "disk_sweep"
        assert Query.rectangle(1.0, 1.0).sweep_kernel == "rectangle_sweep"
        assert Query.topk_rectangle(1.0, 1.0, 2).sweep_kernel == "rectangle_sweep"
        assert Query.interval(1.0).sweep_kernel == "interval_sweep"
        assert Query.colored_rectangle(1.0, 1.0).sweep_kernel is None
        assert Query.colored_disk(1.0).sweep_kernel is None
        assert _array_inputs(Query.disk(1.0), disk)
        assert not _array_inputs(Query.rectangle(1.0, 1.0), disk)

    def test_environment_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert kernels.resolve_backend("auto", 1) == "numpy"
        # explicit requests beat the environment
        assert kernels.resolve_backend("python", 10**9) == "python"
        monkeypatch.setenv("REPRO_BACKEND", "no-such-backend")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.resolve_backend("auto", 1)

    def test_partial_backend_falls_back_to_python(self):
        class OnlyInterval:
            interval_sweep = staticmethod(
                kernels.get_backend("numpy").interval_sweep)

        kernels.register_backend("only-interval", OnlyInterval)
        try:
            result = maxrs_interval_exact([0.0, 0.5, 3.0], 1.0, backend="only-interval")
            assert result.value == 2.0
            # rectangle_sweep is missing: get_kernel silently falls back
            fallback = kernels.get_kernel("only-interval", "rectangle_sweep")
            assert fallback is kernels.get_backend("python").rectangle_sweep
        finally:
            kernels._REGISTRY.pop("only-interval", None)

    def test_reserved_names_rejected(self):
        with pytest.raises(ValueError):
            kernels.register_backend("auto", object())
        with pytest.raises(ValueError):
            kernels.register_backend("", object())


class TestResolveBatchBackend:
    """Per-micro-batch backend resolution (the serving layer's hook)."""

    def test_batch_amortisation_lowers_the_auto_threshold(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        n = kernels.AUTO_THRESHOLD // 4
        assert kernels.resolve_batch_backend("auto", n, batch_size=1) == "python"
        assert kernels.resolve_batch_backend("auto", n, batch_size=8) == "numpy"
        # a single-call batch behaves exactly like resolve_backend
        assert (kernels.resolve_batch_backend("auto", 2 * kernels.AUTO_THRESHOLD)
                == kernels.resolve_backend("auto", 2 * kernels.AUTO_THRESHOLD))

    def test_explicit_backend_passes_through_validated(self):
        assert kernels.resolve_batch_backend("python", 10, batch_size=100) == "python"
        with pytest.raises(ValueError):
            kernels.resolve_batch_backend("no-such-backend", 10)
        with pytest.raises(ValueError):
            kernels.resolve_batch_backend("auto", 10, batch_size=0)

    def test_environment_override_wins_for_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "python")
        assert kernels.resolve_batch_backend("auto", 10_000, batch_size=64) == "python"
