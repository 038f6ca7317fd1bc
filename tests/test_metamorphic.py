"""Metamorphic properties of the solvers, checked on both kernel backends.

A metamorphic test transforms the *input* in a way whose effect on the
*output* is known exactly, then asserts the relation -- no oracle needed:

* permuting the points must not change the optimum (the sweeps order events
  themselves);
* rigid translation must not change the optimum and must translate the
  reported placement's score along;
* uniform scaling of coordinates *and* query extent must not change the
  optimum (coverage is scale-invariant);
* scaling all weights by ``c`` must scale the optimum by ``c``.

The executor-determinism tests pin down the seeded-randomness contract of
the sharded engine: with a fixed dataset and seeded queries, the ``serial``
and ``shared-process`` executors run the exact same per-shard computations
(the latter in worker processes) and must return identical values.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.datasets import clustered_points, uniform_weighted_points
from repro.engine import Query, QueryEngine
from repro.exact import (
    maxrs_disk_exact,
    maxrs_interval_exact,
    maxrs_rectangle_exact,
)

BACKENDS = ("python", "numpy")


def _cloud(seed=211, n=260):
    return uniform_weighted_points(n, dim=2, extent=10.0, seed=seed)


def _assert_close(a, b, context):
    assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9), (context, a, b)


@pytest.mark.parametrize("backend", BACKENDS)
class TestMetamorphic:
    def test_permutation_invariance(self, backend):
        points, ws = _cloud()
        order = list(range(len(points)))
        random.Random(5).shuffle(order)
        shuffled = [points[i] for i in order]
        shuffled_ws = [ws[i] for i in order]

        for solve in (
            lambda p, w: maxrs_rectangle_exact(p, 1.5, 1.5, weights=w, backend=backend).value,
            lambda p, w: maxrs_disk_exact(p, radius=1.0, weights=w, backend=backend).value,
            lambda p, w: maxrs_interval_exact([q[0] for q in p], 1.5, weights=w,
                                              backend=backend).value,
        ):
            _assert_close(solve(points, ws), solve(shuffled, shuffled_ws),
                          "permutation changed the optimum")

    def test_translation_invariance(self, backend):
        points, ws = _cloud(seed=223)
        shift = (13.75, -6.5)
        moved = [(x + shift[0], y + shift[1]) for x, y in points]

        value = maxrs_rectangle_exact(points, 1.5, 1.5, weights=ws, backend=backend).value
        moved_value = maxrs_rectangle_exact(moved, 1.5, 1.5, weights=ws,
                                            backend=backend).value
        _assert_close(value, moved_value, "translation changed the rectangle optimum")

        value = maxrs_disk_exact(points, radius=1.0, weights=ws, backend=backend).value
        moved_value = maxrs_disk_exact(moved, radius=1.0, weights=ws,
                                       backend=backend).value
        _assert_close(value, moved_value, "translation changed the disk optimum")

    def test_uniform_scaling_invariance(self, backend):
        points, ws = _cloud(seed=227)
        factor = 3.5
        scaled = [(x * factor, y * factor) for x, y in points]

        value = maxrs_rectangle_exact(points, 1.5, 2.0, weights=ws, backend=backend).value
        scaled_value = maxrs_rectangle_exact(scaled, 1.5 * factor, 2.0 * factor,
                                             weights=ws, backend=backend).value
        _assert_close(value, scaled_value, "scaling changed the rectangle optimum")

        value = maxrs_disk_exact(points, radius=1.0, weights=ws, backend=backend).value
        scaled_value = maxrs_disk_exact(scaled, radius=factor, weights=ws,
                                        backend=backend).value
        _assert_close(value, scaled_value, "scaling changed the disk optimum")

        xs = [p[0] for p in points]
        value = maxrs_interval_exact(xs, 1.5, weights=ws, backend=backend).value
        scaled_value = maxrs_interval_exact([x * factor for x in xs], 1.5 * factor,
                                            weights=ws, backend=backend).value
        _assert_close(value, scaled_value, "scaling changed the interval optimum")

    def test_weight_scaling_linearity(self, backend):
        points, ws = _cloud(seed=229)
        factor = 4.0
        heavy = [w * factor for w in ws]

        value = maxrs_rectangle_exact(points, 1.5, 1.5, weights=ws, backend=backend).value
        heavy_value = maxrs_rectangle_exact(points, 1.5, 1.5, weights=heavy,
                                            backend=backend).value
        _assert_close(value * factor, heavy_value, "rectangle optimum is not linear in weights")

        value = maxrs_disk_exact(points, radius=1.0, weights=ws, backend=backend).value
        heavy_value = maxrs_disk_exact(points, radius=1.0, weights=heavy,
                                       backend=backend).value
        _assert_close(value * factor, heavy_value, "disk optimum is not linear in weights")


class TestExecutorDeterminism:
    """Seeded RNG determinism across the engine's executors."""

    @pytest.fixture(scope="class")
    def cloud(self):
        return clustered_points(260, dim=2, extent=12.0, clusters=4, seed=233)

    QUERIES = [
        Query.disk(1.0),
        Query.rectangle(1.5, 1.5),
        Query.disk_approx(1.0, epsilon=0.4, seed=7),
        Query.disk(1.0, backend="numpy"),
    ]

    def test_executors_agree(self, cloud):
        """Every executor -- and a repeated serial run with a fresh engine --
        must produce identical values for seeded queries."""
        values = {}
        for label, executor in (("serial", "serial"), ("serial-again", "serial"),
                                ("shared-process", "shared-process")):
            with QueryEngine(cloud, executor=executor, workers=2) as engine:
                values[label] = [engine.solve(q).value for q in self.QUERIES]
        reference = values["serial"]
        assert all(run == reference for run in values.values()), values

    def test_backends_agree_through_engine(self, cloud):
        """Explicit python/numpy backends must agree on every engine query
        (unweighted input => integer arithmetic => exact equality)."""
        with QueryEngine(cloud, executor="serial") as engine:
            py = engine.solve(Query.disk(1.0, backend="python")).value
            np_ = engine.solve(Query.disk(1.0, backend="numpy")).value
            assert py == np_
            py = engine.solve(Query.rectangle(1.5, 1.5, backend="python")).value
            np_ = engine.solve(Query.rectangle(1.5, 1.5, backend="numpy")).value
            assert py == np_
