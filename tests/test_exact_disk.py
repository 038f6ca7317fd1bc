"""Tests for the exact disk MaxRS angular sweep (Chazelle--Lee style baseline)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.depth import weighted_depth
from repro.exact.bruteforce import (
    circle_circle_intersections,
    maxrs_disk_bruteforce,
)
from repro.exact.disk2d import (
    circle_cover_events,
    maxrs_disk_exact,
    maxrs_disk_exact_segments,
)


class TestCircleCoverEvents:
    def test_far_apart_disks_do_not_interact(self):
        assert circle_cover_events((0.0, 0.0), 1.0, (3.0, 0.0)) is None

    def test_coincident_centers_cover_full_circle(self):
        assert circle_cover_events((0.0, 0.0), 1.0, (0.0, 0.0)) == (0.0, 2 * math.pi)

    def test_half_coverage_at_distance_sqrt2(self):
        """At distance r*sqrt(2) the covered arc has half-width pi/4."""
        cover = circle_cover_events((0.0, 0.0), 1.0, (math.sqrt(2.0), 0.0))
        start, end = cover
        width = (end - start) % (2 * math.pi)
        assert width == pytest.approx(math.pi / 2.0, rel=1e-6)

    def test_covered_point_really_is_covered(self):
        center, radius, other = (0.0, 0.0), 1.0, (1.2, 0.5)
        cover = circle_cover_events(center, radius, other)
        start, end = cover
        mid = (start + ((end - start) % (2 * math.pi)) / 2.0) % (2 * math.pi)
        point = (center[0] + radius * math.cos(mid), center[1] + radius * math.sin(mid))
        assert math.dist(point, other) <= radius + 1e-9


class TestCircleCircleIntersections:
    def test_two_intersections(self):
        points = circle_circle_intersections((0.0, 0.0), (1.0, 0.0), 1.0)
        assert len(points) == 2
        for p in points:
            assert math.dist(p, (0.0, 0.0)) == pytest.approx(1.0)
            assert math.dist(p, (1.0, 0.0)) == pytest.approx(1.0)

    def test_disjoint_circles(self):
        assert circle_circle_intersections((0.0, 0.0), (5.0, 0.0), 1.0) == []

    def test_coincident_circles(self):
        assert circle_circle_intersections((0.0, 0.0), (0.0, 0.0), 1.0) == []


class TestDiskExact:
    def test_empty_input(self):
        assert maxrs_disk_exact([], radius=1.0).is_empty

    def test_single_point(self):
        result = maxrs_disk_exact([(2.0, 2.0)], radius=1.0)
        assert result.value == 1.0
        assert math.dist(result.center, (2.0, 2.0)) <= 1.0 + 1e-9

    def test_two_far_points(self):
        result = maxrs_disk_exact([(0.0, 0.0), (10.0, 0.0)], radius=1.0)
        assert result.value == 1.0

    def test_two_coverable_points(self):
        result = maxrs_disk_exact([(0.0, 0.0), (1.5, 0.0)], radius=1.0)
        assert result.value == 2.0
        assert weighted_depth(result.center, [(0.0, 0.0), (1.5, 0.0)], [1.0, 1.0], 1.0) == 2.0

    def test_three_point_cluster(self):
        points = [(0.0, 0.0), (1.0, 0.0), (0.5, 0.8), (9.0, 9.0)]
        result = maxrs_disk_exact(points, radius=1.0)
        assert result.value == 3.0

    def test_weighted(self):
        points = [(0.0, 0.0), (0.5, 0.0), (10.0, 0.0)]
        weights = [1.0, 2.0, 5.0]
        result = maxrs_disk_exact(points, radius=1.0, weights=weights)
        assert result.value == 5.0

    def test_duplicate_points(self):
        points = [(1.0, 1.0)] * 4
        result = maxrs_disk_exact(points, radius=0.5)
        assert result.value == 4.0

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_segments_answer_alone_and_validate_offsets(self, backend):
        points = [(0.0, 0.0), (0.5, 0.0), (0.0, 0.0), (9.0, 9.0)]
        results = maxrs_disk_exact_segments(points, 1.0, offsets=[0, 2, 2, 4],
                                            backend=backend)
        assert [r.value for r in results] == [2.0, 0.0, 1.0]
        assert [r.meta["n"] for r in results] == [2, 0, 2]
        assert results[1].center is None
        for bad in ([0, 3], [1, 4], [0, 3, 2, 4], []):
            with pytest.raises(ValueError, match="offsets"):
                maxrs_disk_exact_segments(points, 1.0, offsets=bad,
                                          backend=backend)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            maxrs_disk_exact([(0.0, 0.0)], radius=0.0)
        with pytest.raises(ValueError):
            maxrs_disk_exact([(0.0, 0.0)], radius=1.0, weights=[-2.0])
        with pytest.raises(ValueError):
            maxrs_disk_exact([(0.0, 0.0, 0.0)], radius=1.0)

    def test_radius_scaling(self):
        points = [(0.0, 0.0), (3.0, 0.0), (6.0, 0.0)]
        assert maxrs_disk_exact(points, radius=1.0).value == 1.0
        assert maxrs_disk_exact(points, radius=3.0).value == 3.0

    def test_reported_center_achieves_value(self):
        points = [(0.0, 0.0), (0.3, 1.1), (1.4, 0.2), (2.0, 2.0), (2.2, 1.9), (8.0, 8.0)]
        weights = [1.0, 2.0, 1.0, 3.0, 1.0, 4.0]
        result = maxrs_disk_exact(points, radius=1.0, weights=weights)
        achieved = weighted_depth(result.center, points, weights, 1.0)
        assert achieved == pytest.approx(result.value)

    @given(
        st.lists(
            st.tuples(st.integers(-8, 8), st.integers(-8, 8), st.integers(1, 4)),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_sweep_matches_candidate_bruteforce(self, rows):
        """Property: angular sweep equals the independent candidate-center oracle.

        Coordinates live on a half-integer grid scaled by 0.7 so that exact
        tangencies (distance exactly 2r) are rare while coincident points are
        still exercised.
        """
        points = [(0.7 * x, 0.7 * y) for x, y, _ in rows]
        weights = [float(w) for _, _, w in rows]
        sweep = maxrs_disk_exact(points, radius=1.0, weights=weights).value
        brute = maxrs_disk_bruteforce(points, radius=1.0, weights=weights)
        assert sweep == pytest.approx(brute)
