"""Synthetic workload generators.

The paper motivates MaxRS with spatial-database workloads -- hotspot
detection over infection or customer locations, wildlife-trajectory
monitoring, facility analysis -- but evaluates nothing empirically (it is a
theory paper).  The generators here synthesise those motivating workloads so
that every theorem can be validated on data with the structure the paper has
in mind (see DESIGN.md, experiments E1-E10):

* :mod:`repro.datasets.generators` -- uniform and Gaussian-hotspot point
  clouds, optionally weighted;
* :mod:`repro.datasets.planted` -- instances whose exact optimum is known by
  construction (the validation oracle for dimensions where no exact algorithm
  is practical);
* :mod:`repro.datasets.trajectories` -- colored points sampled from random
  walks, one color per entity (the wildlife-monitoring scenario of Section 1.3);
* :mod:`repro.datasets.streams` -- insert/delete update streams (the COVID
  hotspot-monitoring scenario of Section 1.1);
* :mod:`repro.datasets.requests` -- :class:`ServiceRequest`, the one
  request type of the serving stack, and synthetic request traces (plain
  lists of requests) with their JSONL persistence.
"""

from .generators import (
    clustered_points,
    uniform_points,
    uniform_weighted_points,
    weighted_hotspot_points,
)
from .planted import planted_ball_instance, planted_colored_instance
from .streams import (
    UpdateEvent,
    UpdateStream,
    adversarial_churn_stream,
    burst_stream,
    drift_stream,
    hotspot_monitoring_stream,
    sliding_window_stream,
)
from .requests import (
    ServiceRequest,
    default_query_catalog,
    load_trace,
    request_from_dict,
    request_to_dict,
    request_trace,
    save_trace,
    trace_counts,
)
from .trajectories import trajectory_colored_points
from .io import PointTable, read_points_csv, write_points_csv

__all__ = [
    "uniform_points",
    "uniform_weighted_points",
    "clustered_points",
    "weighted_hotspot_points",
    "planted_ball_instance",
    "planted_colored_instance",
    "trajectory_colored_points",
    "UpdateEvent",
    "UpdateStream",
    "hotspot_monitoring_stream",
    "sliding_window_stream",
    "drift_stream",
    "burst_stream",
    "adversarial_churn_stream",
    "ServiceRequest",
    "default_query_catalog",
    "request_trace",
    "trace_counts",
    "request_to_dict",
    "request_from_dict",
    "save_trace",
    "load_trace",
    "PointTable",
    "read_points_csv",
    "write_points_csv",
]
