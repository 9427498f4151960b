"""Systolic-array dataflows: fill/stream/drain cost and feed/drain schedules.

``analyze_dataflow_cost`` is what the SMA controller charges. Its oracle, a
cycle-stepped array that computes real products, lives with the tests
(``tests/systolic/reference_array.py``); nothing in production runs it.
"""

from repro.systolic.dataflow import (
    Dataflow,
    DataflowCost,
    DataflowTraits,
    analyze_dataflow_cost,
    traits_of,
)
from repro.systolic.feeders import (
    diagonal_a_coords,
    output_coords_semi_broadcast,
    output_coords_weight_stationary,
)

__all__ = [
    "Dataflow",
    "DataflowCost",
    "DataflowTraits",
    "analyze_dataflow_cost",
    "diagonal_a_coords",
    "output_coords_semi_broadcast",
    "output_coords_weight_stationary",
    "traits_of",
]
