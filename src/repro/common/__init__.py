"""Shared infrastructure: tiling math, seeding, counters, table rendering."""

from repro.common.mathutil import (
    ceil_div,
    clamp,
    is_power_of_two,
    log2_int,
    prod,
    round_up,
    split_range,
    tile_spans,
)
from repro.common.seeding import derive_seed
from repro.common.stats import CounterBag
from repro.common.tables import format_quantity, render_table

__all__ = [
    "CounterBag",
    "ceil_div",
    "clamp",
    "derive_seed",
    "format_quantity",
    "is_power_of_two",
    "log2_int",
    "prod",
    "render_table",
    "round_up",
    "split_range",
    "tile_spans",
]
