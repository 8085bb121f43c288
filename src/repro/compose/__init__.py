"""Stream composition: pipelines and filters (paper §4)."""

from repro.compose.filters import SKIP, Filter, identity_filter, make_filter
from repro.compose.pipeline import (
    Pipeline,
    Stage,
    run_per_item,
    run_per_stream,
    run_phased,
    run_vat_phased,
)

__all__ = [
    "Filter",
    "Pipeline",
    "SKIP",
    "Stage",
    "identity_filter",
    "make_filter",
    "run_per_item",
    "run_per_stream",
    "run_phased",
    "run_vat_phased",
]
