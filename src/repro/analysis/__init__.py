"""Verification and statistics for decompositions and labelings."""

from repro.analysis.stats import (
    DecompositionStats,
    component_histogram,
    decomposition_stats,
    edge_decay_ratios,
    partition_radii,
)
from repro.analysis.verify import (
    certificate_holds,
    ground_truth_labels,
    labelings_equivalent,
    verify_decomposition,
    verify_labeling,
)

__all__ = [
    "DecompositionStats",
    "certificate_holds",
    "component_histogram",
    "decomposition_stats",
    "edge_decay_ratios",
    "ground_truth_labels",
    "labelings_equivalent",
    "partition_radii",
    "verify_decomposition",
    "verify_labeling",
]
