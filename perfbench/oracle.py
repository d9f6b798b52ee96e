"""Correctness oracle, independent of ``repro``.

Ground truth comes from ``scipy.sparse.csgraph.connected_components``
run on the input graph's CSR arrays.  It is computed once per generated
graph during set-up and never timed.  Every check here runs after the
timer of the request it checks has stopped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components


@dataclass(frozen=True)
class Truth:
    """The components of one input graph."""

    labels: np.ndarray
    num_components: int
    sorted_sizes: np.ndarray

    @classmethod
    def of(cls, offsets: np.ndarray, targets: np.ndarray) -> "Truth":
        n = offsets.size - 1
        ones = np.ones(targets.size, dtype=np.int8)
        matrix = csr_matrix((ones, targets, offsets), shape=(n, n))
        count, labels = connected_components(matrix, directed=False)
        sizes = np.sort(np.bincount(labels, minlength=count))
        return cls(labels.astype(np.int64), int(count), sizes)


def same_partition(labels: np.ndarray, truth: Truth) -> bool:
    """True iff *labels* puts vertices together exactly as *truth* does.

    The partitions are equal iff the labels map to true components as a
    bijection: each label's vertices share one true component, and
    there are as many distinct labels as true components.
    """
    labels = np.asarray(labels)
    if labels.shape != truth.labels.shape:
        return False
    if labels.size == 0:
        return truth.num_components == 0
    _, labels = np.unique(labels, return_inverse=True)
    component_of = np.empty(int(labels.max()) + 1, dtype=np.int64)
    component_of[labels] = truth.labels
    return component_of.size == truth.num_components and bool(
        np.array_equal(component_of[labels], truth.labels)
    )


def check_answer(kind: str, query: tuple, answer: object, truth: Truth) -> bool:
    """True iff *answer* is the right reply to one memo-hit query."""
    t = truth.labels
    if kind == "connected":
        u, v = query
        return isinstance(answer, bool) and answer == bool(t[u] == t[v])
    if kind == "connected_batch":
        u, v = query
        answer = np.asarray(answer)
        return answer.dtype == np.bool_ and np.array_equal(answer, t[u] == t[v])
    if kind == "num_components":
        return answer == truth.num_components
    if kind == "component_sizes":
        sizes = np.sort(np.fromiter(answer.values(), dtype=np.int64))
        return np.array_equal(sizes, truth.sorted_sizes)
    raise ValueError(f"unknown query kind {kind!r}")
