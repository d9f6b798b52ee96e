"""Labeling verification: is a claimed connectivity labeling correct?

Ground truth comes from this package's own sequential BFS sweep (no
external dependency in the library; the test suite additionally
cross-checks against networkx and SciPy).  Two layers:

* :func:`labelings_equivalent` — do two labelings induce the same
  partition of the vertices?  (Labels are arbitrary names.)
* :func:`verify_labeling` — full check against the graph: every edge
  must join same-labeled vertices (the labeling *refines* into
  components) and same-labeled vertices must be connected (no
  over-merging).  The second half is proved by the run's certificate
  when it has one — a spanning forest whose trees match the labels,
  checked in a few vectorized passes — and otherwise by comparing
  against the BFS ground truth.  Raises
  :class:`~repro.errors.VerificationError` with a counterexample on
  failure.

Also exposes :func:`ground_truth_labels`, the reference sequential
implementation (iterative BFS, O(n + m)), kept as the fallback and as
the test suite's oracle.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.connectivity.base import canonicalize_labels
from repro.errors import VerificationError
from repro.graphs.csr import CSRGraph
from repro.runtime.context import current_context

__all__ = [
    "certificate_holds",
    "ground_truth_labels",
    "labelings_equivalent",
    "verify_labeling",
    "verify_decomposition",
]


def ground_truth_labels(graph: CSRGraph) -> np.ndarray:
    """Reference labeling via sequential BFS (component ids in visit order)."""
    n = graph.num_vertices
    labels = np.full(n, -1, dtype=np.int64)
    offsets, targets = graph.offsets, graph.targets
    next_label = 0
    for s in range(n):
        if labels[s] != -1:
            continue
        labels[s] = next_label
        stack = [s]
        while stack:
            u = stack.pop()
            for w in targets[offsets[u] : offsets[u + 1]]:
                if labels[w] == -1:
                    labels[w] = next_label
                    stack.append(int(w))
        next_label += 1
    return labels


def labelings_equivalent(a: np.ndarray, b: np.ndarray) -> bool:
    """True iff *a* and *b* induce the same partition of the vertices."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    return bool(np.array_equal(canonicalize_labels(a), canonicalize_labels(b)))


def verify_labeling(
    graph: CSRGraph,
    labels: np.ndarray,
    reference: Optional[np.ndarray] = None,
    certificate: Optional[np.ndarray] = None,
) -> str:
    """Raise :class:`VerificationError` unless *labels* solves the problem.

    Checks, in order:

    1. shape and definedness (one integer label per vertex);
    2. edge consistency: no edge may cross labels (otherwise the
       labeling splits a component);
    3. no over-merging, by the first of these that applies:

       * *certificate*, a parent array (:func:`certificate_holds`):
         if it holds, same-labeled vertices are connected;
       * partition equality with the ground truth — *reference*, or
         the BFS of :func:`ground_truth_labels` (the fallback, also
         taken when the certificate fails).

    The certificate is ignored when a *reference* is given.  Returns
    the path that settled step 3, ``"certificate"`` or ``"fallback"``,
    and counts it in the context's metrics (``verify.certificate``,
    ``verify.fallback``; a failed certificate also counts
    ``verify.certificate_rejected``).
    """
    labels = np.asarray(labels)
    n = graph.num_vertices
    if labels.shape != (n,):
        raise VerificationError(
            f"labels shape {labels.shape} != ({n},) for this graph",
            reason="shape",
        )
    if labels.size and labels.dtype.kind not in "iu":
        raise VerificationError(
            f"labels have dtype {labels.dtype}; expected integers",
            reason="dtype",
        )
    labels32 = _narrow(labels)
    crossing = _crossing_edge(graph, labels32)
    if crossing is not None:
        u, w = crossing
        raise VerificationError(
            f"edge ({u}, {w}) crosses labels "
            f"{int(labels[u])} != {int(labels[w])}",
            reason="crossing-edge",
        )
    metrics = current_context().metrics
    if certificate is not None and reference is None:
        if certificate_holds(graph, labels32, certificate):
            metrics.incr("verify.certificate")
            return "certificate"
        metrics.incr("verify.certificate_rejected")
    metrics.incr("verify.fallback")
    truth = reference if reference is not None else ground_truth_labels(graph)
    if not labelings_equivalent(labels, truth):
        got = int(np.unique(labels).size)
        want = int(np.unique(truth).size)
        raise VerificationError(
            f"labeling partitions vertices into {got} classes; "
            f"the graph has {want} components",
            reason="partition-mismatch",
        )
    return "fallback"


def _narrow(values: np.ndarray) -> np.ndarray:
    """*values* as int32 when they fit: halves the edge-length temporaries."""
    if values.size and values.dtype.itemsize > 4:
        if -(2**31) <= values.min() and values.max() < 2**31:
            return values.astype(np.int32)
    return values


def _crossing_edge(
    graph: CSRGraph, labels: np.ndarray
) -> Optional[Tuple[int, int]]:
    """The first directed edge ``(u, w)`` whose labels differ, or ``None``.

    Compares the sources' labels, repeated by degree, with the targets'
    labels: two edge-length temporaries, no edge-source array.
    """
    offsets, targets = graph.offsets, graph.targets
    crossing = np.repeat(labels, np.diff(offsets)) != labels[targets]
    if not crossing.any():
        return None
    i = int(np.argmax(crossing))
    return int(np.searchsorted(offsets, i, side="right")) - 1, int(targets[i])


def certificate_holds(
    graph: CSRGraph, labels: np.ndarray, parent: np.ndarray
) -> bool:
    """Does *parent* prove that same-labeled vertices are connected?

    *parent* is a rooted forest as parent pointers (a root points at
    itself).  It holds when every non-root ``(v, parent[v])`` is a
    graph edge, pointer jumping from every vertex reaches a root with
    no cycle, every vertex shares its root's label (so the roots carry
    every label), and the roots' labels are pairwise distinct.  Then
    two vertices with one label have the same root and are joined by
    tree paths of graph edges.  With edge consistency (step 2 of
    :func:`verify_labeling`) that makes the labels exactly the
    components.  Vectorized: O(n + m) work in a few NumPy passes plus
    O(log n) pointer-jumping passes over the vertices.
    """
    parent = np.asarray(parent)
    n = graph.num_vertices
    if parent.shape != (n,) or (n and parent.dtype.kind not in "iu"):
        return False
    if n == 0:
        return True
    if parent.min() < 0 or parent.max() >= n:
        return False
    offsets, targets = graph.offsets, graph.targets
    is_root = parent == np.arange(n)
    # Rows holding their parent: the edge position where it appears.
    hit = np.flatnonzero(np.repeat(_narrow(parent), np.diff(offsets)) == targets)
    has_edge = is_root.copy()
    has_edge[np.searchsorted(offsets, hit, side="right") - 1] = True
    if not has_edge.all():
        return False
    root = parent
    for _ in range(n.bit_length()):
        jumped = root[root]
        if np.array_equal(jumped, root):
            break
        root = jumped
    if not is_root[root].all() or not np.array_equal(labels[root], labels):
        return False
    root_labels = np.sort(labels[is_root])
    return bool((root_labels[1:] != root_labels[:-1]).all())


def verify_decomposition(
    graph: CSRGraph, labels: np.ndarray, check_connected: bool = True
) -> int:
    """Validate a (beta, d)-decomposition's structural invariants.

    Every vertex must be labeled with a vertex id inside its own
    partition (the BFS center), and — when *check_connected* — each
    partition must induce a connected subgraph (it was grown by one
    BFS).  Returns the number of inter-partition directed edges so
    callers can test the beta bound statistically.
    """
    labels = np.asarray(labels)
    n = graph.num_vertices
    if labels.shape != (n,):
        raise VerificationError(
            "decomposition labels must cover all vertices", reason="shape"
        )
    if n == 0:
        return 0
    if labels.min() < 0 or labels.max() >= n:
        raise VerificationError(
            "decomposition labels must be vertex ids", reason="label-range"
        )
    centers = np.unique(labels)
    if not np.array_equal(labels[centers], centers):
        bad = centers[labels[centers] != centers][0]
        raise VerificationError(
            f"center {int(bad)} is not in its own partition",
            reason="center-outside-partition",
        )
    if check_connected:
        # One BFS inside each partition, restricted to same-label edges.
        seen = np.zeros(n, dtype=bool)
        offsets, targets = graph.offsets, graph.targets
        for c in centers:
            seen[c] = True
            stack = [int(c)]
            while stack:
                u = stack.pop()
                for w in targets[offsets[u] : offsets[u + 1]]:
                    w = int(w)
                    if not seen[w] and labels[w] == labels[u]:
                        seen[w] = True
                        stack.append(w)
        if not seen.all():
            bad = int(np.flatnonzero(~seen)[0])
            raise VerificationError(
                f"vertex {bad} cannot reach its center {int(labels[bad])} "
                "inside its own partition",
                reason="disconnected-partition",
            )
    src, dst = graph.edge_array()
    return int(np.count_nonzero(labels[src] != labels[dst]))
