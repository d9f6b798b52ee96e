"""Spanning forest extraction from the decomposition algorithm.

The paper's footnote 1 notes that "a spanning forest algorithm can be
used to compute connected components"; this module implements the
converse — the decomposition-based connectivity algorithm naturally
*produces* a spanning forest, an extension beyond the paper's stated
scope:

* inside each decomposition partition, the BFS that grew it defines a
  tree rooted at the center (each claimed vertex records the frontier
  vertex that claimed it);
* each tree edge of the recursively computed spanning forest of the
  contracted graph maps back to a *representative original edge* of
  the component adjacency it uses (carried by
  :class:`~repro.decomp.contract.Contraction`).

:func:`~repro.connectivity.decomp_cc.decomp_cc` lifts these into one
rooted forest of the input whenever the execution context collects
certificates; :func:`decomp_spanning_forest` returns that forest's
edges.  Per level, the intra-partition trees span each partition, and
the contracted forest connects partitions exactly as the contracted
graph's forest connects its vertices — acyclicity and edge count
(n − #components) follow inductively.

Same asymptotics as decomp-CC: O(m) expected work, O(log^3 n) depth
w.h.p.

:func:`partition_parents` rebuilds per-partition BFS trees from a
labeling alone, for decompositions run without recording them.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.connectivity.decomp_cc import decomp_cc
from repro.connectivity.union_find import UnionFind
from repro.engine.core import TraversalEngine, TraversalState, end_round
from repro.engine.direction import AlwaysPush
from repro.errors import VerificationError
from repro.graphs.csr import CSRGraph
from repro.primitives.atomics import first_winner
from repro.runtime.context import current_context

__all__ = ["decomp_spanning_forest", "partition_parents", "verify_spanning_forest"]


class _PartitionParentState(TraversalState):
    """Multi-source same-label BFS rebuilding per-partition parent trees.

    Push-only: every center starts reached, and a round claims the
    unreached same-label neighbors of the frontier with an arbitrary
    first-winner rule (which neighbor wins parenthood is immaterial —
    any intra-partition BFS tree from the same roots is valid).
    """

    def __init__(self, graph: CSRGraph, labels: np.ndarray) -> None:
        self.graph = graph
        self.labels = labels
        self.n = graph.num_vertices
        self.parents = np.full(self.n, -1, dtype=np.int64)
        self.reached = np.zeros(self.n, dtype=bool)
        self._frontier = np.zeros(0, dtype=np.int64)

    @property
    def frontier(self) -> np.ndarray:
        return self._frontier

    @property
    def done(self) -> bool:
        return self._frontier.size == 0

    @property
    def visited_count(self) -> int:
        return int(self.reached.sum())

    def shared_arrays(self):
        return {"parents": self.parents, "reached": self.reached}

    def initial_frontier(self) -> np.ndarray:
        centers = np.unique(self.labels)
        self.reached[centers] = True
        current_context().tracker.add("scatter", work=float(centers.size), depth=1.0)
        return centers

    def begin_round(self, engine, next_frontier: np.ndarray) -> None:
        self._frontier = next_frontier

    def push_round(self, engine) -> np.ndarray:
        src, dst = self.graph.expand(self._frontier)
        same = self.labels[src] == self.labels[dst]
        fresh = same & ~self.reached[dst]
        current_context().tracker.add("gather", work=float(2 * dst.size), depth=1.0)
        if not fresh.any():
            # dead frontier: no claim and no barrier, the engine's next
            # begin_round sees the empty frontier and stops
            return np.zeros(0, dtype=np.int64)
        # arbitrary-CRCW: first claimer per target wins parenthood
        fresh_pos = np.flatnonzero(fresh)
        first, targets = first_winner(dst[fresh_pos])
        self.parents[targets] = src[fresh_pos[first]]
        self.reached[targets] = True
        end_round(packing="unit")
        return targets


def partition_parents(graph: CSRGraph, labels: np.ndarray) -> np.ndarray:
    """BFS-tree parent of each vertex within its decomposition partition.

    Multi-source BFS from all centers, restricted to same-label edges;
    centers (and isolated vertices) get parent -1.  This reconstructs
    the trees the decomposition's BFS's grew — any intra-partition BFS
    tree from the same roots is a valid choice, since the forest only
    needs *a* spanning tree per partition.
    """
    labels = np.asarray(labels)
    if graph.num_vertices == 0:
        return np.full(0, -1, dtype=np.int64)
    state = _PartitionParentState(graph, labels)
    TraversalEngine(state, direction=AlwaysPush()).run()
    return state.parents


def decomp_spanning_forest(
    graph: CSRGraph,
    beta: float = 0.2,
    variant: str = "arb",
    seed: int = 1,
    schedule_mode: str = "permutation",
) -> Tuple[np.ndarray, np.ndarray]:
    """A spanning forest of *graph* via recursive decomposition.

    Returns ``(src, dst)`` arrays of undirected forest edges (each once,
    as ``(v, parent[v])``); ``len(src) == n - #components``.
    """
    sink: List[np.ndarray] = []
    with current_context().child(forest_sink=sink).activate():
        decomp_cc(
            graph, beta, variant=variant, seed=seed, schedule_mode=schedule_mode
        )
    if not sink:
        raise VerificationError(
            "the decomposition's BFS trees do not form a forest",
            reason="certificate",
        )
    parent = sink.pop()
    children = np.flatnonzero(parent != np.arange(parent.size))
    return children, parent[children]


def verify_spanning_forest(
    graph: CSRGraph, src: np.ndarray, dst: np.ndarray
) -> None:
    """Raise :class:`VerificationError` unless (src, dst) spans *graph*.

    Checks: every forest edge is a real graph edge; the forest is
    acyclic; its size is n - #components; and it connects exactly the
    graph's components.
    """
    from repro.analysis.verify import ground_truth_labels

    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise VerificationError("forest src/dst must have equal length")
    n = graph.num_vertices
    # edges must exist in the graph
    gsrc, gdst = graph.edge_array()
    real = set(zip(gsrc.tolist(), gdst.tolist()))
    for u, v in zip(src.tolist(), dst.tolist()):
        if (u, v) not in real and (v, u) not in real:
            raise VerificationError(f"forest edge ({u}, {v}) is not a graph edge")
    # acyclic + count
    labels = ground_truth_labels(graph)
    num_components = int(np.unique(labels).size) if n else 0
    if src.size != n - num_components:
        raise VerificationError(
            f"forest has {src.size} edges; expected n - c = {n - num_components}"
        )
    uf = UnionFind(n)
    for u, v in zip(src.tolist(), dst.tolist()):
        if not uf.union(u, v):
            raise VerificationError(f"forest edge ({u}, {v}) closes a cycle")
    uf.flush_costs()
    # spanning: same partition as the graph
    forest_labels = uf.components()
    from repro.connectivity.base import canonicalize_labels

    if not np.array_equal(
        canonicalize_labels(forest_labels), canonicalize_labels(labels)
    ):
        raise VerificationError("forest does not span the graph's components")
