"""CONTRACT: collapse decomposition partitions into a contracted graph.

Algorithm 1's second half.  Given the labels a DECOMP call produced and
the surviving inter-component edges (already expressed as label pairs),
this module:

1. counts the components ``k`` and renames the center-id labels to the
   dense range ``[0, k)`` with a prefix sum (the paper's relabeling);
2. removes duplicate inter-component edges with the parallel hash
   table (paper §4: "we use a parallel hash table [55] to remove
   duplicate edges between components");
3. drops singleton components (no incident inter-edges) — "singleton
   vertices are then removed, but their labels are kept" — renaming
   the ``k'`` survivors to ``[0, k')``;
4. builds the contracted CSR graph on those ``k'`` vertices.

The returned mappings are what RELABELUP needs to push labels computed
on the contracted graph back down to the original vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.decomp.base import Decomposition
from repro.engine.parallel import context_gather
from repro.errors import GraphFormatError
from repro.graphs.builder import from_directed_edges
from repro.graphs.csr import CSRGraph
from repro.primitives.hashing import HashTable
from repro.primitives.scan import exclusive_scan
from repro.runtime.context import current_context

__all__ = ["Contraction", "contract"]


@dataclass
class Contraction:
    """Output of one contraction step.

    Attributes
    ----------
    graph:
        The contracted graph on the k' non-singleton components
        (symmetric; both orientations of each deduplicated inter-edge).
    vertex_to_component:
        Length-n map from each original vertex to its component id in
        ``[0, k)`` (dense renaming of the DECOMP labels).
    component_to_sub:
        Length-k map from component id to contracted-graph vertex id,
        or -1 for singleton components (which have no inter-edges and
        are finished).
    sub_to_component:
        Length-k' inverse of the non-singleton part.
    num_components:
        k, counting singletons.
    edge_pairs:
        The deduplicated directed component-id edges, as sorted encoded
        keys ``src_comp * k + dst_comp`` — the lookup index for
        representatives.
    rep_src / rep_dst:
        For each entry of *edge_pairs*, the original-graph endpoints of
        one edge realizing that component adjacency.  Used by
        ``decomp_cc``'s certificate (the spanning forest) to pull
        contracted tree edges back down to real edges.
    """

    graph: CSRGraph
    vertex_to_component: np.ndarray
    component_to_sub: np.ndarray
    sub_to_component: np.ndarray
    num_components: int
    edge_pairs: np.ndarray
    rep_src: np.ndarray
    rep_dst: np.ndarray

    def representative_edge(self, src_comp: np.ndarray, dst_comp: np.ndarray):
        """Original (u, w) endpoints realizing each component adjacency.

        Vectorized lookup into the representative index; every queried
        pair must exist in the contracted edge set.
        """
        src_comp = np.asarray(src_comp, dtype=np.int64)
        dst_comp = np.asarray(dst_comp, dtype=np.int64)
        keys = src_comp * np.int64(self.num_components) + dst_comp
        pos = np.searchsorted(self.edge_pairs, keys)
        if pos.size and (
            pos.max(initial=0) >= self.edge_pairs.size
            or not np.array_equal(self.edge_pairs[pos], keys)
        ):
            raise GraphFormatError("queried component pair has no edge")
        return self.rep_src[pos], self.rep_dst[pos]

    @property
    def num_sub_vertices(self) -> int:
        return int(self.sub_to_component.size)

    @property
    def is_base_case(self) -> bool:
        """True when no inter-component edges remain (|E'| = 0)."""
        return self.graph.num_directed == 0


def contract(
    decomposition: Decomposition,
    num_vertices: int,
    remove_duplicates: bool = True,
    dedup_seed: int = 0x5EED,
) -> Contraction:
    """Contract each decomposition partition to a single vertex.

    Parameters
    ----------
    decomposition:
        The DECOMP output (labels + surviving directed label-pair edges).
    num_vertices:
        Vertex count of the decomposed graph (labels' domain).
    remove_duplicates:
        When False, skips the hash-table dedup — the paper notes the
        edge count still drops by a constant factor in expectation
        without it; the ablation bench measures the difference.

    Work O(n + m') expected, depth O(log n) w.h.p., where m' is the
    number of surviving directed edges.
    """
    labels = decomposition.labels
    if labels.shape != (num_vertices,):
        raise GraphFormatError("labels length must equal num_vertices")
    tracker = current_context().tracker

    # --- 1. dense renaming of the component labels (prefix sum). -----
    present = np.zeros(num_vertices, dtype=bool)
    present[labels] = True
    tracker.add("scatter", work=float(num_vertices), depth=1.0)
    rank = exclusive_scan(present.astype(np.int64))
    k = int(rank[-1] + 1) if num_vertices and present[-1] else int(
        rank[-1] if num_vertices else 0
    )
    component_of_center = rank  # valid at positions where present is True
    # The relabel gathers go through context_gather: identical to the
    # plain fancy-index under the serial backends, chunked across the
    # worker pool under the parallel backend (disjoint output slices,
    # so the result is the same array either way).
    vertex_to_component = context_gather(component_of_center, labels)
    tracker.add("gather", work=float(num_vertices), depth=1.0)

    src = context_gather(component_of_center, decomposition.inter_src)
    dst = context_gather(component_of_center, decomposition.inter_dst)
    orig_src = decomposition.orig_src
    orig_dst = decomposition.orig_dst
    tracker.add("gather", work=float(2 * src.size), depth=1.0)

    # --- 2. duplicate-edge removal (parallel hash table). ------------
    # The table's first-inserter-per-key is the representative original
    # edge for that component adjacency (paper footnote 1's converse
    # needs it to pull contracted tree edges back to real edges).
    if src.size and remove_duplicates:
        keys = src * np.int64(k) + dst
        table = HashTable(capacity=keys.size, seed=dedup_seed)
        inserted = table.insert(keys)
        keys = keys[inserted]
        orig_src = orig_src[inserted]
        orig_dst = orig_dst[inserted]
        src = keys // k
        dst = keys % k
        tracker.add("scan", work=float(keys.size), depth=1.0)
    elif src.size:
        keys = src * np.int64(k) + dst
    else:
        keys = np.zeros(0, dtype=np.int64)

    # Sorted representative index for O(log) pair lookups.
    order = np.argsort(keys, kind="stable")
    edge_pairs = keys[order]
    rep_src = orig_src[order] if orig_src.size else orig_src
    rep_dst = orig_dst[order] if orig_dst.size else orig_dst
    tracker.add("sort", work=float(keys.size), depth=1.0)

    # --- 3. drop singletons, rename survivors to [0, k'). ------------
    touched = np.zeros(k, dtype=bool)
    touched[src] = True
    touched[dst] = True
    tracker.add("scatter", work=float(2 * src.size + k), depth=1.0)
    sub_rank = exclusive_scan(touched.astype(np.int64))
    k_prime = int(sub_rank[-1] + 1) if k and touched[-1] else int(
        sub_rank[-1] if k else 0
    )
    component_to_sub = np.where(touched, sub_rank, np.int64(-1))
    sub_to_component = np.flatnonzero(touched).astype(np.int64)

    # --- 4. build the contracted CSR graph. --------------------------
    sub_graph = from_directed_edges(
        component_to_sub[src],
        component_to_sub[dst],
        k_prime,
        symmetric=True,
    )
    return Contraction(
        graph=sub_graph,
        vertex_to_component=vertex_to_component,
        component_to_sub=component_to_sub,
        sub_to_component=sub_to_component,
        num_components=k,
        edge_pairs=edge_pairs,
        rep_src=rep_src,
        rep_dst=rep_dst,
    )
