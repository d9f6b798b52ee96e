"""Edge-list -> CSR construction (symmetrize, dedup, self-loop removal).

All generators and I/O produce raw ``(u, v)`` edge lists; this module
turns them into the symmetric :class:`~repro.graphs.csr.CSRGraph` the
algorithms consume.  Construction is itself expressed with the
package's parallel primitives (histogram + scan + radix sort), so the
"load the graph" step has an honest work/depth profile too.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import GraphFormatError
from repro.graphs.csr import CSRGraph
from repro.primitives.scan import exclusive_scan
from repro.primitives.sort import radix_argsort
from repro.runtime.context import current_context

__all__ = ["from_edges", "from_directed_edges", "dedup_edge_list"]


def _validate(src: np.ndarray, dst: np.ndarray, num_vertices: int) -> None:
    if src.shape != dst.shape or src.ndim != 1:
        raise GraphFormatError("edge arrays must be 1-D and equal length")
    if src.size == 0:
        return
    lo = min(int(src.min()), int(dst.min()))
    hi = max(int(src.max()), int(dst.max()))
    if lo < 0:
        raise GraphFormatError("negative vertex id in edge list")
    if hi >= num_vertices:
        raise GraphFormatError(
            f"vertex id {hi} out of range for num_vertices={num_vertices}"
        )


def dedup_edge_list(
    src: np.ndarray, dst: np.ndarray, num_vertices: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Remove duplicate directed edges and self-loops, preserving nothing
    about order (sorted output).

    Uses encode-to-int64 + radix sort + adjacent-unique — the standard
    linear-work parallel dedup (an alternative to the hash table used in
    contraction; both appear in the paper's toolbox).
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    _validate(src, dst, num_vertices)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    if src.size == 0:
        return src, dst
    keys = src * np.int64(num_vertices) + dst
    order = radix_argsort(keys, max_key=int(num_vertices) * num_vertices - 1)
    keys = keys[order]
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    current_context().tracker.add("scan", work=float(keys.size), depth=1.0)
    keys = keys[first]
    return keys // num_vertices, keys % num_vertices


def from_directed_edges(
    src: np.ndarray,
    dst: np.ndarray,
    num_vertices: int,
    symmetric: bool = False,
) -> CSRGraph:
    """Build a CSR graph from directed edges, exactly as given.

    No symmetrization, dedup or loop removal — callers wanting the
    undirected input format should use :func:`from_edges`.  The edges
    are grouped by source with a counting pass + scan + scatter.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    _validate(src, dst, num_vertices)
    counts = np.bincount(src, minlength=num_vertices) if src.size else np.zeros(
        num_vertices, dtype=np.int64
    )
    current_context().tracker.add("scatter", work=float(src.size), depth=1.0)
    offsets = np.concatenate(
        (exclusive_scan(counts), [src.size])
    ).astype(np.int64)
    # Stable sort by source groups targets into CSR slots.
    order = radix_argsort(src, max_key=max(num_vertices - 1, 0)) if src.size else src
    targets = dst[order] if src.size else dst
    return CSRGraph(offsets=offsets, targets=targets, symmetric=symmetric)


def from_edges(
    src: np.ndarray,
    dst: np.ndarray,
    num_vertices: Optional[int] = None,
    remove_duplicates: bool = True,
) -> CSRGraph:
    """Build the symmetric CSR graph of an undirected edge list.

    Each input pair (u, v) is stored in both directions (the paper's
    convention for the decomposition-based algorithms).  Self-loops are
    dropped; duplicate undirected edges are dropped when
    *remove_duplicates* (the default — all the paper's inputs are
    simple graphs).

    Parameters
    ----------
    num_vertices:
        Vertex-count override; defaults to ``max(id) + 1``.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if num_vertices is None:
        num_vertices = (
            int(max(src.max(initial=-1), dst.max(initial=-1))) + 1 if src.size else 0
        )
    # Mirror every edge, then (optionally) dedup the directed multiset.
    all_src = np.concatenate((src, dst))
    all_dst = np.concatenate((dst, src))
    current_context().tracker.add("scan", work=float(all_src.size), depth=1.0)
    if remove_duplicates:
        all_src, all_dst = dedup_edge_list(all_src, all_dst, num_vertices)
    else:
        keep = all_src != all_dst
        all_src, all_dst = all_src[keep], all_dst[keep]
    return from_directed_edges(all_src, all_dst, num_vertices, symmetric=True)
