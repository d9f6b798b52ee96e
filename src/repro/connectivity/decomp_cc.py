"""Algorithm 1: decomposition-based connected components (the paper).

    procedure CC(G):
        L  = DECOMP(G, beta)
        G' = CONTRACT(G, L)
        if |E'| = 0: return L
        L' = CC(G')
        return RELABELUP(L, L')

Each DECOMP removes at least a (1 - beta) [min] / (1 - 2*beta) [arb]
fraction of edges in expectation (usually far more, because contraction
merges duplicate edges — Figure 4), so there are O(log m) iterations
w.h.p.; total expected work O(m), depth O(log^3 n) w.h.p. (Theorem 1).

We run the recursion as an explicit loop with an unwind stack — the
iterations are a straight chain, and the loop gives the harness natural
access to the per-iteration edge counts (Figure 4 series).

When the execution context collects certificates (``forest_sink``),
the upward pass also lifts each level's BFS trees into one spanning
forest of the input (see :func:`_lift_forest`), which lets the
verifier accept the labeling without recomputing the components.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.connectivity.base import ConnectivityResult
from repro.decomp import DECOMP_VARIANTS
from repro.decomp.contract import Contraction, contract
from repro.errors import ConvergenceError, GraphFormatError, ParameterError
from repro.graphs.csr import CSRGraph
from repro.runtime.context import current_context

__all__ = ["decomp_cc", "DEFAULT_BETA"]

#: The experiments' default decomposition parameter; the paper's
#: Figure 3 locates the best beta between 0.05 and 0.2.
DEFAULT_BETA = 0.2

#: Iteration backstop far above the O(log m) bound for any feasible input.
_MAX_ITERATIONS = 200


def decomp_cc(
    graph: CSRGraph,
    beta: float = DEFAULT_BETA,
    variant: str = "arb",
    seed: int = 1,
    schedule_mode: str = "permutation",
    remove_duplicates: bool = True,
    **variant_kwargs,
) -> ConnectivityResult:
    """Connected components via recursive decomposition + contraction.

    Parameters
    ----------
    graph:
        Symmetric CSR graph.
    beta:
        Decomposition parameter; must be in (0, 1).  The linear-work
        guarantee needs beta < 1 for ``variant="min"`` and beta < 1/2
        for the arbitrary-tie-break variants (Theorem 2); values
        outside that are allowed for experiments (Figure 3 sweeps to
        0.95) but void the work bound.
    variant:
        ``"min"`` (Algorithm 2), ``"arb"`` (Algorithm 3, default) or
        ``"arb-hybrid"`` (direction-optimizing) — the paper's
        decomp-min-CC / decomp-arb-CC / decomp-arb-hybrid-CC.
    seed:
        Base seed; each iteration derives an independent stream.
    schedule_mode:
        Start-time schedule: the paper's ``"permutation"`` simulation
        or exact ``"exponential"`` draws.
    remove_duplicates:
        Pass-through to contraction (ablation hook).
    variant_kwargs:
        Extra arguments for the variant (e.g. ``dense_threshold`` for
        the hybrid).

    Returns
    -------
    ConnectivityResult
        Labels in ``[0, n)``; ``edges_per_iteration`` holds the
        undirected edge count entering each DECOMP call (Figure 4).
    """
    if variant not in DECOMP_VARIANTS:
        raise ParameterError(
            f"unknown variant {variant!r}; expected one of {sorted(DECOMP_VARIANTS)}"
        )
    decomp_fn = DECOMP_VARIANTS[variant]
    tracker = current_context().tracker
    sink = current_context().forest_sink

    # ---- downward pass: decompose + contract until |E'| = 0. --------
    current = graph
    unwind: List[Contraction] = []
    #: Per level, the BFS-tree parents and the round count (certified runs).
    trees: List[Tuple[np.ndarray, int]] = []
    edges_per_iteration: List[int] = [graph.num_edges]
    rounds_per_iteration: List[int] = []
    for iteration in range(_MAX_ITERATIONS):
        decomposition = decomp_fn(
            current,
            beta,
            seed=seed + 1000003 * iteration,
            schedule_mode=schedule_mode,
            **variant_kwargs,
        )
        rounds_per_iteration.append(decomposition.num_rounds)
        if sink is not None:
            trees.append((decomposition.parents, decomposition.num_rounds))
        with tracker.phase("contractGraph"):
            contraction = contract(
                decomposition,
                current.num_vertices,
                remove_duplicates=remove_duplicates,
                dedup_seed=seed + 7 * iteration,
            )
        unwind.append(contraction)
        if contraction.is_base_case:
            break
        current = contraction.graph
        edges_per_iteration.append(current.num_edges)
    else:
        raise ConvergenceError(
            f"decomp_cc exceeded {_MAX_ITERATIONS} iterations "
            f"(beta={beta}, variant={variant})",
            algorithm=f"decomp-{variant}-CC",
            rounds_used=_MAX_ITERATIONS,
            budget=_MAX_ITERATIONS,
        )

    # ---- upward pass: RELABELUP through the contraction chain. ------
    # At the deepest level every component is maximal, so its label is
    # its own component id.  One level up, a non-singleton component
    # takes the label of its contracted vertex (offset past that
    # level's singleton label space); singletons keep distinct labels.
    with tracker.phase("contractGraph"):
        last = unwind[-1]
        labels = np.arange(last.num_components, dtype=np.int64)
        for contraction in reversed(unwind):
            k = contraction.num_components
            sub = contraction.component_to_sub
            component_labels = np.empty(k, dtype=np.int64)
            is_sub = sub >= 0
            if contraction is last:
                component_labels = np.arange(k, dtype=np.int64)
            else:
                # Non-singletons inherit the deeper labels; singletons
                # get fresh labels above the deeper label space.
                deeper_space = int(labels.max()) + 1 if labels.size else 0
                component_labels[is_sub] = labels[sub[is_sub]]
                num_singletons = int((~is_sub).sum())
                component_labels[~is_sub] = deeper_space + np.arange(
                    num_singletons, dtype=np.int64
                )
            labels = component_labels[contraction.vertex_to_component]
            tracker.add("gather", work=float(labels.size), depth=1.0)
        if sink is not None:
            forest = _lift_forest(trees, unwind)
            if forest is not None:
                sink.append(forest)

    return ConnectivityResult(
        labels=labels,
        algorithm=f"decomp-{variant}-CC",
        iterations=len(unwind),
        edges_per_iteration=edges_per_iteration,
        stats={
            "beta": beta,
            "rounds_per_iteration": rounds_per_iteration,
            "schedule_mode": schedule_mode,
        },
    )


def _lift_forest(
    trees: List[Tuple[np.ndarray, int]], unwind: List[Contraction]
) -> Optional[np.ndarray]:
    """One spanning forest of the input from every level's BFS trees.

    Deepest level first: a level's parents are its partitions' BFS
    trees.  Where the deeper forest gives a partition's contracted
    vertex a parent, the partition's tree is rerooted at its end ``u``
    of the representative edge ``(u, w)`` of that contracted edge (the
    path from ``u`` to the center is reversed, at most the level's
    round count long, for all such partitions at once), and ``u``
    points across the edge at ``w``.  Uncharged: the forest certifies
    the labeling and is not part of the algorithm.  Returns ``None``
    when the trees are inconsistent (a fault corrupted the run), so the
    verifier falls back to recomputing the components.
    """
    forest = np.zeros(0, dtype=np.int64)
    for (parent, rounds), contraction in zip(reversed(trees), reversed(unwind)):
        moving = np.flatnonzero(forest != np.arange(forest.size))
        if moving.size:
            try:
                cur, prev = contraction.representative_edge(
                    contraction.sub_to_component[moving],
                    contraction.sub_to_component[forest[moving]],
                )
            except GraphFormatError:
                return None
            for _ in range(rounds + 2):
                nxt = parent[cur]
                parent[cur] = prev
                up = nxt != cur
                if not up.any():
                    break
                prev, cur = cur[up], nxt[up]
            else:
                return None
        forest = parent
    return forest
