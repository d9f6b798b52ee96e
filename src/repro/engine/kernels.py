"""The shared round kernels: one vectorized CRCW step batch each.

These are the bodies of every level-synchronous round in the system,
written once.  The decomposition kernels (:func:`arb_round`,
:func:`min_round`, :func:`dense_round`, :func:`filter_edges`) operate
on a :class:`~repro.decomp.base.DecompState`; :func:`bottom_up_step`
is the read-based sweep shared by the BFS family.  The variant modules
re-export them under their historical names, and the engine's policy
objects dispatch to them.

Execution-backend note: every array operation goes through the state's
:mod:`~repro.engine.workspace` — a :class:`~repro.engine.workspace.
NullWorkspace` (reference backend) makes each one the historical fresh
allocation, a real :class:`~repro.engine.workspace.Workspace` (fast
backend) writes into reused arena slices.  The kernels also resolve
the ambient cost tracker and fault plan once per round and pass them
into the primitives, so the innermost loops perform no repeated
context-var reads.  Anything that outlives the round (winners, kept
inter-edge chunks) is produced as a fresh array, never an arena view.

Cost parity note: each kernel charges exactly what its pre-engine
counterpart charged; the only intentional change is that every
end-of-round barrier is routed through
:func:`repro.engine.core.end_round`, which charges the uniform
``log2(round_edges + 1)`` packing depth for decomposition rounds
(previously the hybrid's dense round charged ``log2(n_vertices + 1)``,
making the Figure 5-7 phase breakdowns mutually incomparable).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.engine.core import UNVISITED, end_round
from repro.engine.workspace import NULL_WORKSPACE
from repro.primitives.atomics import (
    PAIR_SHIFT,
    encode_pair,
    first_winner,
    write_min,
)
from repro.primitives.pack import pack_index
from repro.runtime.context import current_context

if TYPE_CHECKING:
    from repro.decomp.base import DecompState
    from repro.engine.workspace import NullWorkspace
    from repro.graphs.csr import CSRGraph

__all__ = [
    "arb_round",
    "min_round",
    "dense_round",
    "filter_edges",
    "bottom_up_step",
    "_PAIR_INF",
]

#: writeMin identity for the merged (delta', center) pair array.
_PAIR_INF = np.int64((1 << 62) - 1)

#: Payload half of an encoded (priority, payload) pair (the component
#: id Decomp-Min's phase 2 reads back out of the writeMin cell).
_PAIR_PAYLOAD_MASK = np.int64((1 << PAIR_SHIFT) - 1)


def arb_round(state: "DecompState") -> np.ndarray:
    """One Decomp-Arb BFS round over the current frontier.

    Returns the next frontier (this round's CAS winners).  Mutates
    ``state.C`` and appends surviving inter-edges.
    """
    tracker = current_context().tracker
    plan = current_context().fault_plan
    ws = state.workspace
    graph, C = state.graph, state.C
    src, dst = graph.expand(state.frontier, workspace=ws)
    state.edges_inspected += int(src.size)
    if src.size == 0:
        end_round()
        return np.zeros(0, dtype=np.int64)
    cu = ws.take(C, src, "arb.cu")
    cw = ws.take(C, dst, "arb.cw")
    tracker.add("gather", work=float(2 * src.size), depth=1.0)

    # CAS races on unvisited targets: one arbitrary winner each.
    unvis = ws.equal(cw, UNVISITED, "arb.unvis")
    unvis_pos = np.flatnonzero(unvis)
    win_local, winners = first_winner(
        ws.take(dst, unvis_pos, "arb.race"),
        workspace=ws,
        tracker=tracker,
        plan=plan,
    )
    win_pos = unvis_pos[win_local]
    C[winners] = cu[win_pos]
    if state.parent is not None:
        state.parent[winners] = src[win_pos]
    tracker.add("scatter", work=float(winners.size), depth=1.0)
    state.visited += int(winners.size)

    # All non-winning edges can be classified immediately: the winner's
    # component id is visible to the losers of the race (Algorithm 3
    # lines 16-19), and previously visited targets carry their label.
    is_winner_edge = ws.falses("arb.winmask", int(src.size))
    is_winner_edge[win_pos] = True
    rest = ws.logical_not(is_winner_edge, "arb.rest")
    dst_rest = ws.compress(rest, dst, "arb.dstrest")
    cw_now = ws.take(C, dst_rest, "arb.cwnow")
    cu_rest = ws.compress(rest, cu, "arb.curest")
    tracker.add("gather", work=float(cu_rest.size), depth=1.0)
    inter = ws.not_equal(cw_now, cu_rest, "arb.inter")
    src_rest = ws.compress(rest, src, "arb.srcrest")
    state.keep_inter(
        cu_rest[inter], cw_now[inter], src_rest[inter], dst_rest[inter]
    )
    # End-of-round packing of kept edges / next frontier.
    end_round(int(src.size))
    return winners


def min_round(state: "DecompState", pair: np.ndarray) -> np.ndarray:
    """One Decomp-Min round: writeMin phase, barrier, claim phase.

    *pair* is the per-vertex merged (delta', center) writeMin cell
    (the first element of the paper's C pairs); ``state.C`` plays the
    role of the second element (the component id).  Returns the next
    frontier.
    """
    tracker = current_context().tracker
    plan = current_context().fault_plan
    ws = state.workspace
    graph, C = state.graph, state.C
    frac = state.schedule.frac

    # ---- Phase 1: writeMin marking + classification of visited targets.
    with tracker.phase("bfsPhase1"):
        src, dst = graph.expand(state.frontier, workspace=ws)
        state.edges_inspected += int(src.size)
        if src.size == 0:
            end_round()
            return np.zeros(0, dtype=np.int64)
        cu = ws.take(C, src, "min.cu")
        cw = ws.take(C, dst, "min.cw")
        # 3 words per edge: the source's component plus the target's
        # (conflict-value, componentID) *pair* — the extra word per
        # vertex visit the paper's pair layout trades for one fewer
        # cache miss than a two-array layout would cost.
        tracker.add("gather", work=float(3 * src.size), depth=1.0)

        unvis = ws.equal(cw, UNVISITED, "min.unvis")
        unvis_pos = np.flatnonzero(unvis)
        # writeMin((delta'_{C[u]}, C[u])) onto every unvisited target.
        cu_unvis = ws.take(cu, unvis_pos, "min.cuunvis")
        keys = ws.take(frac, cu_unvis, "min.keys")
        keys = encode_pair(keys, cu_unvis, out=keys)
        write_min(
            pair,
            ws.take(dst, unvis_pos, "min.dstunvis"),
            keys,
            tracker=tracker,
            workspace=ws,
        )

        # Edges to visited targets resolve now: inter iff labels differ.
        vis_pos = np.flatnonzero(ws.logical_not(unvis, "min.vis"))
        cw_vis = ws.take(cw, vis_pos, "min.cwvis")
        cu_vis = ws.take(cu, vis_pos, "min.cuvis")
        inter_vis = ws.not_equal(cw_vis, cu_vis, "min.intervis")
        keep_pos = vis_pos[inter_vis]
        state.keep_inter(cu[keep_pos], cw[keep_pos], src[keep_pos], dst[keep_pos])
        # Phase-1 output compaction (the paper's in-place E overwrite).
        end_round(int(src.size))

    # ---- Phase 2: losers classify, winners claim (one CAS per target).
    with tracker.phase("bfsPhase2"):
        # The paper's phase 2 re-reads every edge kept by phase 1: the
        # unresolved (unvisited-target) ones — whose merged pair is two
        # words — plus the already-classified inter edges, skipped via
        # their sign bit at unit cost.
        tracker.add(
            "gather",
            work=float(2 * unvis_pos.size + int(inter_vis.sum())),
            depth=1.0,
        )
        if unvis_pos.size == 0:
            end_round()
            return np.zeros(0, dtype=np.int64)
        targets = ws.take(dst, unvis_pos, "min.targets")
        merged = ws.take(pair, targets, "min.merged")
        winner_center = ws.bitand(merged, _PAIR_PAYLOAD_MASK, "min.wcenter")
        mine = ws.take(cu, unvis_pos, "min.mine")
        won = ws.equal(winner_center, mine, "min.won")

        # Winning component's vertices race one CAS to add w once.
        win_targets = ws.compress(won, targets, "min.wintargets")
        first_pos, new_vertices = first_winner(
            win_targets, workspace=ws, tracker=tracker, plan=plan
        )
        wc_won = ws.compress(won, winner_center, "min.wcwon")
        C[new_vertices] = wc_won[first_pos]
        if state.parent is not None:
            state.parent[new_vertices] = src[unvis_pos[won][first_pos]]
        # Mark claimed cells so later writeMins cannot touch them
        # (the paper sets C1[w] = -1; our pair array is per-DECOMP and
        # claimed vertices are excluded by C[w] != UNVISITED instead).
        tracker.add("scatter", work=float(new_vertices.size), depth=1.0)
        state.visited += int(new_vertices.size)

        # Losers: inter-component iff the winner differs (it does, by
        # definition of losing) — matches Algorithm 2 lines 32-35.
        lose_pos = ws.compress(
            ws.logical_not(won, "min.lost"), unvis_pos, "min.losepos"
        )
        state.keep_inter(
            cu[lose_pos], C[dst[lose_pos]], src[lose_pos], dst[lose_pos]
        )
        end_round(int(src.size))
    return new_vertices


def dense_round(state: "DecompState") -> np.ndarray:
    """One read-based round: unvisited vertices pull from the frontier.

    Returns the newly visited vertices (next frontier).  Charges the
    early-exit edge count as streaming ``scan`` work — no atomics.
    Tie-break-policy independent: whoever the tie-break rule would pick
    among concurrent writers, the pull sweep adopts the first frontier
    neighbor in adjacency order (a legal arbitrary-CRCW schedule).
    """
    tracker = current_context().tracker
    plan = current_context().fault_plan
    ws = state.workspace
    graph, C = state.graph, state.C

    on_frontier = ws.falses("dense.onfrontier", state.n)
    on_frontier[state.frontier] = True
    tracker.add("scatter", work=float(state.frontier.size), depth=1.0)

    unvisited = pack_index(ws.equal(C, UNVISITED, "dense.unvis"))
    if unvisited.size == 0:
        end_round()
        return np.zeros(0, dtype=np.int64)
    # charge_cost=False: only the early-exit edge count below is charged.
    src, dst = graph.expand(unvisited, charge_cost=False, workspace=ws)
    hit = ws.take(on_frontier, dst, "dense.hit")
    hit_positions = np.flatnonzero(hit)
    if hit_positions.size:
        first_pos, winners = first_winner(
            ws.take(src, hit_positions, "dense.race"),
            workspace=ws,
            tracker=tracker,
            plan=plan,
        )
        adopted_from = dst[hit_positions[first_pos]]
        C[winners] = C[adopted_from]
        if state.parent is not None:
            state.parent[winners] = adopted_from
        tracker.add("scatter", work=float(winners.size), depth=1.0)
        state.visited += int(winners.size)
    else:
        winners = np.zeros(0, dtype=np.int64)

    # Early-exit accounting: edges scanned up to the first hit (or the
    # whole list when there is none) — this is the work the paper's
    # read-based sweep saves over the write-based one.
    counts = ws.sub(
        ws.take(graph.offsets, unvisited + 1, "dense.offs1"),
        ws.take(graph.offsets, unvisited, "dense.offs0"),
        "dense.counts",
    )
    starts = ws.exclusive_cumsum(counts, "dense.starts")
    scanned = ws.as_float(counts, "dense.scanned")
    if hit_positions.size:
        order = np.searchsorted(unvisited, winners)
        scanned[order] = (hit_positions[first_pos] - starts[order] + 1).astype(
            np.float64
        )
    examined = int(scanned.sum())
    state.edges_inspected += examined
    tracker.add("scan", work=float(examined + unvisited.size), depth=1.0)
    end_round(examined)
    return winners


def filter_edges(state: "DecompState", deferred: List[np.ndarray]) -> None:
    """The post-processing phase: classify every deferred edge.

    *deferred* holds the frontiers of the dense rounds; their out-edges
    were never inspected write-based, so we stream over them once,
    keeping those whose endpoint labels differ (already relabeled to
    component ids, as everywhere else).
    """
    tracker = current_context().tracker
    if not deferred:
        return
    vertices = np.concatenate(deferred)
    if vertices.size == 0:
        return
    C = state.C
    ws = state.workspace
    src, dst = state.graph.expand(vertices, workspace=ws)
    state.edges_inspected += int(src.size)
    cu = ws.take(C, src, "filter.cu")
    cw = ws.take(C, dst, "filter.cw")
    tracker.add("scan", work=float(2 * src.size), depth=1.0)
    inter = ws.not_equal(cu, cw, "filter.inter")
    state.keep_inter(cu[inter], cw[inter], src[inter], dst[inter])
    end_round(int(src.size))


def bottom_up_step(
    graph: "CSRGraph",
    frontier_bitmap: np.ndarray,
    visited: np.ndarray,
    workspace: "Optional[NullWorkspace]" = None,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """One read-based (bottom-up) BFS round.

    Every unvisited vertex scans its neighbors in adjacency order and
    adopts the first one lying on the current frontier.  Returns
    ``(new_vertices, their_parents, edges_examined)`` where
    *edges_examined* counts edge inspections up to each early exit —
    the quantity the cost model charges.
    """
    tracker = current_context().tracker
    plan = current_context().fault_plan
    ws = workspace if workspace is not None else NULL_WORKSPACE
    unvisited = pack_index(ws.logical_not(visited, "bu.notvis"))
    if unvisited.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 0
    # charge_cost=False: only the early-exit edge count below is charged.
    src, dst = graph.expand(unvisited, charge_cost=False, workspace=ws)
    hit = ws.take(frontier_bitmap, dst, "bu.hit")
    # First frontier-neighbor per source, exploiting expand()'s grouped,
    # adjacency-ordered layout: the first occurrence of each source
    # among the hits is its earliest hit.
    hit_positions = np.flatnonzero(hit)
    if hit_positions.size:
        first_pos, winners = first_winner(
            ws.take(src, hit_positions, "bu.race"),
            workspace=ws,
            tracker=tracker,
            plan=plan,
        )
        parent_of_winner = dst[hit_positions[first_pos]]
    else:
        first_pos = np.zeros(0, dtype=np.int64)
        winners = np.zeros(0, dtype=np.int64)
        parent_of_winner = np.zeros(0, dtype=np.int64)

    # Early-exit cost: edges scanned = (position of first hit within the
    # source's slice) + 1, or the full degree when there is no hit.
    counts = ws.sub(
        ws.take(graph.offsets, unvisited + 1, "bu.offs1"),
        ws.take(graph.offsets, unvisited, "bu.offs0"),
        "bu.counts",
    )
    starts = ws.exclusive_cumsum(counts, "bu.starts")
    scanned = ws.as_float(counts, "bu.scanned")
    if winners.size:
        # Map winner vertex id -> its index within `unvisited` to find
        # the slice start of each winner.
        order = np.searchsorted(unvisited, winners)
        local_first = hit_positions[first_pos] - starts[order]
        scanned_winners = (local_first + 1).astype(np.float64)
        scanned[order] = scanned_winners
    edges_examined = int(scanned.sum())
    # Streaming reads, no atomics: the dense sweep's cache-friendliness.
    tracker.add("scan", work=float(edges_examined + unvisited.size), depth=1.0)
    tracker.add("scatter", work=float(winners.size), depth=1.0)
    return winners, parent_of_winner, edges_examined
