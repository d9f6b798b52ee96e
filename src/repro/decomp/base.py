"""Shared machinery for the three DECOMP implementations.

A decomposition run produces a :class:`Decomposition`: per-vertex
component labels (each label is the id of the component's BFS center),
the directed inter-component edges expressed as label pairs (the paper
relabels edge endpoints to component ids on the fly, so the contraction
phase never revisits the original edge array), and per-round statistics
that feed the analysis module and Figures 4-7.

The helpers here implement the parts all variants share verbatim:
parameter validation, consuming the shift schedule ("bfsPre" — new
centers are appended to the single shared frontier array) and
assembling the result.  :class:`DecompState` is the decomposition
family's :class:`~repro.engine.core.TraversalState`: the variant
modules configure a :class:`~repro.engine.core.TraversalEngine` around
it and the engine drives the rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.decomp.shifts import ShiftSchedule
from repro.engine.core import UNVISITED, TraversalEngine, TraversalState, end_round
from repro.engine.kernels import dense_round, filter_edges
from repro.errors import ParameterError
from repro.graphs.csr import CSRGraph
from repro.resilience.policy import RoundBudget
from repro.runtime.context import current_context

__all__ = ["Decomposition", "DecompState", "UNVISITED", "validate_beta"]


def validate_beta(beta: float) -> None:
    """Reject out-of-range decomposition parameters (shared by all variants).

    The paper's analysis needs ``0 < beta < 1``: beta = 0 never starts
    new centers, beta >= 1 starts everything at once.
    """
    if not 0.0 < beta < 1.0:
        raise ParameterError(f"beta must be in (0,1), got {beta}")


@dataclass
class Decomposition:
    """Result of one low-diameter decomposition.

    Attributes
    ----------
    labels:
        ``labels[v]`` is the id of the BFS center whose partition owns
        ``v``; every vertex is owned (isolated vertices own themselves).
    inter_src / inter_dst:
        Directed inter-component edges as *label* pairs — for each
        surviving directed edge (u, w), the pair
        ``(labels[u], labels[w])`` with the two differing.  Both
        orientations of every surviving undirected edge appear, as in
        the paper's symmetric edge storage.
    orig_src / orig_dst:
        The original endpoints (u, w) of each surviving edge, aligned
        with ``inter_src``/``inter_dst``.  Lets contraction carry a
        representative original edge per contracted edge, which the
        spanning-forest extraction (paper footnote 1's converse) needs
        to map tree edges of the contracted graph back to real edges.
    num_rounds:
        BFS rounds executed (the paper's O(log n / beta) bound).
    frontier_sizes:
        Vertices on the frontier per round.
    edges_inspected:
        Directed edge inspections charged during the BFS phases —
        differs between variants (the hybrid's early exits) and is what
        the breakdown figures visualise.
    dense_rounds:
        Round indices the hybrid ran read-based (empty for min/arb).
    parents:
        The BFS trees that grew the partitions, as parent pointers:
        each claimed vertex points at the frontier vertex that claimed
        it, each center at itself.  Recorded only when the execution
        context collects certificates (``forest_sink``); else ``None``.
    """

    labels: np.ndarray
    inter_src: np.ndarray
    inter_dst: np.ndarray
    orig_src: np.ndarray
    orig_dst: np.ndarray
    num_rounds: int
    frontier_sizes: List[int] = field(default_factory=list)
    edges_inspected: int = 0
    dense_rounds: List[int] = field(default_factory=list)
    parents: Optional[np.ndarray] = None

    @property
    def num_inter_directed(self) -> int:
        """Directed inter-component edge count (2x the undirected count)."""
        return int(self.inter_src.size)

    @property
    def num_components(self) -> int:
        return int(np.unique(self.labels).size) if self.labels.size else 0

    def component_sizes(self) -> np.ndarray:
        """Sizes of the partitions, in ascending center-id order."""
        if self.labels.size == 0:
            return np.zeros(0, dtype=np.int64)
        return np.bincount(self.labels, minlength=self.labels.size)[
            np.unique(self.labels)
        ]


class DecompState(TraversalState):
    """Mutable per-run state shared by the decomposition main loops.

    Owns the component array ``C`` (the paper's C / C2), the schedule,
    the shared frontier, and the growing inter-edge output lists.  As a
    :class:`~repro.engine.core.TraversalState` it plugs into the
    :class:`~repro.engine.core.TraversalEngine`: ``begin_round`` is the
    center-seeding / resilience boundary (:meth:`start_new_centers`),
    ``push_round`` delegates to the configured tie-break policy, and
    ``pull_round`` is the read-based sweep whose inspected edges are
    deferred to the ``filterEdges`` pass in :meth:`finalize`.
    """

    def __init__(
        self,
        graph: CSRGraph,
        beta: float,
        seed: int,
        mode: str,
        budget: Optional[RoundBudget] = None,
        algorithm: str = "decomp",
    ) -> None:
        if not graph.symmetric:
            raise ParameterError("decomposition requires a symmetric graph")
        self.graph = graph
        n = graph.num_vertices
        self.budget = (
            budget
            if budget is not None
            else RoundBudget.for_decomposition(n, beta, algorithm=algorithm)
        )
        tracker = current_context().tracker
        with tracker.phase("init"):
            self.schedule = ShiftSchedule(
                n=n, beta=beta, seed=seed, mode=mode  # type: ignore[arg-type]
            )
            self.C = np.full(n, UNVISITED, dtype=np.int64)
            tracker.add("alloc", work=float(n), depth=1.0)
        # Execution-backend arena: the round kernels route their
        # scratch arrays through this (a NullWorkspace under the
        # reference backend).  Never charged — it changes how rounds
        # run, not what they compute or cost.
        self.workspace = current_context().acquire_workspace(n)
        #: BFS-tree parents for the labeling's certificate; every vertex
        #: starts as its own parent, so centers need no store.  Never
        #: charged: the certificate is not part of the algorithm.
        self.parent: Optional[np.ndarray] = (
            np.arange(n, dtype=np.int64)
            if current_context().forest_sink is not None
            else None
        )
        self.frontier = np.zeros(0, dtype=np.int64)
        self.consumed = 0
        self.visited = 0
        self.round = 0
        self.inter_src_chunks: List[np.ndarray] = []
        self.inter_dst_chunks: List[np.ndarray] = []
        self.orig_src_chunks: List[np.ndarray] = []
        self.orig_dst_chunks: List[np.ndarray] = []
        self.frontier_sizes: List[int] = []
        self.edges_inspected = 0
        self.dense_rounds: List[int] = []
        #: Frontiers of the read-based rounds, whose out-edges await
        #: the post-loop filterEdges classification.
        self.deferred: List[np.ndarray] = []

    @property
    def n(self) -> int:
        return self.graph.num_vertices

    @property
    def visited_count(self) -> int:
        """Vertices owned by some component so far (engine interface)."""
        return self.visited

    @property
    def done(self) -> bool:
        """All vertices visited and all frontier work drained."""
        return self.visited >= self.n and self.frontier.size == 0

    # -- engine interface ---------------------------------------------------

    def initial_frontier(self) -> np.ndarray:
        return np.zeros(0, dtype=np.int64)

    def shared_arrays(self) -> dict:
        return {"C": self.C}

    def begin_round(self, engine: TraversalEngine, next_frontier: np.ndarray) -> None:
        self.start_new_centers(next_frontier)

    def note_dense_round(self) -> None:
        self.dense_rounds.append(self.round)
        self.deferred.append(self.frontier)

    def push_round(self, engine: TraversalEngine) -> np.ndarray:
        return engine.tiebreak.push_round(self, engine)

    def pull_round(self, engine: TraversalEngine) -> np.ndarray:
        with current_context().tracker.phase("bfsDense"):
            return dense_round(self)

    def finalize(self, engine: TraversalEngine) -> None:
        # A no-op (and charge-free) pass for push-only runs; for the
        # hybrids it classifies every edge the dense rounds skipped.
        with current_context().tracker.phase("filterEdges"):
            filter_edges(self, self.deferred)

    def start_new_centers(self, next_frontier: np.ndarray) -> None:
        """The "bfsPre" step: pull due candidates, start the unvisited ones.

        New BFS centers set ``C[v] = v`` and are appended to the end of
        the shared frontier array, after the vertices discovered last
        round — exactly the frontier layout of the paper's
        implementation.

        This is also the round boundary, so two resilience hooks live
        here: the :class:`RoundBudget` check (a runaway loop raises a
        structured :class:`~repro.errors.ConvergenceError` instead of
        spinning) and the frontier/label fault-injection points of an
        armed :class:`~repro.resilience.faults.FaultPlan`.
        """
        self.budget.check(self.round)
        tracker = current_context().tracker
        plan = current_context().fault_plan
        with tracker.phase("bfsPre"):
            cum = self.schedule.cumulative(self.round)
            candidates = self.schedule.order[self.consumed : cum]
            self.consumed = cum
            tracker.add("gather", work=float(candidates.size), depth=1.0)
            fresh = candidates[self.C[candidates] == UNVISITED]
            if fresh.size:
                sanitizer = current_context().sanitizer
                if sanitizer is not None:
                    # Self-claim seeding: distinct unvisited vertices,
                    # single writer each — declared, so the shadow check
                    # knows these cells changed legally.
                    sanitizer.record_write(self.C, fresh)
                self.C[fresh] = fresh
                tracker.add("scatter", work=float(fresh.size), depth=1.0)
                self.visited += int(fresh.size)
            frontier = (
                np.concatenate((next_frontier, fresh))
                if next_frontier.size or fresh.size
                else next_frontier
            )
            if plan is not None:
                frontier = plan.filter_frontier(frontier, self.round)
                plan.corrupt_labels(self.C, self.round, int(UNVISITED))
            self.frontier = frontier
            self.frontier_sizes.append(int(self.frontier.size))
            end_round(packing="unit")

    def keep_inter(
        self,
        src_labels: np.ndarray,
        dst_labels: np.ndarray,
        orig_src: np.ndarray,
        orig_dst: np.ndarray,
    ) -> None:
        """Record surviving (inter-component) directed edges.

        *src_labels*/*dst_labels* are the relabeled (component-id)
        endpoints; *orig_src*/*orig_dst* the original vertex pair, kept
        so contraction can nominate representative real edges.
        """
        if src_labels.size:
            self.inter_src_chunks.append(src_labels)
            self.inter_dst_chunks.append(dst_labels)
            self.orig_src_chunks.append(orig_src)
            self.orig_dst_chunks.append(orig_dst)

    def finish(self) -> Decomposition:
        """Assemble the result after the main loop drains."""
        if self.inter_src_chunks:
            inter_src = np.concatenate(self.inter_src_chunks)
            inter_dst = np.concatenate(self.inter_dst_chunks)
            orig_src = np.concatenate(self.orig_src_chunks)
            orig_dst = np.concatenate(self.orig_dst_chunks)
        else:
            inter_src = np.zeros(0, dtype=np.int64)
            inter_dst = np.zeros(0, dtype=np.int64)
            orig_src = np.zeros(0, dtype=np.int64)
            orig_dst = np.zeros(0, dtype=np.int64)
        return Decomposition(
            labels=self.C.copy(),
            inter_src=inter_src,
            inter_dst=inter_dst,
            orig_src=orig_src,
            orig_dst=orig_dst,
            num_rounds=self.round,
            frontier_sizes=self.frontier_sizes,
            edges_inspected=self.edges_inspected,
            dense_rounds=self.dense_rounds,
            parents=self.parent,
        )
