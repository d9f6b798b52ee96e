"""Work/depth cost accounting for the simulated CRCW PRAM.

The paper analyses its algorithms in the work-depth model: *work* is the
total number of operations across all processors and *depth* is the
length of the critical path (number of parallel time steps).  Our Python
implementations execute each level-synchronous ``parfor`` as one
vectorized NumPy pass, which matches the PRAM semantics exactly but
erases the machine-level parallelism.  To reproduce the paper's timing
experiments we therefore account work and depth *explicitly*: every
parallel primitive reports the cost it would incur on a CRCW PRAM to the
ambient :class:`CostTracker`, and :mod:`repro.pram.machine` later
converts the accumulated (work, depth) profile into simulated seconds on
a machine with ``p`` cores.

Costs are bucketed two ways simultaneously:

* by **phase** — the paper's per-phase breakdowns (Figures 5-7) use the
  labels ``init``, ``bfsPre``, ``bfsPhase1``, ``bfsPhase2``, ``bfsMain``,
  ``bfsSparse``, ``bfsDense``, ``filterEdges`` and ``contractGraph``;
  phases nest and the innermost label wins;
* by **kind** — the memory-access class of the operation (sequential
  scan, random gather/scatter, atomic, sort, hash probe, purely
  sequential code), because these have very different per-element costs
  on a real machine and the machine model assigns each kind its own
  calibrated constant.

The active tracker rides in the process-wide
:class:`~repro.runtime.context.ExecutionContext` (a ``contextvars``
binding), so concurrent sessions in different threads or tasks each
accumulate into their own tracker with no cross-talk.  :func:`tracking`
derives and activates a child context; code reads the active tracker
as ``current_context().tracker``.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Protocol, Tuple

__all__ = [
    "CostKind",
    "CostTracker",
    "KINDS",
    "PhaseObserver",
    "SEQUENTIAL_KINDS",
    "tracking",
]


class PhaseObserver(Protocol):
    """Anything that wants to see phase windows open and close.

    Structurally matched by :class:`repro.obs.tracer.NullTracer` (and
    thus by the active tracer) without this module importing the
    observability layer.  Observers are notified *outside* the cost
    accounting: they may record but never charge.
    """

    def phase_begin(self, label: str) -> None: ...

    def phase_end(self, label: str) -> None: ...

#: Recognised operation kinds. ``seq`` marks inherently sequential code
#: (e.g. the serial union-find baseline) whose work cannot be divided
#: among processors by the machine model.
KINDS: Tuple[str, ...] = (
    "scan",  # streaming, unit-stride memory traffic (prefix sums, packs)
    "gather",  # random reads (CSR neighbor lookups, C[w] loads)
    "scatter",  # random writes (frontier marking, relabeling)
    "atomic",  # CAS / writeMin traffic, contended cache lines
    "sort",  # per-element cost of the radix integer sort
    "hash",  # per-probe cost of the phase-concurrent hash table
    "alloc",  # array allocation/initialisation
    "seq",  # inherently sequential work (not divisible by p)
)

#: Kinds whose work the machine model must NOT divide by the core count.
SEQUENTIAL_KINDS: Tuple[str, ...] = ("seq",)

CostKind = str


@dataclass
class _Bucket:
    """Accumulated cost for one (phase, kind) cell."""

    work: float = 0.0
    depth: float = 0.0

    def add(self, work: float, depth: float) -> None:
        self.work += work
        self.depth += depth


@dataclass
class CostTracker:
    """Accumulates (work, depth) by phase and kind.

    Depth accounting follows the level-synchronous discipline used by
    every algorithm in this package: callers charge depth via
    :meth:`add` (for a primitive whose critical path is known, e.g.
    ``log n`` for a prefix sum) or :meth:`sync` (for an explicit
    barrier between phases of a BFS round).  Because all our parallel
    loops are executed one synchronous round at a time, simply *summing*
    charged depth yields the critical-path length of the whole run —
    there is never uncharged overlap to subtract.

    Instances are cheap; create one per experiment run and activate it
    with :func:`tracking`.
    """

    buckets: Dict[Tuple[str, str], _Bucket] = field(default_factory=dict)
    _phase_stack: List[str] = field(default_factory=list)
    #: Number of sync points charged; exposed for tests and diagnostics.
    sync_count: int = 0
    #: Optional :class:`PhaseObserver` (the run's tracer) notified when
    #: phase windows open/close.  Observational only — never charged.
    observer: Optional[PhaseObserver] = None

    # -- phase management -------------------------------------------------

    @property
    def phase_label(self) -> str:
        """The innermost active phase label (``"unphased"`` if none)."""
        return self._phase_stack[-1] if self._phase_stack else "unphased"

    @contextlib.contextmanager
    def phase(self, label: str) -> Iterator[None]:
        """Attribute costs recorded inside the ``with`` body to *label*."""
        self._phase_stack.append(label)
        if self.observer is not None:
            self.observer.phase_begin(label)
        try:
            yield
        finally:
            self._phase_stack.pop()
            if self.observer is not None:
                self.observer.phase_end(label)

    # -- recording --------------------------------------------------------

    def add(self, kind: CostKind, work: float, depth: float = 0.0) -> None:
        """Charge *work* element-operations of *kind* and *depth* steps.

        ``work`` is in units of elementary operations (one edge
        inspected, one element scanned); ``depth`` is in units of PRAM
        time steps along the critical path.
        """
        if kind not in KINDS:
            raise ValueError(f"unknown cost kind {kind!r}; expected one of {KINDS}")
        key = (self.phase_label, kind)
        bucket = self.buckets.get(key)
        if bucket is None:
            bucket = self.buckets[key] = _Bucket()
        bucket.add(work, depth)

    def sync(self, depth: float = 1.0) -> None:
        """Charge a synchronisation barrier of *depth* time steps.

        Barriers are attributed to the ``scan`` kind (they cost no work)
        under the current phase.
        """
        self.sync_count += 1
        self.add("scan", 0.0, depth)

    # -- aggregation ------------------------------------------------------

    def total_work(self) -> float:
        return sum(b.work for b in self.buckets.values())

    def total_depth(self) -> float:
        return sum(b.depth for b in self.buckets.values())

    def work_by_kind(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for (_, kind), bucket in self.buckets.items():
            out[kind] = out.get(kind, 0.0) + bucket.work
        return out

    def depth_by_phase(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for (phase, _), bucket in self.buckets.items():
            out[phase] = out.get(phase, 0.0) + bucket.depth
        return out

    def work_by_phase(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for (phase, _), bucket in self.buckets.items():
            out[phase] = out.get(phase, 0.0) + bucket.work
        return out

    def phase_kind_work(self) -> Dict[str, Dict[str, float]]:
        """Nested ``{phase: {kind: work}}`` view, used by the machine model."""
        out: Dict[str, Dict[str, float]] = {}
        for (phase, kind), bucket in self.buckets.items():
            out.setdefault(phase, {})[kind] = (
                out.get(phase, {}).get(kind, 0.0) + bucket.work
            )
        return out

    def phase_kind_depth(self) -> Dict[str, Dict[str, float]]:
        """Nested ``{phase: {kind: depth}}`` view."""
        out: Dict[str, Dict[str, float]] = {}
        for (phase, kind), bucket in self.buckets.items():
            out.setdefault(phase, {})[kind] = (
                out.get(phase, {}).get(kind, 0.0) + bucket.depth
            )
        return out

    def merge(self, other: "CostTracker") -> None:
        """Fold *other*'s buckets into this tracker (phases preserved)."""
        for key, bucket in other.buckets.items():
            mine = self.buckets.get(key)
            if mine is None:
                mine = self.buckets[key] = _Bucket()
            mine.add(bucket.work, bucket.depth)
        self.sync_count += other.sync_count

    def snapshot(self) -> Dict[Tuple[str, str], Tuple[float, float]]:
        """Immutable copy of the bucket contents, for diffing in tests."""
        return {k: (b.work, b.depth) for k, b in self.buckets.items()}

    def clear(self) -> None:
        self.buckets.clear()
        self.sync_count = 0


class _NullTracker(CostTracker):
    """Tracker that discards everything — active when nothing else is.

    Using a do-nothing subclass (rather than ``if tracker is not None``
    checks at every call site) keeps primitive code branch-free.
    """

    def add(  # noqa: D102
        self, kind: CostKind, work: float, depth: float = 0.0
    ) -> None:
        if kind not in KINDS:  # keep the validation so bugs surface in tests
            raise ValueError(f"unknown cost kind {kind!r}; expected one of {KINDS}")

    def sync(self, depth: float = 1.0) -> None:  # noqa: D102
        pass


_NULL = _NullTracker()


@contextlib.contextmanager
def tracking(tracker: Optional[CostTracker] = None) -> Iterator[CostTracker]:
    """Activate *tracker* (a fresh one if ``None``) for the ``with`` body.

    Nesting is allowed; the innermost tracker receives the costs.  Use
    :meth:`CostTracker.merge` to roll a nested tracker into an outer
    one when sub-accounting is needed.  Implemented as a derived
    :class:`~repro.runtime.context.ExecutionContext` activation, so it
    is exception-safe and thread-isolated.
    """
    from repro.runtime.context import current_context

    tracker = tracker if tracker is not None else CostTracker()
    with current_context().child(tracker=tracker).activate():
        yield tracker
