"""The explicit execution context: one object instead of four globals.

Historically every run communicated with the kernels through four
separate module-global mutable stacks — the cost tracker
(``pram.cost``), the fault plan (``resilience.faults``), the race
sanitizer (``pram.sanitizer``) and the execution backend
(``engine.backend``).  That ambient-state pattern is exactly what the
reprolint pass polices *inside* kernels, and it makes concurrent
service-style execution (the ROADMAP north star) impossible: two
threads pushing onto one stack corrupt each other's accounting.

:class:`ExecutionContext` bundles all of that per-run state into one
immutable-by-convention record carried in a single
:data:`contextvars.ContextVar`.  ``contextvars`` gives every thread —
and every asyncio task — its own independent binding, so concurrent
:class:`~repro.runtime.session.Session` objects are isolated for free:
a tracker activated in one thread is invisible to every other.

The reading side is :func:`current_context`; kernels use it as::

    ctx = current_context()
    ctx.tracker.add("scan", work=float(n), depth=1.0)
    if ctx.fault_plan is not None: ...

The writing side is :meth:`ExecutionContext.activate` — the single
exception-safe push/pop in the whole package (a ``ContextVar`` token
reset in ``finally``).  The scoped context managers (``tracking``,
``sanitizing``, ``use_backend``, ``FaultPlan.activate``) are thin
wrappers that derive a :meth:`child` context and activate it.
"""

from __future__ import annotations

import contextlib
import threading
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterator, List, Optional

import numpy as np

from repro.obs.metrics import NULL_METRICS, NullMetrics
from repro.obs.tracer import NULL_TRACER, NullTracer
from repro.pram.cost import _NULL, CostTracker

if TYPE_CHECKING:
    from repro.engine.backend import ExecutionBackend
    from repro.engine.workspace import NullWorkspace
    from repro.pram.sanitizer import PramSanitizer
    from repro.resilience.faults import FaultPlan

__all__ = ["ExecutionContext", "current_context", "root_context"]


def _default_backend() -> "ExecutionBackend":
    # Imported lazily so this module stays below the engine in the
    # layering — the primitives and graphs layers import it at module
    # level.
    from repro.engine.backend import BACKENDS, DEFAULT_BACKEND_NAME

    return BACKENDS[DEFAULT_BACKEND_NAME]


@dataclass
class ExecutionContext:
    """Everything one run needs, bundled and thread-isolated.

    Attributes
    ----------
    tracker:
        The (work, depth) accumulator charges land in.  Defaults to the
        shared discard-everything null tracker, so uninstrumented code
        costs one no-op method call.
    backend:
        The :class:`~repro.engine.backend.ExecutionBackend` kernels
        consult for their execution strategy.
    fault_plan:
        The armed :class:`~repro.resilience.faults.FaultPlan`, or
        ``None`` (the common, free case).
    sanitizer:
        The active :class:`~repro.pram.sanitizer.PramSanitizer`, or
        ``None``.
    workspace:
        An optional pooled :class:`~repro.engine.workspace.Workspace`
        arena offered to the next run (see :meth:`acquire_workspace`).
    workers:
        Worker-thread count for the chunked (``parallel``) backend's
        persistent pool; the serial backends ignore it.  Clamped to at
        least 1.
    seed / rng:
        The context's seed and the generator derived from it; a
        :class:`~repro.runtime.session.Session` threads its seed here
        so host-side randomness is reproducible per context.
    tracer:
        The :mod:`repro.obs` span recorder.  Defaults to the shared
        no-op :data:`~repro.obs.tracer.NULL_TRACER`; instrumented code
        guards any bookkeeping behind ``tracer.enabled``.
    metrics:
        The :mod:`repro.obs` counter/histogram registry; defaults to
        the no-op :data:`~repro.obs.metrics.NULL_METRICS`.
    forest_sink:
        A list that decomp-CC runs append their labeling's certificate
        to: a parent array over the input graph whose trees span its
        components (checked by
        :func:`~repro.analysis.verify.verify_labeling`).  ``None``, the
        default, records nothing, so unverified runs execute no
        certificate code.
    """

    tracker: CostTracker = field(default_factory=lambda: _NULL)
    backend: "ExecutionBackend" = field(default_factory=_default_backend)
    fault_plan: "Optional[FaultPlan]" = None
    sanitizer: "Optional[PramSanitizer]" = None
    workspace: "Optional[NullWorkspace]" = None
    workers: int = 1
    seed: int = 0
    rng: Optional[np.random.Generator] = None
    tracer: NullTracer = field(default_factory=lambda: NULL_TRACER)
    metrics: NullMetrics = field(default_factory=lambda: NULL_METRICS)
    forest_sink: Optional[List[np.ndarray]] = None

    def __post_init__(self) -> None:
        self.workers = max(1, int(self.workers))
        if self.rng is None:
            self.rng = np.random.default_rng(self.seed)

    # -- derivation --------------------------------------------------------

    def child(self, **overrides: object) -> "ExecutionContext":
        """A copy of this context with *overrides* replaced.

        The derived context shares every field it does not override
        (including the ``rng`` instance — override ``seed`` to get a
        fresh, reproducible stream).
        """
        if "seed" in overrides and "rng" not in overrides:
            overrides["rng"] = np.random.default_rng(int(overrides["seed"]))  # type: ignore[arg-type]
        return replace(self, **overrides)  # type: ignore[arg-type]

    # -- activation (the one push/pop in the package) ----------------------

    @contextlib.contextmanager
    def activate(self) -> Iterator["ExecutionContext"]:
        """Install this context for the ``with`` body.

        Exception-safe by construction: the ``ContextVar`` token is
        reset in ``finally``, so no failure path can leave a stale
        context installed — the bug class the old module-level
        push/pop stacks could not rule out.

        Machine-checked (``repro lint`` RL008): the typestate analysis
        proves the ``set``/``reset`` pair is balanced on every CFG
        path out of this method, exceptional paths included.
        """
        token = _CONTEXT.set(self)
        try:
            yield self
        finally:
            _CONTEXT.reset(token)

    # -- workspace pooling -------------------------------------------------

    def acquire_workspace(self, num_vertices: int) -> "NullWorkspace":
        """Claim the pooled arena, or build a fresh one.

        Claim-once semantics: the first state that asks takes the
        pooled workspace and the field is cleared, so nested states
        (contraction recursion) build their own arenas instead of
        aliasing buffers that are still live in their parent.  The
        :class:`~repro.runtime.session.Session` that owns the pool
        keeps its own reference and re-offers the arena to the next
        run.

        Machine-checked (``repro lint`` RL008): callers must bind the
        result and may claim at most once per function — a discarded
        or double ``acquire_workspace`` call is a lint violation.
        """
        ws = self.workspace
        if ws is not None and self.backend.use_workspace:
            self.workspace = None
            return ws
        from repro.engine.workspace import make_workspace

        return make_workspace(self.backend, num_vertices, self.workers)


#: The ambient default: null tracker, process-default backend, nothing
#: armed.  Created lazily (its backend field resolves through the
#: engine layer).
_ROOT: Optional[ExecutionContext] = None
_ROOT_LOCK = threading.Lock()

_CONTEXT: ContextVar[Optional[ExecutionContext]] = ContextVar(
    "repro_execution_context", default=None
)


def current_context() -> ExecutionContext:
    """The innermost activated context, or the process root."""
    ctx = _CONTEXT.get()
    return ctx if ctx is not None else root_context()


def root_context() -> ExecutionContext:
    """The process-root context (what runs see outside any activation)."""
    global _ROOT
    if _ROOT is None:
        with _ROOT_LOCK:
            if _ROOT is None:
                _ROOT = ExecutionContext()
    return _ROOT
