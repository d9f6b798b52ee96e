"""Execution backends: *how* the kernels run, never *what* they compute.

The engine's round kernels admit three executions of the same PRAM
step batch:

* ``reference`` — the historical kernels: every temporary is a fresh
  NumPy allocation, the CAS race resolves through a sort
  (``np.unique``), the radix sort runs its per-digit passes, and every
  contraction level re-validates the CSR invariants it just
  established.  Slow, but each round is exactly the code the golden
  parity fixture was captured against.
* ``fast`` — the same winner schedules, labelings and (work, depth)
  charges, computed without the wall-clock waste: per-run
  :class:`~repro.engine.workspace.Workspace` arenas replace the
  steady-state allocations, the CAS race resolves with an O(n)
  reverse-order scatter, the stable radix permutation is produced in
  one fused pass, dense rounds reuse arena bitmaps, and contraction
  builds its sub-graphs through the trusted (validation-free)
  constructor path.
* ``parallel`` — the fast kernels executed across a persistent thread
  pool (:mod:`repro.engine.parallel`): fixed-size chunks over
  vertex/edge ranges, per-worker workspace shards for the CRCW
  reductions, and a sequential deterministic combine, so outputs and
  charges stay byte-identical to ``fast`` at any worker count.

The parity contract — enforced by ``tests/test_engine_parity.py``
replaying the golden fixture under *both* backends — is that switching
backends changes no observable output and no charged cost.  The
simulated cost model charges are explicit ``tracker.add`` calls
computed from sizes, so the fast variants are free to change the
NumPy execution underneath them.

Selection: ``fast`` is the default.  The bound backend rides in the
:class:`~repro.runtime.context.ExecutionContext`
(``current_context().backend``); :func:`use_backend` scopes a switch
to a ``with`` block by activating a derived context (the parity tests
do this), and the CLI's ``--backend`` flag builds its command context
with the chosen backend.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Union

from repro.errors import ParameterError

__all__ = [
    "ExecutionBackend",
    "BACKENDS",
    "DEFAULT_BACKEND_NAME",
    "current_backend",
    "resolve_backend",
    "use_backend",
]


@dataclass(frozen=True)
class ExecutionBackend:
    """One named execution strategy for the round kernels.

    Attributes
    ----------
    use_workspace:
        Thread a per-run :class:`~repro.engine.workspace.Workspace`
        arena through the kernels so steady-state rounds perform zero
        large allocations (``out=`` writes into reused arena slices).
    scatter_first_winner:
        Resolve the arbitrary-CRCW race with the O(n) reverse-order
        scatter instead of the sort-based ``np.unique`` pass.  Both
        pick the first occurrence per destination, so the winner
        schedule is identical.
    fused_sort:
        Produce the stable radix permutation with one fused stable
        argsort instead of per-16-bit-digit passes.  Stable sorting
        permutations are unique, so the output is identical; the
        charged pass structure is unchanged.
    bitmap_dense:
        Reuse arena bitmaps on the dense (pull) rounds instead of
        materializing fresh boolean arrays per round.
    trusted_contraction:
        Build contraction sub-graphs via the trusted constructor path
        (skip re-validating invariants the contraction itself just
        established); public builders still validate.
    chunked:
        Execute the hot kernels in fixed-size chunks across the
        execution context's worker pool
        (:class:`~repro.engine.parallel.ParallelWorkspace`); the worker
        count rides in ``ExecutionContext.workers``.
    """

    name: str
    description: str
    use_workspace: bool
    scatter_first_winner: bool
    fused_sort: bool
    bitmap_dense: bool
    trusted_contraction: bool
    chunked: bool = False


REFERENCE = ExecutionBackend(
    name="reference",
    description="byte-for-byte the historical kernels (fresh allocations, "
    "sort-based CAS resolution, per-digit radix passes, validating builders)",
    use_workspace=False,
    scatter_first_winner=False,
    fused_sort=False,
    bitmap_dense=False,
    trusted_contraction=False,
)

FAST = ExecutionBackend(
    name="fast",
    description="zero-allocation round kernels: workspace arenas, scatter "
    "CAS resolution, fused stable sort, bitmap dense rounds, trusted "
    "contraction constructors — identical outputs and charges",
    use_workspace=True,
    scatter_first_winner=True,
    fused_sort=True,
    bitmap_dense=True,
    trusted_contraction=True,
)

#: Name -> backend; the CLI's ``--backend`` choices and the wall-clock
#: bench enumerate this.
BACKENDS: Dict[str, ExecutionBackend] = {
    REFERENCE.name: REFERENCE,
    FAST.name: FAST,
}

DEFAULT_BACKEND_NAME = FAST.name


def resolve_backend(
    spec: Union[str, ExecutionBackend, None],
) -> ExecutionBackend:
    """Turn a name / instance / None into a backend (None = current)."""
    if spec is None:
        return current_backend()
    if isinstance(spec, ExecutionBackend):
        return spec
    try:
        return BACKENDS[spec]
    except KeyError:
        raise ParameterError(
            f"unknown execution backend {spec!r} "
            f"(choose from {sorted(BACKENDS)})"
        ) from None


def current_backend() -> ExecutionBackend:
    """The backend new runs bind to (the execution context's binding)."""
    from repro.runtime.context import current_context

    return current_context().backend


@contextmanager
def use_backend(spec: Union[str, ExecutionBackend]) -> Iterator[ExecutionBackend]:
    """Scope a backend switch to a ``with`` block (re-entrant).

    Activates a derived execution context, so the switch is
    exception-safe and isolated to the calling thread/task.
    """
    from repro.runtime.context import current_context

    backend = resolve_backend(spec)
    with current_context().child(backend=backend).activate():
        yield backend


# Registration side effect: importing the registry always registers the
# parallel backend too (repro.engine.parallel appends itself to
# BACKENDS).  The import sits at module bottom so parallel.py can in
# turn import ExecutionBackend/BACKENDS from the (by then initialised)
# top of this module without a cycle.
import repro.engine.parallel as _parallel  # noqa: E402,F401  isort:skip
