"""Execution backends: *how* the kernels run, never *what* they compute.

The engine's round kernels admit three executions of the same PRAM
step batch:

* ``reference`` — the historical kernels: every temporary is a fresh
  NumPy allocation, the CAS race resolves through a sort
  (``np.unique``) and the radix sort runs its per-digit passes.  Slow,
  but each round is exactly the code the golden parity fixture was
  captured against.
* ``fast`` — the same winner schedules, labelings and (work, depth)
  charges, with only the changes that measure a win: the CAS race
  resolves with an O(n) reverse-order scatter, the stable radix
  permutation is produced in one fused pass, and a per-run :class:`~repro.engine.workspace.Workspace` arena holds
  the round gathers, which lowers peak memory per labeling.
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
        through the kernels: arena gathers and scans, and the
        sort-free CAS-race resolution.
    fused_sort:
        Produce the stable radix permutation with one fused stable
        argsort instead of per-16-bit-digit passes.  Stable sorting
        permutations are unique, so the output is identical; the
        charged pass structure is unchanged.
    chunked:
        Execute the hot kernels in fixed-size chunks across the
        execution context's worker pool
        (:class:`~repro.engine.parallel.ParallelWorkspace`); the worker
        count rides in ``ExecutionContext.workers``.
    """

    name: str
    description: str
    use_workspace: bool
    fused_sort: bool
    chunked: bool = False


REFERENCE = ExecutionBackend(
    name="reference",
    description="byte-for-byte the historical kernels (fresh allocations, "
    "sort-based CAS resolution, per-digit radix passes)",
    use_workspace=False,
    fused_sort=False,
)

FAST = ExecutionBackend(
    name="fast",
    description="scatter CAS resolution, fused stable sort, arena gathers "
    "— identical outputs and charges",
    use_workspace=True,
    # Measured: per-digit passes instead make labelings 1.6-1.7x slower
    # on rMat-small, line 200k and random 400k.
    fused_sort=True,
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
