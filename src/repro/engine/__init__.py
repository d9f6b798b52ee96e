"""The unified level-synchronous traversal engine.

Every traversal in this reproduction — the three paper decomposition
variants, Decomp-Min-Hybrid, parallel BFS, direction-optimizing BFS,
and hybrid-BFS-CC — is one configuration of a single round loop:

    ``TraversalEngine(state, direction=..., tiebreak=...).run()``

The engine owns the frontier lifecycle (sparse/dense via
:class:`Frontier` and the shared :data:`DENSE_THRESHOLD` rule), the
round counter, and the one authoritative round boundary where
:class:`~repro.pram.cost.CostTracker` barriers are charged
(:func:`end_round`), :class:`~repro.resilience.policy.RoundBudget`
limits are checked, and :class:`~repro.resilience.faults.FaultPlan`
hooks fire.  What *varies* between algorithms is expressed as two
pluggable policies:

* :mod:`~repro.engine.tiebreak` — who wins concurrent claims
  (``arb`` = CAS race, ``min`` = writeMin over (delta', id) pairs);
* :mod:`~repro.engine.direction` — push vs. pull per round
  (always-push, always-pull, the paper's 20 % fraction rule, Ligra's
  edge-count rule);

plus a :class:`TraversalState` subclass holding the algorithm's arrays
and round kernels.  See ``docs/api.md`` for writing custom policies.
"""

from repro.engine.backend import (
    BACKENDS,
    DEFAULT_BACKEND_NAME,
    ExecutionBackend,
    current_backend,
    resolve_backend,
    use_backend,
)
from repro.engine.core import (
    UNVISITED,
    TraversalEngine,
    TraversalState,
    end_round,
)
from repro.engine.direction import (
    DIRECTION_POLICIES,
    AlwaysPull,
    AlwaysPush,
    DirectionPolicy,
    FractionHybrid,
    LigraEdgeHybrid,
    register_direction_policy,
)
from repro.engine.frontier import DENSE_THRESHOLD, Frontier
from repro.engine.kernels import (
    arb_round,
    bottom_up_step,
    dense_round,
    filter_edges,
    min_round,
)
from repro.engine.parallel import PARALLEL, ParallelWorkspace
from repro.engine.state import BFSTreeState, ComponentLabelState
from repro.engine.tiebreak import (
    TIEBREAK_POLICIES,
    ArbTiebreak,
    MinTiebreak,
    TiebreakPolicy,
    register_tiebreak_policy,
)
from repro.engine.workspace import (
    NULL_WORKSPACE,
    NullWorkspace,
    Workspace,
    make_workspace,
)

__all__ = [
    "ExecutionBackend",
    "BACKENDS",
    "DEFAULT_BACKEND_NAME",
    "current_backend",
    "resolve_backend",
    "use_backend",
    "Workspace",
    "NullWorkspace",
    "NULL_WORKSPACE",
    "make_workspace",
    "PARALLEL",
    "ParallelWorkspace",
    "TraversalEngine",
    "TraversalState",
    "end_round",
    "UNVISITED",
    "Frontier",
    "DENSE_THRESHOLD",
    "TiebreakPolicy",
    "ArbTiebreak",
    "MinTiebreak",
    "TIEBREAK_POLICIES",
    "register_tiebreak_policy",
    "DirectionPolicy",
    "AlwaysPush",
    "AlwaysPull",
    "FractionHybrid",
    "LigraEdgeHybrid",
    "DIRECTION_POLICIES",
    "register_direction_policy",
    "BFSTreeState",
    "ComponentLabelState",
    "arb_round",
    "min_round",
    "dense_round",
    "filter_edges",
    "bottom_up_step",
]
