"""ResilientRunner: retries, verification gating, graceful degradation.

Wraps the runtime layer's
:func:`~repro.runtime.session.execute_profiled` so one crash,
pathological seed, runaway loop, or injected mid-run fault no longer
loses a sweep:

* **per-cell retry** under a :class:`~repro.resilience.policy.
  RetryPolicy` — each attempt rotates the seed and charges exponential
  backoff in simulated cost to the eventual winner's profile (phase
  ``"resilience"``, kind ``"seq"``), so retried cells are visibly more
  expensive in the reported timings;
* **post-run verification gating** — every labeling is checked with
  :func:`~repro.analysis.verify.verify_labeling` (by
  ``execute_profiled``, so decomp-CC labelings are accepted on their
  certificate) *before* a cell is accepted, converting silent
  corruption into a retryable failure;
* **graceful degradation** — when an algorithm exhausts its attempts,
  the runner walks a configurable fallback chain (default:
  :data:`repro.experiments.registry.FALLBACK_CHAINS`, e.g.
  ``decomp-arb-hybrid-CC -> decomp-arb-CC -> serial-SF``) so the sweep
  degrades to a slower-but-sound implementation instead of dying;
* **structured failure log** — every failed attempt is a
  :class:`FailureRecord`; the log rides along in sweep artifacts (see
  :func:`repro.experiments.export.export_resilient_table2`) so an
  artifact records exactly how many retries each cell needed;
* **checkpoint/resume** — :meth:`ResilientRunner.run_table2` records
  each finished cell into a :class:`~repro.resilience.checkpoint.
  SweepCheckpoint`; an interrupted sweep resumed from the checkpoint
  recomputes nothing already recorded and reproduces the uninterrupted
  output (simulated values are pure functions of the inputs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.errors import ReproError, ResilienceExhaustedError
from repro.resilience.checkpoint import SweepCheckpoint
from repro.resilience.faults import FaultPlan
from repro.resilience.policy import RetryPolicy

__all__ = ["FailureRecord", "CellOutcome", "ResilientRunner"]


@dataclass
class FailureRecord:
    """One failed attempt at one sweep cell."""

    algorithm: str
    graph: str
    attempt: int
    seed: int
    error_type: str
    message: str
    reason: Optional[str] = None
    action: str = "retry"  # "retry" | "fallback" | "gave-up"

    def to_dict(self) -> Dict[str, object]:
        return {
            "algorithm": self.algorithm,
            "graph": self.graph,
            "attempt": self.attempt,
            "seed": self.seed,
            "error_type": self.error_type,
            "message": self.message,
            "reason": self.reason,
            "action": self.action,
        }


@dataclass
class CellOutcome:
    """One successfully produced sweep cell."""

    profile: object  # RunProfile
    requested: str
    algorithm: str  # implementation that actually produced the labeling
    attempts: int
    failures: List[FailureRecord] = field(default_factory=list)
    from_checkpoint: bool = False

    @property
    def degraded(self) -> bool:
        return self.algorithm != self.requested


def _algo_kwargs(algorithm: str, beta: float, seed: int, extra: Mapping) -> dict:
    """Keyword arguments *algorithm* accepts (decomp variants take beta/seed)."""
    if algorithm.startswith("decomp-"):
        return {"beta": beta, "seed": seed, **extra}
    return {}


class ResilientRunner:
    """Run sweep cells with retry, verification, fallback and checkpointing.

    Parameters
    ----------
    retry:
        The per-algorithm retry policy (default: 3 attempts with seed
        rotation and exponential simulated backoff).
    fallbacks:
        ``{algorithm: [fallback, ...]}`` degradation chains; defaults
        to :data:`repro.experiments.registry.FALLBACK_CHAINS`.  Pass
        ``{}`` to disable degradation.
    checkpoint:
        Optional :class:`SweepCheckpoint`; grid sweeps record each
        finished cell into it and skip already-recorded cells.
    verify:
        Gate every accepted labeling through ``verify_labeling``.
    fault_plan:
        Optional :class:`FaultPlan` activated around each attempt
        (testing / chaos-engineering hook; the plan's ``sabotage_runs``
        bounds how many attempts it corrupts).
    workers:
        Thread count bound into every attempt's execution context (the
        chunked ``parallel`` backend's pool width; serial backends
        ignore it).  ``None`` (default) inherits the ambient context's
        count at each attempt.
    """

    def __init__(
        self,
        retry: Optional[RetryPolicy] = None,
        fallbacks: Optional[Mapping[str, Sequence[str]]] = None,
        checkpoint: Optional[SweepCheckpoint] = None,
        verify: bool = True,
        fault_plan: Optional[FaultPlan] = None,
        workers: Optional[int] = None,
    ) -> None:
        if fallbacks is None:
            from repro.experiments.registry import FALLBACK_CHAINS

            fallbacks = FALLBACK_CHAINS
        self.retry = retry if retry is not None else RetryPolicy()
        self.fallbacks = {k: list(v) for k, v in fallbacks.items()}
        self.checkpoint = checkpoint
        self.verify = verify
        self.fault_plan = fault_plan
        #: None inherits the ambient context's worker count per attempt.
        self.workers = None if workers is None else max(1, int(workers))
        #: Every failed attempt across this runner's lifetime.
        self.failure_log: List[FailureRecord] = []
        #: Cells actually computed (excludes checkpoint replays).
        self.cells_computed = 0

    # -- single cell -------------------------------------------------------

    def run_cell(
        self,
        algorithm: str,
        graph,
        graph_name: str = "?",
        beta: float = 0.2,
        seed: int = 1,
        **extra,
    ) -> CellOutcome:
        """Produce one verified cell, retrying and degrading as needed.

        Raises :class:`ResilienceExhaustedError` when the requested
        algorithm *and* every fallback exhaust their attempts.
        """
        from repro.runtime.context import current_context
        from repro.runtime.session import execute_profiled

        metrics = current_context().metrics
        chain = [algorithm, *self.fallbacks.get(algorithm, [])]
        failures: List[FailureRecord] = []
        attempts = 0
        backoff = 0.0
        for chain_pos, algo in enumerate(chain):
            for attempt in self.retry.attempts():
                attempts += 1
                metrics.incr("resilience.attempts")
                attempt_seed = self.retry.seed_for(seed, attempt)
                backoff += self.retry.backoff_cost(attempt)
                try:
                    prof = execute_profiled(
                        algo,
                        graph,
                        graph_name=graph_name,
                        verify=self.verify,
                        fault_plan=self.fault_plan,
                        workers=self.workers,
                        **_algo_kwargs(algo, beta, attempt_seed, extra),
                    )
                except ReproError as exc:
                    # Only the package's own failure hierarchy is
                    # retryable: a ConvergenceError, VerificationError,
                    # or SanitizerError means *this run* went bad, and a
                    # rotated seed or a fallback algorithm can recover.
                    # Anything else (TypeError, MemoryError, ...) is a
                    # bug or an environment failure — retrying would
                    # mask it, so it propagates with its traceback.
                    last_in_chain = chain_pos == len(chain) - 1
                    last_attempt = attempt == self.retry.max_attempts - 1
                    record = FailureRecord(
                        algorithm=algo,
                        graph=graph_name,
                        attempt=attempt,
                        seed=attempt_seed,
                        error_type=type(exc).__name__,
                        message=str(exc),
                        reason=getattr(exc, "reason", None),
                        action=(
                            "gave-up"
                            if last_in_chain and last_attempt
                            else "fallback"
                            if last_attempt
                            else "retry"
                        ),
                    )
                    failures.append(record)
                    self.failure_log.append(record)
                    metrics.incr(f"resilience.{record.action}")
                    continue
                if backoff:
                    # The retries' penalty lands in the winner's profile
                    # so degraded cells report honestly slower times.
                    with prof.tracker.phase("resilience"):
                        prof.tracker.add("seq", work=backoff, depth=1.0)
                self.cells_computed += 1
                metrics.incr("resilience.cells")
                return CellOutcome(
                    profile=prof,
                    requested=algorithm,
                    algorithm=algo,
                    attempts=attempts,
                    failures=failures,
                )
        raise ResilienceExhaustedError(
            f"{algorithm} on {graph_name}: all {attempts} attempts across "
            f"chain {chain} failed "
            f"(last: {failures[-1].error_type}: {failures[-1].message})",
            failures=failures,
        )

    # -- whole sweep -------------------------------------------------------

    def run_table2(
        self,
        scale: str = "small",
        graphs=None,
        algorithms: Optional[Sequence[str]] = None,
        beta: float = 0.2,
        seed: int = 1,
    ) -> Dict[str, object]:
        """Resilient Table 2 sweep with per-cell checkpointing.

        Returns ``{"table", "attempts", "resolved", "failures"}`` where
        ``table`` is shape-compatible with
        :func:`repro.experiments.tables.run_table2` (extra per-cell
        keys ``attempts``/``algorithm`` ride along), ``resolved`` maps
        each cell to the implementation that actually produced it, and
        ``failures`` is the structured failure log.
        """
        from repro.experiments.registry import TABLE2_ALGORITHM_ORDER, build_suite
        from repro.runtime.context import current_context

        metrics = current_context().metrics
        graphs = graphs if graphs is not None else build_suite(scale)
        algorithms = list(algorithms) if algorithms else TABLE2_ALGORITHM_ORDER
        table: Dict[str, Dict[str, dict]] = {}
        attempts: Dict[str, Dict[str, int]] = {}
        resolved: Dict[str, Dict[str, str]] = {}
        failures: List[Dict[str, object]] = []
        for algo in algorithms:
            table[algo] = {}
            attempts[algo] = {}
            resolved[algo] = {}
            for gname, graph in graphs.items():
                if self.checkpoint is not None and self.checkpoint.has(algo, gname):
                    cell = dict(self.checkpoint.get(algo, gname))
                    metrics.incr("resilience.checkpoint.hit")
                else:
                    outcome = self.run_cell(
                        algo, graph, graph_name=gname, beta=beta, seed=seed
                    )
                    prof = outcome.profile
                    cell = {
                        "1": prof.seconds_at(1),
                        "40h": prof.seconds_at("40h"),
                        "wall": prof.wall_seconds,
                        "components": float(prof.result.num_components),
                        "attempts": outcome.attempts,
                        "algorithm": outcome.algorithm,
                        "failures": [r.to_dict() for r in outcome.failures],
                    }
                    if self.checkpoint is not None:
                        self.checkpoint.record(algo, gname, cell)
                        metrics.incr("resilience.checkpoint.record")
                table[algo][gname] = cell
                attempts[algo][gname] = int(cell.get("attempts", 1))
                resolved[algo][gname] = str(cell.get("algorithm", algo))
                failures.extend(cell.get("failures", []))
        return {
            "table": table,
            "attempts": attempts,
            "resolved": resolved,
            "failures": failures,
        }
