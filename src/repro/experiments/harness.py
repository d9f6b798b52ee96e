"""Experiment harness: run (algorithm x graph) cells, collect profiles.

One :func:`profile_run` executes an algorithm exactly once under a
fresh cost tracker, verifies the labeling, and returns a
:class:`RunProfile` bundling the labeling result, the tracker and the
real wall-clock time.  Because the simulated time at *any* thread count
is a pure function of the tracker, a single execution yields the whole
thread sweep — that is how the reproduction affords Figure 2's
8 implementations x 9 thread counts x 6 graphs grid.

The paper reports the median of three trials; :func:`median_simulated`
mirrors that by re-running with distinct seeds where the algorithm is
randomized.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.connectivity.base import ConnectivityResult
from repro.experiments.registry import get_algorithm
from repro.graphs.csr import CSRGraph
from repro.pram.cost import CostTracker
from repro.pram.machine import MachineModel, ThreadSpec, paper_thread_sweep
from repro.resilience.faults import FaultPlan

__all__ = ["RunProfile", "profile_run", "sweep_seconds", "median_simulated"]


@dataclass
class RunProfile:
    """Everything one measured cell of the evaluation needs.

    Attributes
    ----------
    result:
        The labeling and per-algorithm metadata.
    tracker:
        The work/depth profile; feed to a MachineModel for seconds.
    wall_seconds:
        Real single-core NumPy execution time (pytest-benchmark also
        measures this independently).
    verify_seconds:
        Wall-clock time of the labeling's verification (0.0 when the
        run was not verified).
    """

    algorithm: str
    graph_name: str
    result: ConnectivityResult
    tracker: CostTracker
    wall_seconds: float
    verify_seconds: float = 0.0

    def seconds_at(
        self, threads: ThreadSpec, base: Optional[MachineModel] = None
    ) -> float:
        model = (base or MachineModel()).with_threads(threads)
        return model.time_seconds(self.tracker)

    def sweep(
        self,
        specs: Optional[Sequence[ThreadSpec]] = None,
        base: Optional[MachineModel] = None,
    ) -> Dict[str, float]:
        model = base or MachineModel()
        return model.sweep_seconds(self.tracker, specs)

    def phase_seconds_at(
        self, threads: ThreadSpec, base: Optional[MachineModel] = None
    ) -> Dict[str, float]:
        model = (base or MachineModel()).with_threads(threads)
        return model.phase_seconds(self.tracker)


def profile_run(
    algorithm: str,
    graph: CSRGraph,
    graph_name: str = "?",
    verify: bool = True,
    fault_plan: Optional[FaultPlan] = None,
    **algorithm_kwargs,
) -> RunProfile:
    """Run *algorithm* once on *graph* under a fresh tracker.

    ``algorithm`` is a registry name (see
    :data:`repro.experiments.registry.ALGORITHMS`); keyword arguments
    are forwarded (e.g. ``beta=0.1, seed=3`` for the decomp variants).
    An optional :class:`~repro.resilience.faults.FaultPlan` is armed
    for the duration of the run (each call counts as one run against
    the plan's sabotage budget).

    Thin wrapper over the runtime layer's
    :func:`~repro.runtime.session.execute_profiled`, which derives one
    execution context per run; kept as the historical name the
    experiment/figure code calls.
    """
    from repro.runtime.session import execute_profiled

    return execute_profiled(
        algorithm,
        graph,
        graph_name=graph_name,
        verify=verify,
        fault_plan=fault_plan,
        **algorithm_kwargs,
    )


def sweep_seconds(
    profile: RunProfile, specs: Optional[Sequence[ThreadSpec]] = None
) -> Dict[str, float]:
    """Simulated seconds across a thread sweep (default: the paper's)."""
    return profile.sweep(specs if specs is not None else paper_thread_sweep())


def median_simulated(
    algorithm: str,
    graph: CSRGraph,
    threads: ThreadSpec,
    trials: int = 3,
    graph_name: str = "?",
    seed: int = 1,
    **algorithm_kwargs,
) -> float:
    """Median simulated seconds over *trials* seeds (paper methodology).

    Deterministic algorithms accept no ``seed`` and are run once.
    """
    spec = get_algorithm(algorithm)
    takes_seed = algorithm.startswith("decomp-")
    times: List[float] = []
    n_runs = trials if takes_seed else 1
    for trial in range(n_runs):
        kwargs = dict(algorithm_kwargs)
        if takes_seed:
            kwargs["seed"] = seed + 7919 * trial
        prof = profile_run(
            algorithm, graph, graph_name=graph_name, verify=False, **kwargs
        )
        times.append(prof.seconds_at(threads))
    return statistics.median(times)
