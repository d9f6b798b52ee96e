"""The three workloads and the request cycle they share.

Every workload is a closed loop with one client in one process: a
:class:`repro.runtime.session.Session` over one generated graph, driven
in request cycles of one fresh labeling (a memo miss, new algorithm
seed) followed by memo-hit queries on that labeling, in blocks of
:data:`QUERY_BLOCK`.  ``rmat-session`` sends 200 queries per labeling;
the other two send 40, so that labelings dominate their run time.  Each
workload runs the library's default backend and default beta.

Each workload labels one graph of the experiment registry
(``repro.experiments.registry.GRAPHS``), built by the public generator
with the registry's seed and size: rMat at ``small``, line and random
at ``medium``.  Every other input derives from the workload seed: every
algorithm seed and every query pair.  The graph does not, because
labeling time differs between graphs of one generator by more than the
benchmark's bounds: on random 5-regular, n=400k, the median labeling of
one generator seed took 1.35x that of three others, timed interleaved
in one process.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np
from oracle import Truth, check_answer, same_partition

import repro.graphs as graphs
from repro.experiments.harness import RunProfile
from repro.graphs import CSRGraph
from repro.obs import NULL_TRACER, NullTracer
from repro.runtime.session import Session

#: One block of memo-hit queries, in the order they are sent.  The mix
#: is fixed (9:9:1:1), so the p98 and p99 latencies fall inside the
#: share of the two whole-labeling queries.
QUERY_BLOCK = ("connected", "connected_batch") * 9 + (
    "num_components",
    "component_sizes",
)
QUERY_KINDS = tuple(dict.fromkeys(QUERY_BLOCK))
#: Vertex pairs per ``connected_batch`` query.
BATCH_PAIRS = 1000
#: The generator seed of every workload's graph, as in the registry.
GRAPH_SEED = 1
#: Set-ups per run, at least this many for at least this long;
#: ``setup_s`` is their median.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
#: Untimed request cycles before timing starts: at least this many, for
#: at least this long.  The first labelings in a process run slower.
WARMUP_CYCLES = 2
WARMUP_SECONDS = 1.5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int], CSRGraph]
    #: Extra :class:`Session` arguments; empty means library defaults.
    session_kwargs: Dict[str, object] = field(default_factory=dict)
    #: Query blocks after each fresh labeling.
    query_blocks: int = 10
    #: Fresh labelings in the memory pass.
    memory_misses: int = 5

    def session(self, graph: CSRGraph) -> Session:
        return Session(graph, graph_name=self.name, **self.session_kwargs)


# The generators are looked up on ``repro.graphs`` at call time, so a
# traced run's wrappers see the calls.
def _rmat_small(seed: int) -> CSRGraph:
    # Registry rMat "small": n = 2^17, edge factor 3.7.
    return graphs.rmat(17, int((1 << 17) * 3.7), seed=seed)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "rmat-session",
            "library defaults (decomp-arb-CC, verify on) on rMat-small, then "
            "memo-hit queries: verification dominates here and nowhere else",
            _rmat_small,
            # Verification under tracemalloc takes ~7 s per labeling here;
            # about one labeling in five peaks near 7x the CSR bytes
            # instead of 3.7x.
            memory_misses=3,
        ),
        Workload(
            "line-cc",
            "decomp-arb-CC unverified on a 200k-vertex path: hundreds of tiny "
            "rounds, so per-round cost, shift-schedule init and contraction "
            "dominate",
            lambda seed: graphs.line_graph(200_000, seed=seed),
            {"algorithm": "decomp-arb-CC", "verify": False},
            query_blocks=2,
        ),
        Workload(
            "random-hybrid",
            "decomp-arb-hybrid-CC unverified on random 5-regular, n=400k: few "
            "rounds over the whole graph, so per-edge kernels dominate",
            lambda seed: graphs.random_kregular(400_000, 5, seed=seed),
            {"algorithm": "decomp-arb-hybrid-CC", "verify": False},
            query_blocks=2,
            # About a third of labelings here reach only the lowest peak,
            # so eleven measured labelings all miss it once in 200 runs.
            memory_misses=12,
        ),
    )
}


class Inputs:
    """Every input of one run, derived from the workload seed."""

    def __init__(self, workload: Workload, seed: int) -> None:
        salt = zlib.crc32(workload.name.encode())
        self.graph_seed = GRAPH_SEED
        self._algorithm_rng = np.random.default_rng([seed, salt, 1])
        self._query_rng = np.random.default_rng([seed, salt, 2])
        self._used: set = set()
        self.query_order = QUERY_BLOCK * workload.query_blocks

    def algorithm_seed(self) -> int:
        """A seed no earlier request of this run used (so a memo miss)."""
        while True:
            seed = int(self._algorithm_rng.integers(1, 2**31))
            if seed not in self._used:
                self._used.add(seed)
                return seed

    def queries(self, n: int) -> List[tuple]:
        """One cycle's ``(kind, arguments)`` list, in the fixed order."""
        out = []
        for kind in self.query_order:
            if kind == "connected":
                u, v = self._query_rng.integers(0, n, size=2)
                out.append((kind, (int(u), int(v))))
            elif kind == "connected_batch":
                pairs = self._query_rng.integers(0, n, size=(2, BATCH_PAIRS))
                out.append((kind, (pairs[0], pairs[1])))
            else:
                out.append((kind, ()))
        return out


def ask(session: Session, kind: str, args: tuple) -> object:
    """Send one memo-hit query through the public Session API."""
    if kind in ("connected", "connected_batch"):
        return session.connected(*args)
    if kind == "num_components":
        return session.num_components()
    return session.component_sizes()


@dataclass
class Tally:
    """Requests attempted and failed, with the first failure's reason."""

    attempted: int = 0
    failed: int = 0
    first_error: Optional[str] = None

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.first_error is None:
                self.first_error = what


@dataclass
class Samples:
    """Timings of one run, in seconds, with the ``perf_counter`` at each start."""

    labeling: List[float] = field(default_factory=list)
    labeling_at: List[float] = field(default_factory=list)
    query: Dict[str, List[float]] = field(
        default_factory=lambda: {kind: [] for kind in QUERY_KINDS}
    )
    query_at: Dict[str, List[float]] = field(
        default_factory=lambda: {kind: [] for kind in QUERY_KINDS}
    )


def request_cycle(
    session: Session,
    inputs: Inputs,
    truth: Truth,
    tally: Tally,
    samples: Optional[Samples],
    tracer: NullTracer = NULL_TRACER,
    with_queries: bool = True,
) -> Optional[RunProfile]:
    """One fresh labeling, then the query mix; every answer checked.

    Each request is timed around the public call alone; its check runs
    after the timer stops.  ``samples=None`` records no timings (the
    warm-up request).  With a recording *tracer*, each request is also
    a ``bench.labeling`` or ``bench.query`` span.  A labeling that
    raises counts as one failed request and skips the cycle's queries.
    Returns the labeling's profile, or ``None`` if it raised.
    """
    session.seed = inputs.algorithm_seed()
    queries = inputs.queries(session.graph.num_vertices) if with_queries else []
    clock = time.perf_counter
    try:
        with tracer.span("bench.labeling", "bench", seed=session.seed):
            start = clock()
            profile = session.run()
            elapsed = clock() - start
    except Exception as exc:  # a failed request is counted, not fatal
        tally.record(False, f"labeling seed={session.seed}: {exc!r}")
        return None
    if samples is not None:
        samples.labeling.append(elapsed)
        samples.labeling_at.append(start)
    tally.record(
        same_partition(profile.result.labels, truth),
        f"labeling seed={session.seed}: partition differs from the oracle",
    )
    answers = []
    for kind, args in queries:
        try:
            with tracer.span("bench.query", "bench", kind=kind):
                start = clock()
                answer = ask(session, kind, args)
                elapsed = clock() - start
        except Exception as exc:
            tally.record(False, f"{kind} query: {exc!r}")
            continue
        if samples is not None:
            samples.query[kind].append(elapsed)
            samples.query_at[kind].append(start)
        answers.append((kind, args, answer))
    for kind, args, answer in answers:
        try:
            ok = check_answer(kind, args, answer, truth)
        except Exception:  # a malformed answer is a wrong answer
            ok = False
        tally.record(ok, f"{kind} query: wrong answer")
    return profile


def warm_up(session: Session, inputs: Inputs, truth: Truth, tally: Tally) -> None:
    """Untimed, untraced request cycles; their answers are still checked."""
    deadline = time.perf_counter() + WARMUP_SECONDS
    cycles = 0
    while cycles < WARMUP_CYCLES or time.perf_counter() < deadline:
        request_cycle(session, inputs, truth, tally, None)
        cycles += 1


def memory_pass(
    workload: Workload, graph: CSRGraph, inputs: Inputs, truth: Truth, tally: Tally
) -> Dict[str, float]:
    """Peak and retained bytes under tracemalloc, after all timed work.

    A fresh Session takes ``workload.memory_misses`` fresh labelings.
    The first also allocates the Session's pooled arena, which
    ``retained_bytes_per_miss`` counts: what the Session still holds
    after all of them, per labeling.  ``peak_bytes`` is the least, over
    the others, of one labeling's peak above the bytes held when it
    started: the memory every fresh labeling needs.  Peaks are
    multimodal over algorithm seeds (on random-hybrid 1.7x, 2.2x and
    4-13x the CSR bytes), so a median of a few flips between modes.
    Every labeling is checked.
    """
    import gc
    import tracemalloc

    misses = workload.memory_misses
    peaks = []
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        session = workload.session(graph)
        for _ in range(misses):
            session.seed = inputs.algorithm_seed()
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            profile = session.run()
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            tally.record(
                same_partition(profile.result.labels, truth),
                f"labeling seed={session.seed}: partition differs from the oracle",
            )
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return {
        "peak_bytes": float(min(peaks[1:])),
        "retained_bytes_per_miss": retained / misses,
    }
