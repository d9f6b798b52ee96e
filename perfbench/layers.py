"""Per-layer tracing from the benchmark's side.

:class:`Probe` wraps public functions of the library's layers so each
call records a span on a :class:`repro.obs.Tracer`, and puts the
originals back afterwards.  The same tracer, activated in the execution
context, also collects the spans the program records itself: ``run``
around each labeling, ``round`` around each engine round, and the cost
tracker's phase windows.  :func:`layer_metrics` turns the spans of the
traced labelings into the per-layer metrics.

The ``pram`` and ``obs`` layers are read, not wrapped: ``pram.*`` comes
from each run's cost tracker, ``obs.*`` from the tracer itself.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from typing import Callable, Dict, List, Sequence, Tuple

from workloads import QUERY_KINDS

from repro.obs import Tracer, phase_totals
from repro.pram.machine import MachineModel

#: Function attributes of a layer's module: ``Class.method`` or a name.
TARGETS: List[Tuple[str, str, str]] = [
    ("graphs", "repro.graphs.generators", "rmat"),
    ("graphs", "repro.graphs.generators", "line_graph"),
    ("graphs", "repro.graphs.generators", "random_kregular"),
    ("graphs", "repro.graphs.builder", "from_edges"),
    ("graphs", "repro.graphs.builder", "from_directed_edges"),
    ("graphs", "repro.graphs.csr", "CSRGraph.expand"),
    ("primitives", "repro.primitives.rand", "random_permutation"),
    ("primitives", "repro.primitives.sort", "radix_argsort"),
    ("primitives", "repro.primitives.atomics", "first_winner"),
    ("decomp", "repro.decomp.shifts", "ShiftSchedule.__post_init__"),
    ("decomp", "repro.decomp.decomp_arb", "decomp_arb"),
    ("decomp", "repro.decomp.decomp_arb_hybrid", "decomp_arb_hybrid"),
    ("decomp", "repro.decomp.contract", "contract"),
    ("engine", "repro.engine.core", "TraversalEngine.run"),
    ("engine", "repro.engine.kernels", "dense_round"),
    ("engine", "repro.engine.kernels", "filter_edges"),
    ("engine", "repro.engine.workspace", "make_workspace"),
    ("connectivity", "repro.connectivity.decomp_cc", "decomp_cc"),
    ("verify", "repro.analysis.verify", "verify_labeling"),
    ("runtime", "repro.runtime.session", "execute_profiled"),
    ("runtime", "repro.runtime.session", "Session.run"),
    ("runtime", "repro.runtime.session", "Session.connected"),
    ("runtime", "repro.runtime.session", "Session.num_components"),
    ("runtime", "repro.runtime.session", "Session.component_sizes"),
]

GENERATORS = ("graphs.rmat", "graphs.line_graph", "graphs.random_kregular")
DECOMPS = ("decomp.decomp_arb", "decomp.decomp_arb_hybrid")
DRIVER = "connectivity.decomp_cc"
VERIFY = "verify.verify_labeling"
#: Rounds charging fewer work units than this count as small.
SMALL_ROUND_WORK = 2000
#: The cost tracker's phase windows (the paper's Figures 5-7).
PHASES = (
    "init",
    "bfsPre",
    "bfsMain",
    "bfsSparse",
    "bfsDense",
    "filterEdges",
    "contractGraph",
)


class Probe:
    """Swaps :data:`TARGETS` for span-recording wrappers, and back.

    A function is rebound wherever a loaded ``repro`` module holds it:
    under any module-level name (``from x import f`` copies) and as a
    value of any module-level dict (registries).  Methods are rebound
    on their class.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._sites: List[Tuple[object, str, object, object]] = []
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("repro")]
        for layer, module_name, path in TARGETS:
            owner: object = importlib.import_module(module_name)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = vars(owner)[attr]
            wrapper = self._wrap(f"{layer}.{path}", original)
            if classes:
                self._sites.append((owner, attr, original, wrapper))
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._sites.append((module, key, original, wrapper))
                    elif isinstance(value, dict):
                        for k, v in value.items():
                            if v is original:
                                self._sites.append((value, k, original, wrapper))

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self.tracer
        is_decomp = name in DECOMPS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.span(name, "layer")
            try:
                result = fn(*args, **kwargs)
                if is_decomp:  # inter-component edges left, of those given
                    graph = args[0]
                    span.set(inter=result.num_inter_directed, edges=graph.num_directed)
                return result
            finally:
                span.close()

        return wrapper

    def _bind(self, use_wrapper: bool) -> None:
        for owner, key, original, wrapper in self._sites:
            value = wrapper if use_wrapper else original
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    def __enter__(self) -> "Probe":
        self._bind(True)
        return self

    def __exit__(self, *exc: object) -> None:
        self._bind(False)


class Span:
    """One complete trace event placed in its thread's span tree."""

    __slots__ = ("name", "tid", "ts", "dur", "args", "self_us", "children")

    def __init__(self, event: dict) -> None:
        self.name: str = event["name"]
        self.tid: int = event["tid"]
        self.ts: float = event["ts"]
        self.dur: float = event["dur"]
        self.args: dict = event["args"]
        self.self_us = self.dur
        self.children: List["Span"] = []

    def subtree(self) -> List["Span"]:
        out, todo = [], list(self.children)
        while todo:
            span = todo.pop()
            out.append(span)
            todo.extend(span.children)
        return out


def link_spans(events: Sequence[dict]) -> List[Span]:
    """Place every complete span under its parent and compute self times.

    Spans of one thread nest, so the parent of a span is the innermost
    earlier span that still covers it.  Self time is the span's
    duration minus the part its children cover.  Each event's ``args``
    gets its ``id`` and its ``parent`` id, for the trace file.  Returns
    the spans in start order.
    """
    events = sorted(
        (e for e in events if e["ph"] == "X"),
        key=lambda e: (e["tid"], e["ts"], -e["dur"]),
    )
    spans: List[Span] = []
    stack: List[Span] = []
    for i, event in enumerate(events):
        span = Span(event)
        end = span.ts + span.dur
        while stack and (
            stack[-1].tid != span.tid or stack[-1].ts + stack[-1].dur < end - 1e-3
        ):
            stack.pop()
        span.args["id"] = i
        span.args["parent"] = stack[-1].args["id"] if stack else None
        if stack:
            stack[-1].self_us -= span.dur
            stack[-1].children.append(span)
        stack.append(span)
        spans.append(span)
    return spans


def _phases_within(tracer: Tracer, start: float, end: float) -> Dict[str, float]:
    view = Tracer()
    view.events = [
        e
        for e in tracer.events
        if e["ph"] in ("B", "E") and start <= e["ts"] <= end
    ]
    return phase_totals(view)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def labeling_metrics(tracer: Tracer, span: Span, profile) -> Dict[str, float]:
    """The per-layer figures of one traced labeling."""
    seconds = span.dur / 1e6
    inside = span.subtree()
    total: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for s in inside:
        total[s.name] = total.get(s.name, 0.0) + s.dur / 1e6
        calls[s.name] = calls.get(s.name, 0) + 1

    def of(*names: str) -> float:
        return sum(total.get(n, 0.0) for n in names)

    rounds = [s for s in inside if s.name == "round" and not s.args.get("done")]
    decomps = sorted((s for s in inside if s.name in DECOMPS), key=lambda s: s.ts)
    first = decomps[0].args if decomps else {}
    driver = of(DRIVER)
    verify = of(VERIFY)
    runtime_s = sum(s.dur for s in span.children if s.name.startswith("runtime."))
    phases = _phases_within(tracer, span.ts, span.ts + span.dur)
    out = {
        "graphs.expand_s": of("graphs.CSRGraph.expand"),
        "graphs.expand_calls": calls.get("graphs.CSRGraph.expand", 0),
        "primitives.random_permutation_s": of("primitives.random_permutation"),
        "primitives.radix_argsort_s": of("primitives.radix_argsort"),
        "primitives.first_winner_s": of("primitives.first_winner"),
        "primitives.first_winner_calls": calls.get("primitives.first_winner", 0),
        "decomp.shift_schedule_s": of("decomp.ShiftSchedule.__post_init__"),
        "decomp.decomp_s": of(*DECOMPS),
        "decomp.contract_s": of("decomp.contract"),
        "decomp.inter_edge_frac": first.get("inter", 0)
        / max(first.get("edges", 0), 1),
        "engine.rounds": len(rounds),
        "engine.dense_rounds": sum(1 for s in rounds if s.args.get("dense")),
        "connectivity.levels": profile.result.iterations,
        "connectivity.driver_self_s": sum(s.self_us for s in inside if s.name == DRIVER)
        / 1e6,
        "verify.s": verify,
        "verify.share": verify / seconds,
        "runtime.overhead_s": runtime_s / 1e6 - driver - verify,
        "runtime.pool_fresh": calls.get("engine.make_workspace", 0),
        "pram.work": profile.tracker.total_work(),
        "pram.depth": profile.tracker.total_depth(),
        "pram.model_ratio": MachineModel().time_seconds(profile.tracker)
        / max(driver, 1e-9),
        "obs.trace_coverage": of("run") / seconds,
    }
    for phase in PHASES:
        out[f"decomp.phase.{phase}_s"] = phases.get(phase, 0.0)
    return out


def small_round_us(span: Span) -> List[float]:
    """Durations of the labeling's rounds that charged little work."""
    return [
        s.dur
        for s in span.subtree()
        if s.name == "round"
        and not s.args.get("done")
        and s.args.get("work", 0) < SMALL_ROUND_WORK
    ]


def setup_build_s(setup: Span) -> float:
    """Graph generation plus CSR build inside one set-up span."""
    return sum(s.dur for s in setup.children if s.name in GENERATORS) / 1e6


#: Every per-layer metric with its unit.
UNITS: Dict[str, str] = {
    "graphs.build_s": "s",
    "graphs.csr_bytes": "B",
    "graphs.expand_s": "s",
    "graphs.expand_calls": "count",
    "primitives.random_permutation_s": "s",
    "primitives.radix_argsort_s": "s",
    "primitives.first_winner_s": "s",
    "primitives.first_winner_calls": "count",
    "decomp.shift_schedule_s": "s",
    "decomp.decomp_s": "s",
    "decomp.contract_s": "s",
    "decomp.inter_edge_frac": "ratio",
    **{f"decomp.phase.{phase}_s": "s" for phase in PHASES},
    "engine.rounds": "count",
    "engine.dense_rounds": "count",
    "engine.small_round_us.p50": "us",
    "connectivity.levels": "count",
    "connectivity.driver_self_s": "s",
    "verify.s": "s",
    "verify.share": "ratio",
    "runtime.overhead_s": "s",
    "runtime.memo_hit_ratio": "ratio",
    **{f"runtime.query.{kind}_us.p50": "us" for kind in QUERY_KINDS},
    "runtime.pool_fresh": "count",
    "pram.work": "count",
    "pram.depth": "count",
    "pram.model_ratio": "ratio",
    "obs.trace_coverage": "ratio",
    "obs.overhead_frac": "ratio",
}


def layer_metrics(
    tracer: Tracer,
    profiles: Dict[int, object],
    untraced_labeling_s: Sequence[float],
    csr_bytes: int,
    memo_hit_ratio: float,
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Every per-layer metric of a traced run, with its sample count.

    *profiles* maps the algorithm seed of each traced labeling that
    returned to its profile.  Per-labeling figures are medians over
    those labelings; query latencies are medians per query kind.
    """
    spans = link_spans(tracer.events)
    labelings = [
        s for s in spans if s.name == "bench.labeling" and s.args["seed"] in profiles
    ]
    per = [labeling_metrics(tracer, s, profiles[s.args["seed"]]) for s in labelings]
    values: Dict[str, float] = {k: median([m[k] for m in per]) for k in per[0]}
    counts: Dict[str, int] = {k: len(per) for k in per[0]}
    setups = [s for s in spans if s.name == "bench.setup"]
    values["graphs.build_s"] = median([setup_build_s(s) for s in setups])
    counts["graphs.build_s"] = len(setups)
    values["graphs.csr_bytes"] = float(csr_bytes)
    counts["graphs.csr_bytes"] = 1
    small = [d for s in labelings for d in small_round_us(s)]
    values["engine.small_round_us.p50"] = median(small)
    counts["engine.small_round_us.p50"] = len(small)
    values["runtime.memo_hit_ratio"] = memo_hit_ratio
    counts["runtime.memo_hit_ratio"] = len(per)
    queries: Dict[str, List[float]] = {}
    for s in spans:
        if s.name == "bench.query":
            queries.setdefault(s.args["kind"], []).append(s.dur)
    for kind, durations in queries.items():
        values[f"runtime.query.{kind}_us.p50"] = median(durations)
        counts[f"runtime.query.{kind}_us.p50"] = len(durations)
    traced = median([s.dur / 1e6 for s in labelings])
    values["obs.overhead_frac"] = traced / median(untraced_labeling_s) - 1.0
    counts["obs.overhead_frac"] = min(len(labelings), len(untraced_labeling_s))
    return values, counts
