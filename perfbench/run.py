"""The repository benchmark: connected-components labelings and queries.

Run from the root of a checkout::

    python3 perfbench/run.py --workload rmat-session --seed 1 --seconds 20 --trace 0

``--workload`` is one of ``rmat-session``, ``line-cc`` and
``random-hybrid`` (see ``workloads.py``).  Each labels one fixed graph
of the experiment registry; every algorithm seed and query pair derives
from ``--seed``.  Every labeling and query answer is checked against an
oracle built on SciPy; the run exits with status 1 if any request
failed or answered wrongly.

``--trace 0`` times requests with tracing off for ``--seconds``, then
measures memory in a separate tracemalloc pass, and reports the
end-to-end metrics.  ``--trace 1`` alternates untraced labelings with
traced request cycles for ``--seconds``, reports the per-layer metrics
and writes the trace to ``perfbench/out/<workload>-seed<seed>.trace.json``.

The host's speed drifts while the benchmark runs, so ``--trace 0``
also times a fixed reference kernel between requests
(``reference.py``) and reports every time at the kernel's nominal
speed; the run's machine speed and unscaled times are printed too.

Each metric is printed with its unit and sample count.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

#: name -> (value, unit, sample count)
Metrics = Dict[str, Tuple[float, str, int]]

#: Printed but left out of the result line, so no bound applies.  Over
#: runs on a 2-core VM, the spread of ``query_us.p50`` on rmat-session
#: measured 0.26-0.37 of its median: it sits at the edge between the
#: scalar and the batch ``connected`` latencies.  That of ``query_us.p99``
#: reached 0.46: the slowest kind of query is 5% of the mix, so p99 is
#: its 80th percentile, where stalls of 2-4x its median (about 1% of
#: queries) begin; p98 lies below them.  The rest show the machine's
#: speed and the times before scaling by it.
UNGATED = (
    "query_us.p50",
    "query_us.p99",
    "machine_speed",
    "setup_wall_s",
    "labeling_wall_s.p50",
)


def _import_library() -> None:
    """Put the checkout's own sources first on the path, or exit."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no library sources at {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"error: imported repro from {repro.__file__}, not from {SRC}")


def _git_sha() -> Optional[str]:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    """Digest of the library sources, which identifies them without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _cpu_model() -> Optional[str]:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _l3_bytes() -> Optional[int]:
    size = _read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip()
    scale = {"K": 1 << 10, "M": 1 << 20}
    if size[-1:] in scale and size[:-1].isdigit():
        return int(size[:-1]) * scale[size[-1]]
    return int(size) if size.isdigit() else None


def provenance(workload, seed: int, inputs, graph, session) -> dict:
    import numpy
    import scipy

    from repro.engine.backend import DEFAULT_BACKEND_NAME

    l3 = _l3_bytes()
    csr = int(graph.offsets.nbytes + graph.targets.nbytes)
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l3_bytes": l3,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "default_backend": DEFAULT_BACKEND_NAME,
        "session_backend": session.backend.name,
        "algorithm": session.algorithm,
        "verify": session.verify,
        "beta": session.beta,
        "workload": workload.name,
        "seed": seed,
        "graph_seed": inputs.graph_seed,
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "csr_bytes": csr,
        "csr_over_l3": csr / l3 if l3 else None,
    }


def _setup(workload, inputs, tracer=None, gauge=None):
    """Build the graph and its Session several times; keep the last.

    Set-up repeats at least ``SETUP_REPEATS`` times and for at least
    ``SETUP_SECONDS``.  With a *gauge*, the reference kernel is timed
    between set-ups.  Returns the graph, the Session, and the seconds
    and ``perf_counter`` start of each set-up.
    """
    from repro.obs import NULL_TRACER
    from workloads import SETUP_REPEATS, SETUP_SECONDS

    tracer = tracer if tracer is not None else NULL_TRACER
    times: list = []
    starts: list = []
    graph = session = None
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        graph = session = None  # the previous set-up is freed first
        gc.collect()
        if gauge is not None:
            gauge.maybe_take()
        with tracer.span("bench.setup", "bench"):
            start = time.perf_counter()
            graph = workload.build(inputs.graph_seed)
            session = workload.session(graph)
            times.append(time.perf_counter() - start)
            starts.append(start)
    return graph, session, times, starts


def timed_run(workload, seed: int, seconds: float):
    """Untraced request cycles, then the memory pass: end-to-end metrics.

    Every time is scaled by the machine's speed around it
    (``reference.py``): it is the time the request would have taken at
    the reference kernel's nominal speed.  The unscaled medians are
    printed as well.
    """
    import numpy as np
    from oracle import Truth
    from reference import Gauge
    from workloads import Inputs, Samples, Tally, memory_pass, request_cycle, warm_up

    inputs = Inputs(workload, seed)
    gauge = Gauge()
    graph, session, setup_times, setup_starts = _setup(workload, inputs, gauge=gauge)
    truth = Truth.of(graph.offsets, graph.targets)
    stamp = provenance(workload, seed, inputs, graph, session)
    tally, samples = Tally(), Samples()
    warm_up(session, inputs, truth, tally)
    deadline = time.perf_counter() + seconds
    while True:
        gauge.maybe_take()
        request_cycle(session, inputs, truth, tally, samples)
        if time.perf_counter() >= deadline:
            break
    gauge.take()
    session = None  # its memo must not weigh on the memory pass
    gc.collect()
    memory = memory_pass(workload, graph, inputs, truth, tally)

    setup = np.array(setup_times) * gauge.speed_at(setup_starts)
    labeling = np.array(samples.labeling) * gauge.speed_at(samples.labeling_at)
    queries = np.concatenate(
        [
            np.array(samples.query[kind]) * gauge.speed_at(samples.query_at[kind])
            for kind in samples.query
        ]
    )
    metrics: Metrics = {
        "setup_s": (float(np.median(setup)), "s", setup.size),
        "labeling_s.p50": (float(np.median(labeling)), "s", labeling.size),
        "medges_per_s": (
            graph.num_edges * labeling.size / float(labeling.sum()) / 1e6,
            "Medges/s",
            labeling.size,
        ),
        "query_us.p50": (float(np.percentile(queries, 50)) * 1e6, "us", queries.size),
        "query_us.p98": (float(np.percentile(queries, 98)) * 1e6, "us", queries.size),
        "query_us.p99": (float(np.percentile(queries, 99)) * 1e6, "us", queries.size),
        "peak_mem_ratio": (
            memory["peak_bytes"] / stamp["csr_bytes"],
            "ratio",
            workload.memory_misses,
        ),
        "retained_mb_per_miss": (
            memory["retained_bytes_per_miss"] / 1e6,
            "MB",
            workload.memory_misses,
        ),
        "machine_speed": (gauge.speed(), "ratio", len(gauge.samples)),
        "setup_wall_s": (statistics.median(setup_times), "s", len(setup_times)),
        "labeling_wall_s.p50": (
            statistics.median(samples.labeling),
            "s",
            len(samples.labeling),
        ),
    }
    return metrics, tally, stamp


def traced_run(workload, seed: int, seconds: float, trace_path: Path):
    """Traced request cycles between untraced labelings: per-layer metrics."""
    from layers import UNITS, Probe, layer_metrics
    from oracle import Truth
    from workloads import Inputs, Samples, Tally, request_cycle, warm_up

    from repro.obs import Metrics as Counters
    from repro.obs import Tracer, write_trace
    from repro.runtime.context import current_context

    inputs = Inputs(workload, seed)
    tracer, counters = Tracer(), Counters()
    probe = Probe(tracer)
    with probe:
        graph, session, _, _ = _setup(workload, inputs, tracer)
    truth = Truth.of(graph.offsets, graph.targets)
    stamp = provenance(workload, seed, inputs, graph, session)
    tally, untraced = Tally(), Samples()
    warm_up(session, inputs, truth, tally)
    traced = current_context().child(tracer=tracer, metrics=counters)
    profiles = {}
    deadline = time.perf_counter() + seconds
    while True:
        request_cycle(session, inputs, truth, tally, untraced, with_queries=False)
        with probe, traced.activate():
            profile = request_cycle(session, inputs, truth, tally, None, tracer)
        if profile is not None:
            profiles[session.seed] = profile
        if time.perf_counter() >= deadline:
            break

    hits = counters.counter("session.memo.hit")
    misses = counters.counter("session.memo.miss")
    values, counts = layer_metrics(
        tracer,
        profiles,
        untraced.labeling,
        stamp["csr_bytes"],
        hits / max(hits + misses, 1),
    )
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    write_trace(trace_path, tracer, counters, meta=stamp)
    metrics: Metrics = {
        name: (values[name], UNITS[name], counts[name]) for name in UNITS
    }
    return metrics, tally, stamp


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {list(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.trace:
        path = OUT / f"{workload.name}-seed{args.seed}.trace.json"
        metrics, tally, stamp = traced_run(workload, args.seed, args.seconds, path)
        stamp["trace"] = str(path.relative_to(ROOT))
    else:
        metrics, tally, stamp = timed_run(workload, args.seed, args.seconds)

    print(f"workload   {workload.name}: {workload.why}")
    print("provenance " + json.dumps(stamp, sort_keys=True))
    failed_frac = tally.failed / max(tally.attempted, 1)
    shown = dict(metrics, failed_frac=(failed_frac, "ratio", tally.attempted))
    for name, (value, unit, n) in shown.items():
        print(f"{name:<42} {value:>16.6g} {unit:<9} n={n}")
    if tally.first_error is not None:
        print(f"first failure: {tally.first_error}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()
            if name not in UNGATED
        },
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
