"""Tests of the benchmark itself: its oracle, its accounting and its tracing.

Run with ``python3 -m pytest perfbench`` from the root of the repository.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import run
from layers import TARGETS, UNITS, Probe
from oracle import Truth, check_answer, same_partition
from workloads import GRAPH_SEED, WORKLOADS, Inputs, Tally, Workload, request_cycle

import repro.graphs as graphs
from repro.obs import Tracer, validate_trace
from repro.runtime.session import Session

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = Workload(
    "tiny",
    "a small rMat for the benchmark's own tests",
    lambda seed: graphs.rmat(9, int(512 * 3.7), seed=seed),
)


@pytest.fixture(scope="module")
def tiny():
    graph = TINY.build(3)
    truth = Truth.of(graph.offsets, graph.targets)
    labels = Session(graph).components()
    return graph, truth, labels


def _two_components(truth):
    """Two distinct components, the first with at least two vertices."""
    sizes = np.bincount(truth.labels)
    big = int(np.argmax(sizes))
    other = int(truth.labels[truth.labels != big][0])
    assert sizes[big] >= 2
    return big, other


def flip_one_label(labels, truth):
    big, other = _two_components(truth)
    bad = labels.copy()
    v = int(np.flatnonzero(truth.labels == big)[0])
    bad[v] = labels[np.flatnonzero(truth.labels == other)[0]]
    return bad


def merge_two_components(labels, truth):
    big, other = _two_components(truth)
    bad = labels.copy()
    bad[truth.labels == other] = labels[np.flatnonzero(truth.labels == big)[0]]
    return bad


def split_one_component(labels, truth):
    big, _ = _two_components(truth)
    bad = labels.copy()
    bad[np.flatnonzero(truth.labels == big)[0]] = labels.max() + 1
    return bad


CORRUPTIONS = [flip_one_label, merge_two_components, split_one_component]


def test_oracle_accepts_any_renaming_of_the_right_partition(tiny):
    _, truth, labels = tiny
    assert same_partition(labels, truth)
    assert same_partition(labels * 7 + 3, truth)
    assert same_partition(truth.labels, truth)


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
def test_oracle_rejects_a_corrupted_labeling(tiny, corrupt):
    _, truth, labels = tiny
    assert not same_partition(corrupt(labels, truth), truth)


class CorruptingSession(Session):
    """A Session whose fresh labelings come back corrupted."""

    corrupt = None

    def run(self, *args, **kwargs):
        profile = super().run(*args, **kwargs)
        bad = type(self).corrupt(profile.result.labels, self.truth)
        result = dataclasses.replace(profile.result, labels=bad)
        return dataclasses.replace(profile, result=result)


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
def test_a_corrupted_labeling_counts_as_failed(tiny, corrupt):
    graph, truth, _ = tiny
    session_type = type("Corrupt", (CorruptingSession,), {"corrupt": corrupt})
    session = session_type(graph)
    session.truth = truth
    tally = Tally()
    request_cycle(session, Inputs(TINY, 1), truth, tally, None)
    assert tally.attempted == 201
    assert tally.failed >= 1
    assert tally.first_error.startswith("labeling")


def test_a_wrong_query_answer_counts_as_failed(tiny):
    graph, truth, _ = tiny

    class OffByOne(Session):
        def num_components(self, algorithm=None):
            return super().num_components(algorithm) + 1

    tally = Tally()
    request_cycle(OffByOne(graph), Inputs(TINY, 1), truth, tally, None)
    assert tally.failed == 10
    assert tally.first_error == "num_components query: wrong answer"


def test_right_answers_pass_the_query_checks(tiny):
    graph, truth, _ = tiny
    tally = Tally()
    request_cycle(Session(graph), Inputs(TINY, 1), truth, tally, None)
    assert (tally.attempted, tally.failed) == (201, 0)
    assert not check_answer("connected", (0, 1), np.bool_(True), truth)


def test_inputs_depend_only_on_the_seed():
    a, b, c = Inputs(TINY, 5), Inputs(TINY, 5), Inputs(TINY, 6)
    assert a.graph_seed == b.graph_seed == c.graph_seed == GRAPH_SEED
    seeds_a = [a.algorithm_seed() for _ in range(5)]
    assert seeds_a == [b.algorithm_seed() for _ in range(5)]
    assert seeds_a != [c.algorithm_seed() for _ in range(5)]
    qa, qb, qc = a.queries(100), b.queries(100), c.queries(100)
    assert [k for k, _ in qa] == [k for k, _ in qb]
    for (_, args_a), (_, args_b) in zip(qa, qb):
        assert all(np.array_equal(x, y) for x, y in zip(args_a, args_b))
    assert not all(
        all(np.array_equal(x, y) for x, y in zip(args_a, args_c))
        for (_, args_a), (_, args_c) in zip(qa, qc)
    )


def test_probe_restores_every_function_and_keeps_labelings(tiny):
    import repro.decomp as decomp
    from repro.graphs.csr import CSRGraph

    graph, _, labels = tiny
    before = dict(decomp.DECOMP_VARIANTS), CSRGraph.expand, graphs.rmat
    tracer = Tracer()
    with Probe(tracer):
        assert decomp.DECOMP_VARIANTS["arb"] is not before[0]["arb"]
        assert CSRGraph.expand is not before[1]
        traced = Session(graph).components()
    assert (dict(decomp.DECOMP_VARIANTS), CSRGraph.expand, graphs.rmat) == before
    assert np.array_equal(traced, labels)
    layers = {span["name"].split(".")[0] for span in tracer.spans("layer")}
    assert layers == {layer for layer, _, _ in TARGETS}


def test_traced_run_reports_every_layer_metric_and_a_valid_trace(tmp_path):
    path = tmp_path / "tiny.trace.json"
    metrics, tally, stamp = run.traced_run(TINY, 2, 0.2, path)
    assert tally.failed == 0
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert {name: unit for name, (_, unit, _) in metrics.items()} == UNITS
    doc = json.loads(path.read_text())
    validate_trace(doc)
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert all("parent" in e["args"] for e in spans)
    assert metrics["engine.rounds"][0] > 0
    assert metrics["verify.s"][0] > 0
    assert doc["meta"]["workload"] == "tiny"


def test_timed_run_reports_every_end_to_end_metric():
    metrics, tally, stamp = run.timed_run(TINY, 2, 0.2)
    assert tally.failed == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    gated = {n: unit for n, (_, unit, _) in metrics.items() if n not in run.UNGATED}
    assert gated == expected
    assert all(value > 0 for value, _, _ in metrics.values())
    assert stamp["csr_bytes"] > 0 and stamp["nproc"] >= 1


def test_workloads_match_the_benchmark_file():
    listed = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    assert {name: w.why for name, w in WORKLOADS.items()} == listed


def test_exits_nonzero_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "line-cc", "--seed", "1"]
        + ["--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_gauge_scales_each_time_by_the_speed_around_it():
    from reference import NOMINAL_S, Gauge, kernel_seconds

    assert kernel_seconds() > 0
    gauge = Gauge()
    kernel = [1, 1, 2, 2, 3, 3]  # in units of NOMINAL_S, one per second
    gauge.samples = [(float(t), k * NOMINAL_S) for t, k in enumerate(kernel)]
    assert gauge.speed() == pytest.approx(0.5)  # twice as slow: times count half
    speeds = gauge.speed_at([0.5, 1.5, 2.5, 3.5, 9.0, -1.0])
    assert speeds == pytest.approx([1, 1, 0.5, 0.5, 1 / 3, 1])
    gauge.take()
    gauge.maybe_take()  # the last timing is recent: the kernel is not run
    assert len(gauge.samples) == 7
