"""The spanning-forest certificate of decomp-CC labelings.

A verified decomp-CC run records the BFS trees that grew its partitions
and lifts them through the contraction levels into one rooted forest of
the input; :func:`verify_labeling` accepts the labeling on that forest
without recomputing the components, and falls back to the BFS when the
forest fails.  These tests pin the checker's soundness (mutated
labelings and mutated certificates), its coverage (no correct decomp
run ever takes the fallback), its invisibility (labels and charges are
unchanged) and where it surfaces (span, profile field, counters,
resilient runner, spanning forest, fuzz oracle).
"""

import dataclasses
import importlib

import numpy as np
import pytest

from repro.analysis.verify import (
    certificate_holds,
    ground_truth_labels,
    verify_labeling,
)
from repro.connectivity import decomp_spanning_forest, verify_spanning_forest
from repro.connectivity.base import canonicalize_labels
from repro.errors import VerificationError
from repro.experiments.registry import GRAPHS, build_graph
from repro.fuzz.case import build_case_graph
from repro.fuzz.corpus import iter_corpus
from repro.fuzz.generator import CaseGenerator
from repro.fuzz.oracle import run_case
from repro.graphs import from_edges
from repro.graphs.generators import (
    line_graph,
    preferential_attachment,
    random_kregular,
    small_world,
)
from repro.obs import Metrics, Tracer
from repro.resilience.runner import ResilientRunner
from repro.runtime.context import current_context
from repro.runtime.session import Session, execute_profiled

from tests.conftest import zoo_params

DECOMP_ALGORITHMS = [
    "decomp-min-CC",
    "decomp-arb-CC",
    "decomp-arb-hybrid-CC",
    "decomp-min-hybrid-CC",
]
BACKENDS = ["reference", "fast"]


def _corpus_params():
    return [
        pytest.param(build_case_graph(case.graph), id=f"corpus-{path.stem}")
        for path, case in iter_corpus()
    ]


def _family_params():
    extra = {
        "pref-attach": preferential_attachment(300, 3, seed=2),
        "small-world": small_world(300, 4, 0.1, seed=3),
        **{f"registry-{name}": build_graph(name, "tiny") for name in sorted(GRAPHS)},
    }
    return [pytest.param(g, id=name) for name, g in extra.items()]


def _certified_run(algorithm, graph, backend="fast", seed=3):
    """(labels, certificate) of one decomp run recording its forest."""
    sink = []
    with current_context().child(forest_sink=sink).activate():
        prof = execute_profiled(
            algorithm, graph, verify=False, backend=backend, beta=0.2, seed=seed
        )
    assert len(sink) == 1
    return prof.result.labels, sink[0]


def _verify_counting(graph, labels, certificate):
    """verify_labeling under a fresh registry: (path, counters)."""
    metrics = Metrics()
    with current_context().child(metrics=metrics).activate():
        path = verify_labeling(graph, labels, certificate=certificate)
    return path, metrics.snapshot()["counters"]


@pytest.fixture(scope="module")
def two_paths():
    """Components {0..5} (a path) and {6..9} (a path)."""
    edges = [(i, i + 1) for i in range(5)] + [(6, 7), (7, 8), (8, 9)]
    src, dst = np.array(edges).T
    graph = from_edges(src, dst, num_vertices=10)
    labels, certificate = _certified_run("decomp-arb-CC", graph)
    return graph, labels, certificate


class TestDtype:
    @pytest.mark.parametrize(
        "labels",
        [[0, 0, 1, 1, np.nan], [0.5, 0.5, 1, 1, 2]],
        ids=["nan", "fractional"],
    )
    def test_non_integer_labels_rejected(self, labels):
        graph = from_edges(np.array([0, 2]), np.array([1, 3]), num_vertices=5)
        with pytest.raises(VerificationError) as exc:
            verify_labeling(graph, np.array(labels))
        assert exc.value.reason == "dtype"

    def test_integer_labels_of_any_width_accepted(self):
        graph = from_edges(np.array([0, 2]), np.array([1, 3]), num_vertices=5)
        for dtype in (np.int32, np.uint16, np.int64):
            verify_labeling(graph, np.array([7, 7, 3, 3, 0], dtype=dtype))


class TestLabelingMutations:
    """Wrong labelings raise whether or not a valid certificate is given."""

    @pytest.mark.parametrize("with_certificate", [True, False])
    def test_flipped_label(self, two_paths, with_certificate):
        graph, labels, certificate = two_paths
        bad = labels.copy()
        bad[2] = labels[7]
        with pytest.raises(VerificationError) as exc:
            verify_labeling(
                graph, bad, certificate=certificate if with_certificate else None
            )
        assert exc.value.reason == "crossing-edge"

    @pytest.mark.parametrize("with_certificate", [True, False])
    def test_merged_components(self, two_paths, with_certificate):
        graph, labels, certificate = two_paths
        bad = np.where(labels == labels[7], labels[0], labels)
        with pytest.raises(VerificationError) as exc:
            verify_labeling(
                graph, bad, certificate=certificate if with_certificate else None
            )
        assert exc.value.reason == "partition-mismatch"

    @pytest.mark.parametrize("with_certificate", [True, False])
    def test_split_component(self, two_paths, with_certificate):
        graph, labels, certificate = two_paths
        bad = labels.copy()
        bad[3:6] = labels.max() + 1
        with pytest.raises(VerificationError) as exc:
            verify_labeling(
                graph, bad, certificate=certificate if with_certificate else None
            )
        assert exc.value.reason == "crossing-edge"

    @pytest.mark.parametrize("path", ["corpus", "zoo"])
    def test_mutations_rejected_across_inputs(self, path, zoo):
        graphs = (
            [build_case_graph(case.graph) for _, case in iter_corpus()]
            if path == "corpus"
            else list(zoo.values())
        )
        checked = 0
        for graph in graphs:
            if graph.num_vertices == 0:
                continue
            labels, certificate = _certified_run("decomp-arb-CC", graph)
            comps = np.unique(labels)
            mutants = []
            if comps.size >= 2:
                mutants.append(np.where(labels == comps[1], comps[0], labels))
            big = comps[np.argmax([np.count_nonzero(labels == c) for c in comps])]
            members = np.flatnonzero(labels == big)
            if members.size >= 2:
                split = labels.copy()
                split[members[: members.size // 2]] = labels.max() + 1
                mutants.append(split)
            for bad in mutants:
                for cert in (certificate, None):
                    with pytest.raises(VerificationError):
                        verify_labeling(graph, bad, certificate=cert)
                checked += 1
        assert checked > 0


class TestCertificateMutations:
    """A broken certificate never rejects a correct labeling by itself."""

    def _mutants(self, graph, labels, certificate):
        not_neighbour = certificate.copy()
        not_neighbour[5] = 1  # 5's neighbours are 4 only
        cycle = certificate.copy()
        root = int(np.flatnonzero(certificate == np.arange(10))[0])
        child = int(np.flatnonzero((certificate == root) & (np.arange(10) != root))[0])
        cycle[root] = child  # root <-> child, a 2-cycle with no root
        two_roots = certificate.copy()
        non_root = int(np.flatnonzero(certificate != np.arange(10))[0])
        two_roots[non_root] = non_root
        out_of_range = certificate.copy()
        out_of_range[non_root] = 10
        return {
            "not-a-neighbour": not_neighbour,
            "cycle": cycle,
            "two-roots-one-label": two_roots,
            "out-of-range": out_of_range,
            "negative": np.where(certificate == certificate[non_root], -1, certificate),
            "wrong-length": certificate[:-1],
            "float": certificate.astype(np.float64),
        }

    def test_valid_certificate_accepted(self, two_paths):
        graph, labels, certificate = two_paths
        assert certificate_holds(graph, labels, certificate)
        path, counters = _verify_counting(graph, labels, certificate)
        assert path == "certificate"
        assert counters == {"verify.certificate": 1}

    @pytest.mark.parametrize(
        "kind",
        [
            "not-a-neighbour",
            "cycle",
            "two-roots-one-label",
            "out-of-range",
            "negative",
            "wrong-length",
            "float",
        ],
    )
    def test_mutant_rejected_then_fallback_accepts(self, two_paths, kind):
        graph, labels, certificate = two_paths
        bad = self._mutants(graph, labels, certificate)[kind]
        assert not certificate_holds(graph, labels, bad)
        path, counters = _verify_counting(graph, labels, bad)
        assert path == "fallback"
        assert counters == {"verify.certificate_rejected": 1, "verify.fallback": 1}

    def test_no_certificate_takes_fallback(self, two_paths):
        graph, labels, _ = two_paths
        path, counters = _verify_counting(graph, labels, None)
        assert path == "fallback"
        assert counters == {"verify.fallback": 1}

    def test_reference_overrides_certificate(self, two_paths):
        graph, labels, certificate = two_paths
        path = verify_labeling(
            graph, labels, reference=ground_truth_labels(graph), certificate=certificate
        )
        assert path == "fallback"

    def test_deep_path_needs_every_jump(self):
        # One long tree: pointer jumping must run log2(n) rounds.
        graph = line_graph(1000)
        parent = np.maximum(np.arange(1000) - 1, 0)
        labels = np.zeros(1000, dtype=np.int64)
        assert certificate_holds(graph, labels, parent)
        parent[0] = 999  # now one cycle through every vertex
        assert not certificate_holds(graph, labels, parent)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("algorithm", DECOMP_ALGORITHMS)
@pytest.mark.parametrize(
    "graph", _corpus_params() + zoo_params() + _family_params()
)
def test_every_decomp_run_verifies_on_its_certificate(algorithm, backend, graph):
    metrics = Metrics()
    with current_context().child(metrics=metrics).activate():
        for seed in (1, 2):
            execute_profiled(algorithm, graph, backend=backend, beta=0.2, seed=seed)
    counters = metrics.snapshot()["counters"]
    assert counters.get("verify.certificate") == 2
    assert "verify.certificate_rejected" not in counters
    assert "verify.fallback" not in counters


@pytest.mark.parametrize("beta", [0.05, 0.5, 0.9])
@pytest.mark.parametrize("algorithm", DECOMP_ALGORITHMS)
def test_certificate_holds_across_betas(algorithm, beta):
    graph = random_kregular(2000, 3, seed=5)
    sink = []
    with current_context().child(forest_sink=sink).activate():
        prof = execute_profiled(algorithm, graph, verify=False, beta=beta, seed=4)
    assert certificate_holds(graph, prof.result.labels, sink[0])


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("algorithm", DECOMP_ALGORITHMS)
def test_certification_changes_no_label_and_no_charge(algorithm, backend):
    graph = build_graph("rMat", "tiny")
    for seed in (1, 7):
        plain = execute_profiled(
            algorithm, graph, verify=False, backend=backend, beta=0.2, seed=seed
        )
        sink = []
        with current_context().child(forest_sink=sink).activate():
            certified = execute_profiled(
                algorithm, graph, verify=False, backend=backend, beta=0.2, seed=seed
            )
        assert sink
        assert np.array_equal(plain.result.labels, certified.result.labels)
        assert plain.tracker.total_work() == certified.tracker.total_work()
        assert plain.tracker.total_depth() == certified.tracker.total_depth()
        assert plain.tracker.snapshot() == certified.tracker.snapshot()


@pytest.mark.parametrize(
    "graph", _corpus_params() + zoo_params() + _family_params()
)
def test_ground_truth_matches_scipy(graph):
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    sparse = pytest.importorskip("scipy.sparse")
    n = graph.num_vertices
    matrix = sparse.csr_matrix(
        (np.ones(graph.targets.size), graph.targets, graph.offsets), shape=(n, n)
    )
    count, theirs = csgraph.connected_components(matrix, directed=False)
    ours = ground_truth_labels(graph)
    assert np.unique(ours).size == count
    assert np.array_equal(canonicalize_labels(ours), canonicalize_labels(theirs))


class TestWhereItSurfaces:
    def test_verify_span_follows_run(self):
        graph = build_graph("rMat", "tiny")
        tracer = Tracer()
        with current_context().child(tracer=tracer).activate():
            prof = execute_profiled("decomp-arb-CC", graph, seed=2)
        spans = [e for e in tracer.events if e["ph"] == "X"]
        names = [e["name"] for e in spans]
        assert names[-2:] == ["run", "verify"]
        run, verify = spans[-2], spans[-1]
        assert verify["ts"] >= run["ts"] + run["dur"]
        assert verify["args"]["path"] == "certificate"
        assert prof.verify_seconds > 0.0

    def test_fallback_span_for_certificate_free_algorithm(self):
        graph = build_graph("rMat", "tiny")
        tracer = Tracer()
        with current_context().child(tracer=tracer).activate():
            execute_profiled("serial-SF", graph)
        verify = [e for e in tracer.events if e["name"] == "verify"]
        assert verify and verify[0]["args"]["path"] == "fallback"

    def test_unverified_run_has_no_verify_time_or_span(self):
        graph = build_graph("rMat", "tiny")
        tracer = Tracer()
        with current_context().child(tracer=tracer).activate():
            prof = execute_profiled("decomp-arb-CC", graph, verify=False, seed=2)
        assert prof.verify_seconds == 0.0
        assert not [e for e in tracer.events if e["name"] == "verify"]

    def test_session_memo_holds_no_certificate(self):
        session = Session(build_graph("rMat", "tiny"), graph_name="rMat")
        prof = session.run()
        assert session.run() is prof
        fields = [getattr(prof, f.name) for f in dataclasses.fields(prof)]
        fields += [getattr(prof.result, f.name) for f in dataclasses.fields(prof.result)]
        fields += list(prof.result.stats.values())
        n = session.graph.num_vertices
        arrays = [f for f in fields if isinstance(f, np.ndarray) and f.shape == (n,)]
        assert len(arrays) == 1 and arrays[0] is prof.result.labels

    def test_resilient_runner_accepts_on_certificate(self):
        graph = build_graph("rMat", "tiny")
        metrics = Metrics()
        with current_context().child(metrics=metrics).activate():
            outcome = ResilientRunner().run_cell("decomp-arb-CC", graph, "rMat")
        assert outcome.attempts == 1
        counters = metrics.snapshot()["counters"]
        assert counters.get("verify.certificate") == 1
        assert "verify.fallback" not in counters

    @pytest.mark.parametrize("variant", ["min", "arb", "arb-hybrid", "min-hybrid"])
    def test_spanning_forest_is_the_certificate(self, variant):
        graph = random_kregular(500, 2, seed=3)
        src, dst = decomp_spanning_forest(graph, beta=0.2, variant=variant, seed=5)
        verify_spanning_forest(graph, src, dst)
        _, certificate = _certified_run(
            f"decomp-{variant}-CC", graph, backend="fast", seed=5
        )
        children = np.flatnonzero(certificate != np.arange(graph.num_vertices))
        assert np.array_equal(src, children)
        assert np.array_equal(dst, certificate[children])


class TestFuzzOracle:
    def _decomp_case(self):
        gen = CaseGenerator(11)
        for index in range(200):
            case = gen.case(index)
            if case.config.algorithm.startswith("decomp-") and case.config.fault is None:
                if build_case_graph(case.graph).num_edges > 0:
                    return case
        raise AssertionError("no clean decomp case in the stream")

    def test_clean_case_agrees(self):
        outcome = run_case(self._decomp_case())
        assert outcome.passed, outcome.findings

    def test_broken_certificate_is_a_finding(self, monkeypatch):
        decomp_cc_module = importlib.import_module("repro.connectivity.decomp_cc")

        def rootless(trees, unwind):
            # Every vertex its own root: rejects any labeling with an edge.
            return np.arange(trees[0][0].size, dtype=np.int64)

        monkeypatch.setattr(decomp_cc_module, "_lift_forest", rootless)
        outcome = run_case(self._decomp_case())
        assert "certificate-disagrees" in outcome.kinds()
        assert "wrong-labeling" not in outcome.kinds()

    @pytest.mark.parametrize("planted", ["merge-components", "hub-mislabel"])
    def test_planted_bugs_rejected_by_both(self, planted):
        gen = CaseGenerator(5)
        seen = 0
        for index in range(40):
            case = gen.case(index)
            if not case.config.algorithm.startswith("decomp-"):
                continue
            outcome = run_case(case, planted=planted)
            assert "certificate-disagrees" not in outcome.kinds()
            seen += "wrong-labeling" in outcome.kinds()
        assert seen > 0
