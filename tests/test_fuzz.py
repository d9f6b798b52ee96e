"""Tests for the differential fuzzing harness (``src/repro/fuzz/``).

Covers the four acceptance pillars: the case stream is deterministic,
a deliberately planted kernel bug is found and auto-shrunk to a
handful of vertices, the checked-in crash corpus replays green on both
backends under the sanitizer, and the CLI entry points wire it all
together.
"""

import itertools
import json
from dataclasses import replace

import pytest

from repro.cli import main
from repro.errors import ParameterError
from repro.fuzz import (
    CaseConfig,
    CaseGenerator,
    CaseGraph,
    FuzzCase,
    build_case_graph,
    corpus_paths,
    fuzz_run,
    load_case,
    run_case,
    save_case,
    shrink_case,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCaseSerialization:
    def test_family_roundtrip(self):
        case = FuzzCase(
            graph=CaseGraph(
                kind="family", family="lollipop", params={"clique": 4, "tail": 3}
            ),
            config=CaseConfig(algorithm="decomp-arb-CC", beta=0.4, seed=9),
            case_id="t-1",
        )
        again = FuzzCase.from_json(case.to_json())
        assert again == case

    def test_edges_roundtrip(self):
        case = FuzzCase(
            graph=CaseGraph(
                kind="edges", num_vertices=5, edges=((0, 0), (1, 2), (1, 2))
            ),
            config=CaseConfig(
                algorithm="serial-SF",
                backends=("reference",),
                fault="cas_flip:p=0.5",
                fault_seed=4,
            ),
        )
        again = FuzzCase.from_json(case.to_json())
        assert again.graph == case.graph
        assert again.config == case.config

    def test_content_hash_ignores_id_and_note(self):
        g = CaseGraph(kind="edges", num_vertices=2, edges=())
        c = CaseConfig(algorithm="serial-SF")
        a = FuzzCase(graph=g, config=c, case_id="a", note="x")
        b = FuzzCase(graph=g, config=c, case_id="b", note="y")
        assert a.content_hash() == b.content_hash()

    def test_unknown_family_rejected(self):
        with pytest.raises(ParameterError, match="family"):
            CaseGraph.from_json({"kind": "family", "family": "petersen"})

    def test_unknown_format_rejected(self):
        with pytest.raises(ParameterError, match="format"):
            FuzzCase.from_json({"format": 99, "graph": {}, "config": {}})

    def test_edges_case_builds_with_isolated_tail(self):
        g = build_case_graph(
            CaseGraph(kind="edges", num_vertices=9, edges=((0, 1),))
        )
        assert g.num_vertices == 9 and g.num_edges == 1


class TestGeneratorDeterminism:
    def test_same_seed_same_stream(self):
        a = CaseGenerator(7)
        b = CaseGenerator(7)
        for i in range(50):
            assert a.case(i).to_json() == b.case(i).to_json()

    def test_random_access_matches_streaming(self):
        gen = CaseGenerator(3)
        streamed = list(itertools.islice(gen.cases(), 20))
        for i, case in enumerate(streamed):
            assert gen.case(i).to_json() == case.to_json()

    def test_different_seeds_differ(self):
        a = [CaseGenerator(1).case(i).to_json() for i in range(20)]
        b = [CaseGenerator(2).case(i).to_json() for i in range(20)]
        assert a != b

    def test_every_generated_graph_builds(self):
        for case in itertools.islice(CaseGenerator(11).cases(), 30):
            g = build_case_graph(case.graph)
            assert g.num_vertices >= 0


class TestOracle:
    def test_clean_case_passes(self):
        case = FuzzCase(
            graph=CaseGraph(kind="family", family="path", params={"n": 12}),
            config=CaseConfig(algorithm="decomp-arb-CC", sanitize=True),
        )
        outcome = run_case(case)
        assert outcome.passed and outcome.num_components == 1

    def test_planted_bug_is_found(self):
        case = FuzzCase(
            graph=CaseGraph(kind="edges", num_vertices=3, edges=()),
            config=CaseConfig(algorithm="decomp-arb-CC"),
        )
        outcome = run_case(case, planted="merge-components")
        assert not outcome.passed
        assert "wrong-labeling" in outcome.kinds()

    def test_planted_bug_skips_other_algorithms(self):
        case = FuzzCase(
            graph=CaseGraph(kind="edges", num_vertices=3, edges=()),
            config=CaseConfig(algorithm="serial-SF"),
        )
        assert run_case(case, planted="merge-components").passed

    def test_unknown_planted_name_rejected(self):
        with pytest.raises(ParameterError, match="planted"):
            fuzz_run(seed=1, max_cases=1, planted="no-such-bug")


class TestShrinker:
    def test_planted_bug_shrinks_to_minimal_graph(self):
        # A haystack: 30-vertex random graph, family-encoded.  The
        # shrinker must materialize, cut and compact it down to the
        # planted bug's essential shape (two isolated vertices).
        case = FuzzCase(
            graph=CaseGraph(
                kind="family",
                family="random",
                params={"n": 30, "m": 25, "seed": 5},
            ),
            config=CaseConfig(
                algorithm="decomp-arb-CC", beta=0.4, seed=6, sanitize=True
            ),
        )
        assert not run_case(case, planted="merge-components").passed
        result = shrink_case(case, planted="merge-components")
        assert result.kinds == ("wrong-labeling",)
        assert result.case.graph.kind == "edges"
        assert result.num_vertices <= 8  # the acceptance bound
        assert result.num_edges <= 1
        # Config minimization dropped what the failure does not need.
        assert result.case.config.sanitize is False
        assert result.case.config.beta == 0.2
        # The shrunk case still fails the same way.
        assert not run_case(result.case, planted="merge-components").passed

    def test_passing_case_returned_unchanged(self):
        case = FuzzCase(
            graph=CaseGraph(kind="family", family="path", params={"n": 5}),
            config=CaseConfig(algorithm="serial-SF"),
        )
        result = shrink_case(case)
        assert result.kinds == ()
        assert result.case.graph == case.graph


class TestCorpusReplay:
    def test_corpus_is_seeded(self):
        assert len(corpus_paths()) >= 5

    @pytest.mark.parametrize(
        "path", corpus_paths(), ids=lambda p: p.stem if p else "none"
    )
    def test_replays_green_with_sanitizer(self, path):
        case = load_case(path)
        armed = case.with_config(replace(case.config, sanitize=True))
        outcome = run_case(armed)
        assert outcome.passed, (
            f"{path.name}: {[str(f) for f in outcome.findings]}"
        )

    def test_one_case_is_fault_injected(self):
        faults = [c.config.fault for _, c in _iter_checked_in()]
        assert any(f is not None for f in faults)

    def test_fault_case_is_detected_not_ignored(self):
        for _, case in _iter_checked_in():
            if case.config.fault is None:
                continue
            outcome = run_case(case)
            assert outcome.detected and outcome.detected_by == "verifier"

    def test_corpus_files_are_canonical_json(self):
        for path, case in _iter_checked_in():
            data = json.loads(path.read_text())
            assert data["format"] == 1
            assert FuzzCase.from_json(data).graph == case.graph


def _iter_checked_in():
    return [(p, load_case(p)) for p in corpus_paths()]


class TestFuzzRun:
    def test_clean_session_has_no_failures(self, tmp_path):
        report = fuzz_run(seed=7, max_cases=30, corpus_dir=tmp_path)
        assert report.ok and report.cases_run == 30
        assert list(tmp_path.iterdir()) == []

    def test_report_is_deterministic(self):
        a = fuzz_run(seed=13, max_cases=40, shrink=False)
        b = fuzz_run(seed=13, max_cases=40, shrink=False)
        assert a.to_json() == b.to_json()

    @pytest.mark.fuzz
    def test_200_case_stream_is_deterministic(self):
        # The acceptance contract: two identical invocations produce
        # identical case streams and reports, shrinking included.
        a = fuzz_run(seed=7, max_cases=200)
        b = fuzz_run(seed=7, max_cases=200)
        assert a.to_json() == b.to_json()

    def test_planted_session_finds_shrinks_and_persists(self, tmp_path):
        report = fuzz_run(
            seed=7, max_cases=25, planted="merge-components", corpus_dir=tmp_path
        )
        assert not report.ok
        for failure in report.failures:
            assert failure.shrunk_vertices is not None
            assert failure.shrunk_vertices <= 8
            # The saved repro replays its failure standalone: the
            # planted bug travels inside the case file.
            saved = load_case(failure.repro_path)
            assert saved.config.planted == "merge-components"
            assert not run_case(saved).passed

    def test_time_budget_stops_between_cases(self):
        report = fuzz_run(seed=1, max_cases=500, time_budget=0.0)
        assert report.stopped_by_budget
        assert report.cases_run == 0


class TestCli:
    def test_fuzz_smoke(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out = run_cli(
            capsys, "fuzz", "--seed", "7", "--max-cases", "10", "--no-shrink"
        )
        assert code == 0
        assert "fuzz seed  : 7" in out
        assert "failures   : 0" in out

    def test_fuzz_planted_exits_nonzero(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out = run_cli(
            capsys,
            "fuzz",
            "--seed",
            "7",
            "--max-cases",
            "10",
            "--planted",
            "merge-components",
            "--corpus",
            str(tmp_path / "repros"),
        )
        assert code == 1
        assert "wrong-labeling" in out

    def test_fuzz_seed_from_run_id(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GITHUB_RUN_ID", "424242")
        code, out = run_cli(
            capsys, "fuzz", "--seed", "from-run-id", "--max-cases", "2",
            "--no-shrink",
        )
        assert code == 0
        assert "fuzz seed  : 424242" in out

    def test_fuzz_bad_seed_is_parameter_error(self, capsys):
        code = main(["fuzz", "--seed", "banana", "--max-cases", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "from-run-id" in err

    def test_replay_corpus_case(self, capsys):
        path = corpus_paths()[0]
        code, out = run_cli(capsys, "replay", str(path))
        assert code == 0
        assert "verdict    : PASS" in out

    def test_replay_failing_case(self, capsys, tmp_path):
        case = FuzzCase(
            graph=CaseGraph(kind="edges", num_vertices=2, edges=()),
            config=CaseConfig(
                algorithm="decomp-arb-CC", planted="merge-components"
            ),
        )
        path = save_case(tmp_path, case, kinds=("wrong-labeling",))
        code, out = run_cli(capsys, "replay", str(path))
        assert code == 1
        assert "verdict    : FAIL" in out

    def test_replay_missing_file_is_error(self, capsys):
        code = main(["replay", "does-not-exist.json"])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, needle",
        [
            ({"backends": ["reference", "bogus"]}, "'bogus'"),
            ({"algorithm": "no-such-CC"}, "'no-such-CC'"),
            ({"threads": 2}, "'threads'"),
        ],
        ids=["unknown-backend", "unknown-algorithm", "unknown-key"],
    )
    def test_replay_malformed_case_is_usage_error(
        self, capsys, tmp_path, edit, needle
    ):
        data = json.loads(corpus_paths()[0].read_text())
        data["config"].update(edit)
        with pytest.raises(ParameterError):
            FuzzCase.from_json(data)
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(data))
        code = main(["replay", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:") and needle in captured.err
        assert "verdict" not in captured.out
