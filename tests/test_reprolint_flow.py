"""The interprocedural rules RL006-RL009: units, seeded regressions,
the incremental cache, and config diagnostics.

Mirrors ``test_reprolint.py`` for the dataflow-powered rule family:
each rule flags its doctored kernel — including planted in a copy of
the *real* ``engine/parallel.py`` under the checked-in config — and
stays quiet on the sanctioned shapes the real code uses.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.analysis.reprolint import (
    LintCache,
    lint_paths,
    load_config,
    rules_for_path,
    run_lint,
)
from repro.analysis.reprolint.rules import RULE_CHECKERS
from repro.errors import LintConfigError

REPO_ROOT = Path(__file__).resolve().parent.parent
PARALLEL = REPO_ROOT / "src" / "repro" / "engine" / "parallel.py"
SESSION = REPO_ROOT / "src" / "repro" / "runtime" / "session.py"
CONFIG = REPO_ROOT / "reprolint.toml"

ENGINE = "src/repro/engine/x.py"
PARALLEL_KEY = "src/repro/engine/parallel.py"
RUNTIME = "src/repro/runtime/x.py"


def check(rule: str, source: str, path_key: str = ENGINE):
    return list(RULE_CHECKERS[rule](ast.parse(source), path_key))


class TestRL006WorkerTaint:
    def test_worker_sized_allocation_flagged(self):
        violations = check(
            "RL006",
            "import numpy as np\n"
            "class W:\n"
            "    def kernel(self):\n"
            "        return np.empty(self.workers * 4, dtype=np.int64)\n",
        )
        assert [v.rule for v in violations] == ["RL006"]
        assert violations[0].line == 4

    def test_taint_through_helper_into_chunk_and_step(self):
        violations = check(
            "RL006",
            "def per_worker(self, n):\n"
            "    return n // self.workers\n"
            "class W:\n"
            "    def kernel(self, n):\n"
            "        chunk_size = per_worker(self, n)\n"
            "        return list(range(0, n, chunk_size))\n",
        )
        # The tainted store into a chunk-named binding and the tainted
        # range() step are separate findings.
        assert len(violations) == 2
        assert {v.line for v in violations} == {5, 6}

    def test_constant_chunk_grid_is_clean(self):
        assert not check(
            "RL006",
            "DEFAULT_CHUNK_SIZE = 1 << 15\n"
            "class W:\n"
            "    def kernel(self, n):\n"
            "        step = DEFAULT_CHUNK_SIZE\n"
            "        return list(range(0, n, step))\n",
        )

    def test_worker_count_as_parallelism_degree_is_clean(self):
        # Using the count to *schedule* (pool width) is fine; only
        # value-shaping uses are findings.
        assert not check(
            "RL006",
            "class W:\n"
            "    def kernel(self, tasks):\n"
            "        pool = get_pool(self.workers)\n"
            "        return pool\n",
        )


class TestRL007DisjointSlices:
    HEADER = (
        "import numpy as np\n"
        "class ParallelWorkspace:\n"
        "    def take(self, arr, idx, key):\n"
        "        spans = self._chunks(idx.shape[0])\n"
        "        out = self._buf(key, idx.shape[0], arr.dtype)\n"
    )

    def test_off_by_one_overlap_flagged(self):
        violations = check(
            "RL007",
            self.HEADER
            + "        self._foreach_span(\n"
            "            spans,\n"
            "            lambda lo, hi: np.take(\n"
            "                arr, idx[lo:hi], out=out[lo:hi + 1], mode='clip'\n"
            "            ),\n"
            "        )\n"
            "        return out\n",
            PARALLEL_KEY,
        )
        assert len(violations) == 1
        assert violations[0].rule == "RL007"

    def test_whole_array_out_flagged(self):
        violations = check(
            "RL007",
            self.HEADER
            + "        self._foreach_span(\n"
            "            spans,\n"
            "            lambda lo, hi: np.take(arr, idx[lo:hi], out=out),\n"
            "        )\n"
            "        return out\n",
            PARALLEL_KEY,
        )
        assert len(violations) == 1

    def test_exact_span_slice_is_clean(self):
        assert not check(
            "RL007",
            self.HEADER
            + "        self._foreach_span(\n"
            "            spans,\n"
            "            lambda lo, hi: np.take(\n"
            "                arr, idx[lo:hi], out=out[lo:hi], mode='clip'\n"
            "            ),\n"
            "        )\n"
            "        return out\n",
            PARALLEL_KEY,
        )

    def test_non_worker_shard_key_flagged(self):
        violations = check(
            "RL007",
            "class ParallelWorkspace:\n"
            "    def scatter(self, idx, total):\n"
            "        spans = self._worker_spans(total)\n"
            "        def body(w, lo, hi):\n"
            "            shard = self._shard_buf(0, 'k', total, int)\n"
            "            shard[idx[lo:hi]] = 1\n"
            "        self._run(\n"
            "            [\n"
            "                (lambda w=w, lo=lo, hi=hi: body(w, lo, hi))\n"
            "                for w, (lo, hi) in enumerate(spans)\n"
            "            ]\n"
            "        )\n",
            PARALLEL_KEY,
        )
        assert len(violations) == 1
        assert "shard" in violations[0].message

    def test_worker_keyed_shard_is_clean(self):
        assert not check(
            "RL007",
            "class ParallelWorkspace:\n"
            "    def scatter(self, idx, total):\n"
            "        spans = self._worker_spans(total)\n"
            "        def body(w, lo, hi):\n"
            "            shard = self._shard_buf(w, 'k', total, int)\n"
            "            shard[idx[lo:hi]] = 1\n"
            "        self._run(\n"
            "            [\n"
            "                (lambda w=w, lo=lo, hi=hi: body(w, lo, hi))\n"
            "                for w, (lo, hi) in enumerate(spans)\n"
            "            ]\n"
            "        )\n",
            PARALLEL_KEY,
        )

    def test_unsanctioned_span_provenance_flagged(self):
        violations = check(
            "RL007",
            "class ParallelWorkspace:\n"
            "    def op(self, out, total):\n"
            "        spans = self._unsliced(total)\n"
            "        self._foreach_span(spans, lambda lo, hi: work(out[lo:hi]))\n",
            PARALLEL_KEY,
        )
        assert len(violations) == 1


class TestRL008Lifecycle:
    def test_claimed_pool_on_early_return_flagged(self):
        violations = check(
            "RL008",
            "class Session:\n"
            "    def run(self):\n"
            "        ws = self._claim_pool()\n"
            "        if bad(ws):\n"
            "            return None\n"
            "        result = compute(ws)\n"
            "        self._release_pool(ws)\n"
            "        return result\n",
            RUNTIME,
        )
        # Claimed on the early return AND on every exceptional path
        # out of compute(); one finding per leaking exit kind at least.
        assert violations
        assert all(v.rule == "RL008" for v in violations)

    def test_release_in_finally_is_clean(self):
        assert not check(
            "RL008",
            "class Session:\n"
            "    def run(self):\n"
            "        ws = self._claim_pool()\n"
            "        try:\n"
            "            return compute(ws)\n"
            "        finally:\n"
            "            self._release_pool(ws)\n",
            RUNTIME,
        )

    def test_conditional_claim_conditional_release_is_clean(self):
        # Session.run's real shape: the claim only happens on one
        # branch, and the finally releases exactly then — the MAYBE
        # state at the join must not be flagged.
        assert not check(
            "RL008",
            "class Session:\n"
            "    def run(self, wait_for):\n"
            "        ws = None\n"
            "        if wait_for is None:\n"
            "            ws = self._claim_pool()\n"
            "        try:\n"
            "            return compute(ws)\n"
            "        finally:\n"
            "            if ws is not None:\n"
            "                self._release_pool(ws)\n",
            RUNTIME,
        )

    def test_token_without_finally_flagged(self):
        violations = check(
            "RL008",
            "def activate(self):\n"
            "    token = _CONTEXT.set(self)\n"
            "    yield self\n"
            "    _CONTEXT.reset(token)\n",
            RUNTIME,
        )
        assert violations
        assert "exceptional" in " ".join(v.message for v in violations)

    def test_token_set_reset_in_finally_is_clean(self):
        assert not check(
            "RL008",
            "def activate(self):\n"
            "    token = _CONTEXT.set(self)\n"
            "    try:\n"
            "        yield self\n"
            "    finally:\n"
            "        _CONTEXT.reset(token)\n",
            RUNTIME,
        )

    def test_discarded_acquire_flagged(self):
        violations = check(
            "RL008",
            "def run(ctx, n):\n"
            "    ctx.acquire_workspace(n)\n"
            "    return compute(n)\n",
            RUNTIME,
        )
        assert len(violations) == 1
        assert "discard" in violations[0].message

    def test_double_acquire_flagged(self):
        violations = check(
            "RL008",
            "def run(ctx, n):\n"
            "    a = ctx.acquire_workspace(n)\n"
            "    b = ctx.acquire_workspace(n)\n"
            "    return compute(a, b)\n",
            RUNTIME,
        )
        assert len(violations) == 1

    def test_single_bound_acquire_is_clean(self):
        assert not check(
            "RL008",
            "def run(ctx, n):\n"
            "    ws = ctx.acquire_workspace(n)\n"
            "    return compute(ws)\n",
            RUNTIME,
        )


class TestRL009ShardCombines:
    COMBINE = (
        "import numpy as np\n"
        "class ParallelWorkspace:\n"
        "    def {name}(self, dest, touched, bound, identity):\n"
        "        spans = self._worker_spans(bound)\n"
        "        for w in range(len(spans)):\n"
        "            hit = touched[w]\n"
        "            shard = self._shard_filled(w, 'k', bound, identity, int)\n"
        "            {merge}\n"
    )

    def _combine(self, name: str, merge: str):
        return check(
            "RL009",
            self.COMBINE.format(name=name, merge=merge),
            PARALLEL_KEY,
        )

    def test_arithmetic_accumulation_always_flagged(self):
        # Even inside a sanctioned combiner's name: += over shards is
        # merge-order-sensitive, full stop.
        violations = self._combine(
            "minimum_scatter", "dest[hit] += shard[hit]"
        )
        assert [v.rule for v in violations] == ["RL009"]

    def test_np_add_merge_flagged(self):
        violations = self._combine(
            "minimum_scatter", "dest[hit] = np.add(dest[hit], shard[hit])"
        )
        assert len(violations) == 1

    def test_min_merge_outside_sanctioned_combiner_flagged(self):
        violations = self._combine(
            "custom_merge", "dest[hit] = np.minimum(dest[hit], shard[hit])"
        )
        assert len(violations) == 1
        assert "custom_merge" in violations[0].qualname

    def test_sanctioned_min_fold_is_clean(self):
        assert not self._combine(
            "minimum_scatter", "dest[hit] = np.minimum(dest[hit], shard[hit])"
        )

    def test_sanctioned_winner_overwrite_is_clean(self):
        assert not self._combine("winner_scatter", "dest[hit] = shard[hit]")


class TestSeededRegressionParallel:
    """Doctored copies of the *real* parallel backend must be flagged."""

    def _stage(self, tmp_path: Path, mutate) -> Path:
        staged = tmp_path / "src" / "repro" / "engine" / "parallel.py"
        staged.parent.mkdir(parents=True)
        staged.write_text(mutate(PARALLEL.read_text(encoding="utf-8")))
        return staged

    def _lint(self, staged: Path):
        return lint_paths([staged], load_config(CONFIG), enforce_stale=False)

    def test_unmodified_copy_is_clean(self, tmp_path):
        staged = self._stage(tmp_path, lambda src: src)
        report = self._lint(staged)
        assert report.violations == []
        # The one RL006 suppression (_worker_spans) fired.
        assert report.suppressed > 0

    def test_seeded_worker_sized_buffer_flagged(self, tmp_path):
        evil = "        pad = np.empty(self.workers * 4, dtype=np.int64)\n"
        staged = self._stage(
            tmp_path,
            lambda src: src.replace(
                "        out = self._buf(key, idx.shape[0], arr.dtype)\n",
                evil + "        out = self._buf(key, idx.shape[0], arr.dtype)\n",
                1,
            ),
        )
        line = staged.read_text().splitlines().index(evil.rstrip("\n")) + 1
        hits = [v for v in self._lint(staged).violations if v.rule == "RL006"]
        assert [v.line for v in hits] == [line]
        assert f"parallel.py:{line}:" in hits[0].format()

    def test_seeded_overlapping_slice_flagged(self, tmp_path):
        staged = self._stage(
            tmp_path,
            lambda src: src.replace(
                "arr, idx[lo:hi], out=out[lo:hi], mode=\"clip\"",
                "arr, idx[lo:hi], out=out[lo : hi + 1], mode=\"clip\"",
                1,
            ),
        )
        hits = [v for v in self._lint(staged).violations if v.rule == "RL007"]
        assert len(hits) == 1
        assert hits[0].qualname.endswith("take")

    def test_seeded_leaky_pool_claim_flagged(self, tmp_path):
        evil = (
            "\n\ndef leaky_run(session, frontier):\n"
            "    ws = session._claim_pool()\n"
            "    if frontier is None:\n"
            "        return None\n"
            "    out = ws.take(frontier, frontier, \"leak\")\n"
            "    session._release_pool(ws)\n"
            "    return out\n"
        )
        staged = self._stage(tmp_path, lambda src: src + evil)
        hits = [v for v in self._lint(staged).violations if v.rule == "RL008"]
        assert hits
        assert all(v.qualname == "leaky_run" for v in hits)

    def test_seeded_additive_combine_flagged(self, tmp_path):
        staged = self._stage(
            tmp_path,
            lambda src: src.replace(
                "            dest[hit] = np.minimum(dest[hit], shard[hit])\n",
                "            dest[hit] = np.add(dest[hit], shard[hit])\n",
                1,
            ),
        )
        hits = [v for v in self._lint(staged).violations if v.rule == "RL009"]
        assert len(hits) == 1
        assert hits[0].qualname.endswith("minimum_scatter")


class TestSeededRegressionSession:
    """Doctored copies of the session runtime, which owns the real
    ``_claim_pool``/``_release_pool``, must be flagged by RL008."""

    def _stage(self, tmp_path: Path, mutate) -> Path:
        staged = tmp_path / "src" / "repro" / "runtime" / "session.py"
        staged.parent.mkdir(parents=True)
        staged.write_text(mutate(SESSION.read_text(encoding="utf-8")))
        return staged

    def _lint(self, staged: Path):
        return lint_paths([staged], load_config(CONFIG), enforce_stale=False)

    def test_unmodified_copy_is_clean(self, tmp_path):
        staged = self._stage(tmp_path, lambda src: src)
        assert self._lint(staged).violations == []

    def test_seeded_leaky_pool_claim_flagged(self, tmp_path):
        evil = (
            "\n\ndef leaky_run(session, graph):\n"
            "    ws = session._claim_pool()\n"
            "    if graph is None:\n"
            "        return None\n"
            "    out = execute_profiled(\"decomp-arb-CC\", graph, workspace=ws)\n"
            "    session._release_pool(ws)\n"
            "    return out\n"
        )
        staged = self._stage(tmp_path, lambda src: src + evil)
        hits = [v for v in self._lint(staged).violations if v.rule == "RL008"]
        assert hits
        assert all(v.qualname == "leaky_run" for v in hits)


class TestIncrementalCache:
    def _counting_checkers(self, monkeypatch):
        calls = {"n": 0}
        for rule, checker in list(RULE_CHECKERS.items()):
            def wrapper(tree, path, _c=checker):
                calls["n"] += 1
                return _c(tree, path)
            monkeypatch.setitem(RULE_CHECKERS, rule, wrapper)
        return calls

    def test_warm_run_invokes_no_checkers(self, tmp_path, monkeypatch):
        calls = self._counting_checkers(monkeypatch)
        config = load_config(CONFIG)
        cache_path = tmp_path / ".reprolint-cache.json"

        cold_cache = LintCache.load(cache_path)
        cold = lint_paths(
            [PARALLEL], config, enforce_stale=False, cache=cold_cache
        )
        cold_calls = calls["n"]
        assert cold_calls >= 5  # several rules actually analyzed the file
        assert cold_cache.misses > 0

        calls["n"] = 0
        warm_cache = LintCache.load(cache_path)
        warm = lint_paths(
            [PARALLEL], config, enforce_stale=False, cache=warm_cache
        )
        # >= 5x faster by construction: the warm run re-ran *zero*
        # checkers, replaying raw findings from the content-hash cache.
        assert calls["n"] == 0
        assert warm_cache.hits > 0
        assert [v.format() for v in warm.violations] == [
            v.format() for v in cold.violations
        ]
        assert warm.suppressed == cold.suppressed

    def test_edited_file_misses_the_cache(self, tmp_path, monkeypatch):
        calls = self._counting_checkers(monkeypatch)
        config = load_config(CONFIG)
        cache_path = tmp_path / ".reprolint-cache.json"
        target = tmp_path / "src" / "repro" / "engine" / "parallel.py"
        target.parent.mkdir(parents=True)
        target.write_text(PARALLEL.read_text(encoding="utf-8"))

        cache = LintCache.load(cache_path)
        lint_paths([target], config, enforce_stale=False, cache=cache)
        assert calls["n"] > 0

        target.write_text(
            PARALLEL.read_text(encoding="utf-8") + "\n# touched\n"
        )
        calls["n"] = 0
        cache2 = LintCache.load(cache_path)
        lint_paths([target], config, enforce_stale=False, cache=cache2)
        assert calls["n"] > 0  # content hash changed -> re-analyzed

    def test_allowlist_edits_do_not_go_stale_on_warm_runs(self, tmp_path):
        # Suppression is applied *after* cache replay, so narrowing the
        # config surfaces previously-suppressed findings on a warm run.
        cache_path = tmp_path / ".reprolint-cache.json"
        config = load_config(CONFIG)
        cache = LintCache.load(cache_path)
        clean = lint_paths(
            [PARALLEL], config, enforce_stale=False, cache=cache
        )
        assert clean.violations == []

        from repro.analysis.reprolint import LintConfig

        warm = lint_paths(
            [PARALLEL],
            LintConfig(),
            enforce_stale=False,
            cache=LintCache.load(cache_path),
        )
        # The _worker_spans RL006 finding reappears without its entry.
        assert any(v.rule == "RL006" for v in warm.violations)


class TestConfigDiagnostics:
    def _load(self, tmp_path: Path, text: str):
        p = tmp_path / "reprolint.toml"
        p.write_text(text)
        return p, lambda: load_config(p)

    def test_errors_carry_the_entry_line_number(self, tmp_path):
        p, load = self._load(
            tmp_path,
            '[[allow]]\n'
            'rule = "RL001"\n'
            'site = "a.py::f"\n'
            'reason = "fine"\n'
            '\n'
            '[[allow]]\n'
            'rule = "RL999"\n'
            'site = "b.py::g"\n'
            'reason = "broken"\n',
        )
        with pytest.raises(LintConfigError) as err:
            load()
        assert f"{p}:6: allow[1]" in str(err.value)

    def test_unknown_entry_keys_rejected(self, tmp_path):
        _, load = self._load(
            tmp_path,
            '[[allow]]\n'
            'rule = "RL001"\n'
            'site = "a.py::f"\n'
            'reason = "x"\n'
            'sevirity = "low"\n',
        )
        with pytest.raises(LintConfigError, match="unknown keys"):
            load()

    def test_scopes_cover_the_new_rules(self):
        assert "RL006" in rules_for_path("src/repro/engine/workspace.py")
        assert "RL007" in rules_for_path(PARALLEL_KEY)
        assert "RL007" not in rules_for_path("src/repro/engine/kernels.py")
        assert "RL008" in rules_for_path("src/repro/runtime/session.py")
        assert "RL008" in rules_for_path("src/repro/runtime/context.py")
        assert "RL009" in rules_for_path(PARALLEL_KEY)

    def test_full_tree_is_clean_under_the_flow_rules_too(self):
        report = run_lint()
        assert report.ok, "\n".join(report.format_lines())
