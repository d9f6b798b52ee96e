"""The runtime PRAM race sanitizer (docs/static_analysis.md).

Three obligations:

* **Clean code is clean** — replaying every golden parity fixture (the
  full decomposition + BFS matrix) under an armed sanitizer reports
  zero races, on both execution backends.
* **Injected faults are caught** — a ``cas_flip`` surfaces as a
  cas-order race and a ``label_corrupt`` as an unsanctioned write; the
  cross-validation the fault framework provides.
* The primitive checks (duplicate claims, atomic/plain mixing, halt
  semantics) work in isolation.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.decomp import DECOMP_VARIANTS
from repro.engine.backend import use_backend
from repro.errors import SanitizerError
from repro.experiments.harness import profile_run
from repro.graphs import disjoint_union_edges, line_graph
from repro.pram.sanitizer import PramSanitizer, sanitizing
from repro.resilience import parse_fault_plan
from repro.runtime.context import current_context

from tests.conftest import _zoo
from tests.golden.generate_decomp_parity import capture_bfs, capture_one

BACKENDS = ["reference", "fast"]

FIXTURE = os.path.join(os.path.dirname(__file__), "golden", "decomp_parity.json")

with open(FIXTURE) as _f:
    _GOLD = json.load(_f)

_DECOMP_KEYS = sorted(k for k in _GOLD if not k.startswith("bfs/"))
_BFS_KEYS = sorted(k for k in _GOLD if k.startswith("bfs/"))


@pytest.fixture(scope="module")
def zoo():
    return _zoo()


class TestGoldenFixturesRaceFree:
    """Every pinned run is race-free under the sanitizer, both backends."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("key", _DECOMP_KEYS)
    def test_decomp_fixture_clean(self, key, backend, zoo):
        gname, variant, beta_s, seed_s = key.split("/")
        beta = float(beta_s.split("=")[1])
        seed = int(seed_s.split("=")[1])
        with use_backend(backend), sanitizing() as sanitizer:
            capture_one(DECOMP_VARIANTS[variant], zoo[gname], beta, seed)
        assert sanitizer.races == []
        assert sanitizer.rounds_checked > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("key", _BFS_KEYS)
    def test_bfs_fixture_clean(self, key, backend, zoo):
        gname = key.split("/")[1]
        with use_backend(backend), sanitizing() as sanitizer:
            capture_bfs(zoo[gname])
        assert sanitizer.races == []


class TestFaultCrossValidation:
    """The sanitizer catches what the fault framework injects."""

    def test_cas_flip_detected_as_cas_order_race(self):
        plan = parse_fault_plan("cas_flip:p=1.0,max_fires=1000000", seed=0)
        with sanitizing(halt_on_race=False) as sanitizer:
            profile_run(
                "decomp-arb-CC",
                line_graph(200),
                verify=False,
                fault_plan=plan,
                seed=1,
            )
        assert plan.fired
        assert sanitizer.races
        assert {r.kind for r in sanitizer.races} == {"cas-order"}

    def test_label_corrupt_detected_as_unsanctioned_write(self):
        graph = disjoint_union_edges([line_graph(20), line_graph(20)])
        plan = parse_fault_plan("label_corrupt:vertex=3,label_from=30", seed=0)
        with sanitizing(halt_on_race=False) as sanitizer:
            profile_run(
                "decomp-arb-CC", graph, verify=False, fault_plan=plan, seed=1
            )
        assert plan.fired
        kinds = {r.kind for r in sanitizer.races}
        assert "unsanctioned-write" in kinds
        corrupted = [r for r in sanitizer.races if r.kind == "unsanctioned-write"]
        assert any(3 in r.indices for r in corrupted)

    def test_halt_mode_raises_on_injected_race(self):
        plan = parse_fault_plan("cas_flip:p=1.0,max_fires=1000000", seed=0)
        with pytest.raises(SanitizerError) as excinfo:
            with sanitizing():  # halt_on_race=True is the default
                profile_run(
                    "decomp-arb-CC",
                    line_graph(200),
                    verify=False,
                    fault_plan=plan,
                    seed=1,
                )
        assert "cas-order" in str(excinfo.value)
        assert excinfo.value.report is not None


class TestPrimitiveChecks:
    """Unit-level behavior of the sanitizer's check machinery."""

    def test_duplicate_declared_write_is_a_conflict(self):
        sanitizer = PramSanitizer(halt_on_race=False)
        labels = np.zeros(8, dtype=np.int64)
        sanitizer.open_run({"labels": labels})
        sanitizer.open_round(0)
        # Two concurrent claims on index 3 inside one declared batch:
        # NumPy keeps the last writer, the PRAM machine the first —
        # a real lost-update hazard.
        sanitizer.record_write(labels, np.array([1, 3, 3, 5]))
        labels[[1, 3, 5]] = 7
        sanitizer.close_round()
        sanitizer.close_run()
        assert [r.kind for r in sanitizer.races] == ["write-conflict"]
        assert 3 in sanitizer.races[0].indices

    def test_atomic_and_plain_write_mix_flagged(self):
        sanitizer = PramSanitizer(halt_on_race=False)
        labels = np.zeros(8, dtype=np.int64)
        sanitizer.open_run({"labels": labels})
        sanitizer.open_round(0)
        sanitizer.record_atomic(labels, np.array([2, 4]))
        sanitizer.record_write(labels, np.array([4, 6]))
        labels[[2, 4, 6]] = 1
        sanitizer.close_round()
        sanitizer.close_run()
        kinds = [r.kind for r in sanitizer.races]
        assert "atomic-mix" in kinds
        mix = next(r for r in sanitizer.races if r.kind == "atomic-mix")
        assert 4 in mix.indices

    def test_unsanctioned_mutation_of_registered_array(self):
        sanitizer = PramSanitizer(halt_on_race=False)
        labels = np.zeros(8, dtype=np.int64)
        sanitizer.open_run({"labels": labels})
        sanitizer.open_round(0)
        labels[5] = 99  # no record_write / sanction covers index 5
        sanitizer.close_round()
        sanitizer.close_run()
        assert [r.kind for r in sanitizer.races] == ["unsanctioned-write"]
        assert sanitizer.races[0].array == "labels"
        assert 5 in sanitizer.races[0].indices

    def test_sanctioned_winner_set_passes(self):
        sanitizer = PramSanitizer(halt_on_race=False)
        labels = np.zeros(8, dtype=np.int64)
        sanitizer.open_run({"labels": labels})
        sanitizer.open_round(0)
        sanitizer.sanction(np.array([1, 5]))
        labels[[1, 5]] = 3
        sanitizer.close_round()
        sanitizer.close_run()
        assert sanitizer.races == []

    def test_context_manager_installs_and_removes(self):
        assert current_context().sanitizer is None
        with sanitizing() as sanitizer:
            assert current_context().sanitizer is sanitizer
        assert current_context().sanitizer is None

    def test_summary_mentions_counts(self):
        with sanitizing() as sanitizer:
            profile_run(
                "decomp-arb-CC", line_graph(50), verify=False, seed=1
            )
        text = sanitizer.summary()
        assert "0 race(s)" in text
        assert sanitizer.cas_checked > 0
