"""Unit tests for the work/depth cost tracker."""

import pytest

from repro.pram.cost import KINDS, CostTracker, tracking
from repro.runtime.context import current_context


class TestCostTracker:
    def test_starts_empty(self):
        t = CostTracker()
        assert t.total_work() == 0.0
        assert t.total_depth() == 0.0
        assert t.buckets == {}

    def test_add_accumulates_work_and_depth(self):
        t = CostTracker()
        t.add("scan", work=10.0, depth=2.0)
        t.add("scan", work=5.0, depth=1.0)
        assert t.total_work() == 15.0
        assert t.total_depth() == 3.0

    def test_add_rejects_unknown_kind(self):
        t = CostTracker()
        with pytest.raises(ValueError, match="unknown cost kind"):
            t.add("warp-speed", work=1.0)

    def test_all_declared_kinds_accepted(self):
        t = CostTracker()
        for kind in KINDS:
            t.add(kind, work=1.0)
        assert t.total_work() == float(len(KINDS))

    def test_sync_charges_depth_only(self):
        t = CostTracker()
        t.sync()
        t.sync(depth=3.0)
        assert t.total_work() == 0.0
        assert t.total_depth() == 4.0
        assert t.sync_count == 2

    def test_default_phase_is_unphased(self):
        t = CostTracker()
        t.add("scan", work=1.0)
        assert ("unphased", "scan") in t.buckets

    def test_phase_labels_attribute_costs(self):
        t = CostTracker()
        with t.phase("init"):
            t.add("alloc", work=7.0)
        with t.phase("bfsMain"):
            t.add("gather", work=3.0, depth=1.0)
        assert t.work_by_phase() == {"init": 7.0, "bfsMain": 3.0}
        assert t.depth_by_phase()["bfsMain"] == 1.0

    def test_phases_nest_innermost_wins(self):
        t = CostTracker()
        with t.phase("outer"):
            with t.phase("inner"):
                t.add("scan", work=1.0)
            t.add("scan", work=2.0)
        assert t.work_by_phase() == {"inner": 1.0, "outer": 2.0}

    def test_phase_restored_after_exception(self):
        t = CostTracker()
        with pytest.raises(RuntimeError):
            with t.phase("doomed"):
                raise RuntimeError("boom")
        assert t.phase_label == "unphased"

    def test_work_by_kind(self):
        t = CostTracker()
        with t.phase("a"):
            t.add("scan", work=1.0)
        with t.phase("b"):
            t.add("scan", work=2.0)
            t.add("atomic", work=4.0)
        assert t.work_by_kind() == {"scan": 3.0, "atomic": 4.0}

    def test_phase_kind_views(self):
        t = CostTracker()
        with t.phase("p"):
            t.add("sort", work=6.0, depth=2.0)
        assert t.phase_kind_work() == {"p": {"sort": 6.0}}
        assert t.phase_kind_depth() == {"p": {"sort": 2.0}}

    def test_merge_folds_buckets_and_syncs(self):
        a = CostTracker()
        b = CostTracker()
        with a.phase("x"):
            a.add("scan", work=1.0)
        with b.phase("x"):
            b.add("scan", work=2.0, depth=1.0)
        b.sync()
        a.merge(b)
        assert a.work_by_phase()["x"] == 3.0
        assert a.sync_count == 1

    def test_snapshot_is_immutable_copy(self):
        t = CostTracker()
        t.add("scan", work=1.0)
        snap = t.snapshot()
        t.add("scan", work=1.0)
        assert snap[("unphased", "scan")] == (1.0, 0.0)

    def test_clear(self):
        t = CostTracker()
        t.add("scan", work=1.0)
        t.sync()
        t.clear()
        assert t.total_work() == 0.0
        assert t.sync_count == 0


class TestActiveTrackerStack:
    def test_no_active_tracker_discards(self):
        # Recording against the null tracker must not blow up nor leak.
        current_context().tracker.add("scan", work=100.0)
        assert current_context().tracker.total_work() == 0.0

    def test_null_tracker_still_validates_kinds(self):
        with pytest.raises(ValueError):
            current_context().tracker.add("bogus", work=1.0)

    def test_tracking_activates_and_restores(self):
        before = current_context().tracker
        with tracking() as t:
            assert current_context().tracker is t
            current_context().tracker.add("scan", work=2.0)
        assert t.total_work() == 2.0
        assert current_context().tracker is before

    def test_tracking_nests(self):
        with tracking() as outer:
            outer_seen = current_context().tracker
            with tracking() as inner:
                current_context().tracker.add("scan", work=5.0)
            assert current_context().tracker is outer_seen
        assert inner.total_work() == 5.0
        assert outer.total_work() == 0.0

    def test_tracking_accepts_existing_tracker(self):
        t = CostTracker()
        with tracking(t) as active:
            assert active is t
            current_context().tracker.add("scan", work=1.0)
        assert t.total_work() == 1.0

    def test_tracking_restores_on_exception(self):
        with pytest.raises(ValueError):
            with tracking():
                raise ValueError("x")
        assert current_context().tracker.total_work() == 0.0
