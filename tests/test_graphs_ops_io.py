"""Unit tests for graph operations and I/O."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graphs.builder import from_edges
from repro.graphs.generators import (
    clique,
    line_graph,
    random_kregular,
    star_graph,
)
from repro.graphs.io import (
    load_npz,
    read_edge_list,
    save_npz,
    write_adjacency_graph,
    write_edge_list,
)
from repro.graphs.ops import (
    degree_statistics,
    edges_as_undirected_pairs,
    induced_subgraph,
    isolated_vertices,
    relabel_graph,
)


class TestRelabelGraph:
    def test_identity(self):
        g = clique(5)
        h = relabel_graph(g, np.arange(5))
        assert np.array_equal(g.offsets, h.offsets)

    def test_structure_preserved(self):
        g = star_graph(6)
        perm = np.array([5, 4, 3, 2, 1, 0])
        h = relabel_graph(g, perm)
        assert sorted(h.degrees.tolist()) == sorted(g.degrees.tolist())
        assert h.degrees[5] == 5  # hub moved to label 5

    def test_rejects_non_permutation(self):
        g = clique(3)
        with pytest.raises(GraphFormatError):
            relabel_graph(g, np.array([0, 0, 1]))
        with pytest.raises(GraphFormatError):
            relabel_graph(g, np.array([0, 1]))
        with pytest.raises(GraphFormatError):
            relabel_graph(g, np.array([0, 1, 5]))


class TestDegreeStats:
    def test_star(self):
        s = degree_statistics(star_graph(11))
        assert s["max"] == 10.0
        assert s["min"] == 1.0
        assert s["isolated"] == 0.0

    def test_with_isolated(self):
        g = from_edges(np.array([0]), np.array([1]), num_vertices=4)
        s = degree_statistics(g)
        assert s["isolated"] == 2.0
        assert isolated_vertices(g).tolist() == [2, 3]

    def test_empty(self):
        from repro.graphs.generators import empty_graph

        s = degree_statistics(empty_graph(0))
        assert s["mean"] == 0.0


class TestInducedSubgraph:
    def test_subset_of_clique(self):
        g = clique(6)
        sub, old = induced_subgraph(g, np.array([1, 3, 5]))
        assert sub.num_vertices == 3
        assert sub.num_edges == 3  # triangle
        assert old.tolist() == [1, 3, 5]

    def test_disconnected_selection(self):
        g = line_graph(6)
        sub, _ = induced_subgraph(g, np.array([0, 1, 4, 5]))
        assert sub.num_edges == 2  # 0-1 and 4-5 survive

    def test_duplicates_in_selection_collapse(self):
        g = clique(4)
        sub, old = induced_subgraph(g, np.array([2, 2, 0]))
        assert sub.num_vertices == 2
        assert old.tolist() == [0, 2]

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphFormatError):
            induced_subgraph(clique(3), np.array([9]))


class TestUndirectedPairs:
    def test_each_edge_once(self):
        g = clique(4)
        s, d = edges_as_undirected_pairs(g)
        assert len(s) == 6
        assert (s < d).all()

    def test_roundtrip_through_builder(self):
        g = random_kregular(100, 3, seed=4)
        s, d = edges_as_undirected_pairs(g)
        h = from_edges(s, d, num_vertices=100)
        assert np.array_equal(g.offsets, h.offsets)
        assert np.array_equal(g.targets, h.targets)


class TestIO:
    def test_edge_list_roundtrip(self, tmp_path):
        g = random_kregular(50, 3, seed=6)
        path = tmp_path / "graph.txt"
        write_edge_list(g, path, header="test graph")
        h = read_edge_list(path, num_vertices=50)
        assert np.array_equal(g.offsets, h.offsets)
        assert np.array_equal(g.targets, h.targets)

    def test_read_skips_comments(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# SNAP header\n# more\n0\t1\n1\t2\n")
        g = read_edge_list(path)
        assert g.num_vertices == 3 and g.num_edges == 2

    def test_read_malformed_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\nnot numbers\n")
        with pytest.raises(GraphFormatError):
            read_edge_list(path)

    def test_read_malformed_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# header\n0 1\n1 2\nnot numbers\n3 4\n")
        with pytest.raises(GraphFormatError) as excinfo:
            read_edge_list(path)
        err = excinfo.value
        assert err.line_number == 4  # 1-based, counting the header
        assert err.line_text == "not numbers"
        assert "line 4" in str(err) and "not numbers" in str(err)

    def test_read_missing_column_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n2\n3 4\n")
        with pytest.raises(GraphFormatError) as excinfo:
            read_edge_list(path)
        assert excinfo.value.line_number == 2
        assert excinfo.value.line_text == "2"

    def test_read_negative_id_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n-2 3\n")
        with pytest.raises(GraphFormatError) as excinfo:
            read_edge_list(path)
        assert excinfo.value.line_number == 2
        assert excinfo.value.line_text == "-2 3"

    def test_read_wrong_columns_raises(self, tmp_path):
        path = tmp_path / "bad3.txt"
        path.write_text("0 1 2\n3 4 5\n")
        with pytest.raises(GraphFormatError) as excinfo:
            read_edge_list(path)
        assert excinfo.value.line_number == 1
        assert excinfo.value.line_text == "0 1 2"

    def test_read_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        g = read_edge_list(path, num_vertices=3)
        assert g.num_vertices == 3 and g.num_edges == 0

    def test_npz_roundtrip(self, tmp_path):
        g = random_kregular(80, 4, seed=7)
        path = tmp_path / "g.npz"
        save_npz(g, path)
        h = load_npz(path)
        assert np.array_equal(g.offsets, h.offsets)
        assert np.array_equal(g.targets, h.targets)
        assert h.symmetric == g.symmetric

    def test_npz_wrong_file_raises(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, foo=np.arange(3))
        with pytest.raises(GraphFormatError):
            load_npz(path)

    def test_npz_appends_suffix_like_numpy(self, tmp_path):
        g = random_kregular(30, 3, seed=1)
        save_npz(g, tmp_path / "noext")
        assert (tmp_path / "noext.npz").exists()
        h = load_npz(tmp_path / "noext.npz")
        assert np.array_equal(g.targets, h.targets)


@pytest.mark.parametrize(
    "write, inner, name",
    [
        (write_edge_list, "savetxt", "g.txt"),
        (write_adjacency_graph, "savetxt", "g.adj"),
        (save_npz, "savez_compressed", "g.npz"),
    ],
    ids=["edge-list", "adjacency", "npz"],
)
def test_failed_write_leaves_destination_intact(
    tmp_path, monkeypatch, write, inner, name
):
    path = tmp_path / name
    path.write_bytes(b"previous contents\n")

    def fail(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(np, inner, fail)
    with pytest.raises(OSError, match="disk full"):
        write(random_kregular(20, 3, seed=1), path)
    assert path.read_bytes() == b"previous contents\n"
    assert [p.name for p in tmp_path.iterdir()] == [name]  # no .tmp-* sibling


class TestDegenerateInputs:
    """Empty, self-loop-only and isolated-vertex inputs build and load."""

    def test_builder_empty_edge_list(self):
        g = from_edges(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        assert g.num_vertices == 0 and g.num_edges == 0

    def test_builder_empty_with_vertices(self):
        g = from_edges(
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            num_vertices=7,
        )
        assert g.num_vertices == 7 and g.num_edges == 0
        assert isolated_vertices(g).tolist() == list(range(7))

    def test_builder_all_self_loops(self):
        g = from_edges(np.array([0, 3, 5]), np.array([0, 3, 5]))
        assert g.num_vertices == 6 and g.num_edges == 0

    def test_builder_isolated_max_index_vertex(self):
        g = from_edges(np.array([0]), np.array([1]), num_vertices=10)
        assert g.num_vertices == 10
        assert g.degrees[9] == 0

    def test_builder_negative_id_rejected(self):
        with pytest.raises(GraphFormatError, match="negative"):
            from_edges(np.array([0, -2]), np.array([1, 3]), num_vertices=4)

    def test_read_all_self_loop_file(self, tmp_path):
        path = tmp_path / "loops.txt"
        path.write_text("0 0\n4 4\n2 2\n")
        g = read_edge_list(path)
        assert g.num_vertices == 5 and g.num_edges == 0

    def test_read_truly_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        g = read_edge_list(path)
        assert g.num_vertices == 0 and g.num_edges == 0

    def test_nodes_header_preserves_isolated_vertices(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# Nodes: 9 Edges: 1\n0\t1\n")
        g = read_edge_list(path)
        assert g.num_vertices == 9 and g.num_edges == 1

    def test_stale_nodes_header_is_widened(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# Nodes: 2 Edges: 2\n0\t1\n5\t6\n")
        g = read_edge_list(path)
        assert g.num_vertices == 7

    def test_roundtrip_keeps_trailing_isolated_vertex(self, tmp_path):
        g = from_edges(np.array([0]), np.array([1]), num_vertices=12)
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        h = read_edge_list(path)
        assert h.num_vertices == 12
        assert np.array_equal(g.offsets, h.offsets)

    def test_roundtrip_edgeless_graph(self, tmp_path):
        g = from_edges(
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            num_vertices=4,
        )
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        h = read_edge_list(path)
        assert h.num_vertices == 4 and h.num_edges == 0


class TestAtomicWrites:
    def test_writers_leave_no_temp_files(self, tmp_path):
        g = random_kregular(40, 3, seed=2)
        write_edge_list(g, tmp_path / "g.txt")
        save_npz(g, tmp_path / "g.npz")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.npz", "g.txt"]

    def test_failed_write_preserves_existing_file(self, tmp_path, monkeypatch):
        g = random_kregular(40, 3, seed=2)
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        before = path.read_bytes()

        # Make the payload write blow up mid-stream (the temp file is
        # already open and partially written); the destination must
        # keep its previous contents and the temp must be cleaned.
        import repro.graphs.io as gio

        def boom(*args, **kwargs):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(gio.np, "savetxt", boom)
        with pytest.raises(RuntimeError):
            write_edge_list(g, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.txt"]
