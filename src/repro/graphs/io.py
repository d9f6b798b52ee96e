"""Graph I/O: SNAP-style edge-list text and compact ``.npz`` binaries.

The paper loads com-Orkut from SNAP's whitespace edge-list format; this
module reads/writes that format (so a user with network access can drop
the real file in) plus a fast ``.npz`` container for generated inputs.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Union

import numpy as np

from repro.errors import GraphFormatError
from repro.fsutil import atomic_write_path
from repro.graphs.builder import from_edges
from repro.graphs.csr import CSRGraph

__all__ = [
    "read_edge_list",
    "write_edge_list",
    "read_adjacency_graph",
    "write_adjacency_graph",
    "save_npz",
    "load_npz",
]

PathLike = Union[str, os.PathLike]


def _header_num_vertices(path: Path) -> int | None:
    """Parse SNAP's ``# Nodes: N`` comment from the file's header block.

    Only the leading run of comment lines is scanned, so the cost is
    O(header) regardless of file size.  Returns ``None`` when no such
    comment exists (plain edge lists).
    """
    import re

    with path.open("r", encoding="utf-8", errors="replace") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if not line.startswith("#"):
                return None
            match = re.search(r"Nodes:\s*(\d+)", line)
            if match:
                return int(match.group(1))
    return None


def _locate_bad_line(path: Path) -> tuple[int, str]:
    """Find the first data line of *path* that is not two integers.

    Returns ``(1-based line number, stripped line text)``; falls back
    to line 0 / empty text when every line individually parses (e.g.
    the file as a whole was unreadable for another reason).
    """
    with path.open("r", encoding="utf-8", errors="replace") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            try:
                ok = len(fields) == 2 and all(int(f) >= 0 for f in fields)
            except ValueError:
                ok = False
            if not ok:
                return lineno, line
    return 0, ""


def read_edge_list(path: PathLike, num_vertices: int | None = None) -> CSRGraph:
    """Read a SNAP-style whitespace edge list into a symmetric CSR graph.

    Lines starting with ``#`` (SNAP headers) are ignored; each remaining
    line must hold two non-negative integers ``u v``.  The result is
    symmetrized and deduplicated like every other input.

    A malformed file raises :class:`~repro.errors.GraphFormatError`
    carrying the 1-based ``line_number`` and offending ``line_text`` —
    the parse itself stays on the fast ``np.loadtxt`` path and the file
    is only re-scanned to locate the bad line once a failure is certain.

    When *num_vertices* is not given, a SNAP-style ``# Nodes: N``
    header comment supplies the vertex count, so isolated top-index
    vertices (invisible in the edge lines) survive a
    :func:`write_edge_list` round trip; a header smaller than the
    edges' actual id range is treated as stale and widened rather than
    rejected.
    """
    import warnings

    path = Path(path)
    header_n = _header_num_vertices(path) if num_vertices is None else None
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message=".*no data.*")
            data = np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2)
    except ValueError as exc:
        lineno, text = _locate_bad_line(path)
        if lineno:
            raise GraphFormatError(
                f"malformed edge list in {path}",
                line_number=lineno,
                line_text=text,
            ) from exc
        raise GraphFormatError(f"malformed edge list in {path}: {exc}") from exc
    if data.size == 0:
        return from_edges(
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            num_vertices=num_vertices or header_n or 0,
        )
    if data.shape[1] != 2:
        lineno, text = _locate_bad_line(path)
        raise GraphFormatError(
            f"edge list in {path} must have two columns, got {data.shape[1]}",
            line_number=lineno or None,
            line_text=text or None,
        )
    if data.min() < 0:
        lineno, text = _locate_bad_line(path)
        raise GraphFormatError(
            f"edge list in {path} has negative vertex ids",
            line_number=lineno or None,
            line_text=text or None,
        )
    if num_vertices is None and header_n is not None:
        num_vertices = max(header_n, int(data.max()) + 1)
    return from_edges(data[:, 0], data[:, 1], num_vertices=num_vertices)


def write_edge_list(graph: CSRGraph, path: PathLike, header: str = "") -> None:
    """Write each undirected edge once in SNAP format (``u<TAB>v``).

    The write is atomic (temp file + ``os.replace``): a crash mid-write
    never leaves a truncated edge list that would silently load as a
    smaller graph.
    """
    from repro.graphs.ops import edges_as_undirected_pairs

    src, dst = edges_as_undirected_pairs(graph)
    with atomic_write_path(Path(path)) as tmp:
        with tmp.open("w", encoding="utf-8") as fh:
            if header:
                for line in header.splitlines():
                    fh.write(f"# {line}\n")
            fh.write(f"# Nodes: {graph.num_vertices} Edges: {src.size}\n")
            np.savetxt(fh, np.column_stack((src, dst)), fmt="%d", delimiter="\t")


def read_adjacency_graph(path: PathLike, symmetric: bool = True) -> CSRGraph:
    """Read PBBS's ``AdjacencyGraph`` text format.

    The format the paper's own benchmark suite uses::

        AdjacencyGraph
        <n>
        <m>
        <n vertex offsets>
        <m edge targets>

    one token per line (whitespace-separated tokens are also accepted).
    ``symmetric`` declares whether the stored edges are already
    mirrored (PBBS stores symmetric graphs that way, as does this
    package's writer).
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "AdjacencyGraph":
            raise GraphFormatError(
                f"{path}: expected 'AdjacencyGraph' header, got {header!r}"
            )
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise GraphFormatError(f"{path}: missing n/m counts")
    try:
        n, m = int(tokens[0]), int(tokens[1])
        values = np.array(tokens[2:], dtype=np.int64)
    except ValueError as exc:
        raise GraphFormatError(f"{path}: non-integer token: {exc}") from exc
    if values.size != n + m:
        raise GraphFormatError(
            f"{path}: expected {n} offsets + {m} targets, got {values.size} values"
        )
    offsets = np.concatenate((values[:n], [m]))
    return CSRGraph(offsets=offsets, targets=values[n:], symmetric=symmetric)


def write_adjacency_graph(graph: CSRGraph, path: PathLike) -> None:
    """Atomically write PBBS's ``AdjacencyGraph`` text format (see the reader)."""
    with atomic_write_path(Path(path)) as tmp:
        with tmp.open("w", encoding="utf-8") as fh:
            fh.write("AdjacencyGraph\n")
            fh.write(f"{graph.num_vertices}\n{graph.num_directed}\n")
            np.savetxt(fh, graph.offsets[:-1], fmt="%d")
            np.savetxt(fh, graph.targets, fmt="%d")


def save_npz(graph: CSRGraph, path: PathLike) -> None:
    """Persist a CSR graph losslessly (offsets + targets + flags).

    Atomic like :func:`write_edge_list`; keeps ``np.savez``'s behavior
    of appending ``.npz`` when the name lacks it (the temp file carries
    the suffix so numpy does not rename it mid-flight).
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    with atomic_write_path(path, suffix=".npz") as tmp:
        np.savez_compressed(
            tmp,
            offsets=graph.offsets,
            targets=graph.targets,
            symmetric=np.array([graph.symmetric]),
        )


def load_npz(path: PathLike) -> CSRGraph:
    """Load a graph written by :func:`save_npz`."""
    with np.load(Path(path)) as data:
        try:
            return CSRGraph(
                offsets=data["offsets"],
                targets=data["targets"],
                symmetric=bool(data["symmetric"][0]),
            )
        except KeyError as exc:
            raise GraphFormatError(f"{path} is not a repro graph file") from exc
