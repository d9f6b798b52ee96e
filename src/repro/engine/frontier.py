"""Frontier representation for the level-synchronous engine.

Ligra's central engineering idea (which the paper's hybrid variants
inherit) is that a frontier has two natural representations:

* **sparse** — an array of vertex ids, cheap when the frontier is small
  (work proportional to frontier edges);
* **dense** — a boolean bitmap over all vertices, cheap when the
  frontier is a large fraction of the graph (streaming reads, no
  atomics, early exit per unvisited vertex).

:class:`Frontier` holds either form, converts lazily (each conversion
charges its PRAM cost), and exposes the paper's switching rule: go
dense when the frontier holds more than ``dense_threshold`` (20 % in
the paper) of the *remaining unvisited* vertices — the condition §4
describes as "the fraction of vertices on the frontier is greater than
20%".  The engine's :mod:`~repro.engine.direction` policies build on
this shared threshold rule.

(Historically this lived in :mod:`repro.bfs.frontier`, which still
re-exports it; the engine owns the frontier lifecycle now.)
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.primitives.pack import pack_index
from repro.runtime.context import current_context

__all__ = ["Frontier", "DENSE_THRESHOLD"]

#: The paper's dense-switch fraction.
DENSE_THRESHOLD = 0.20


class Frontier:
    """A set of active vertices, in sparse (ids) or dense (bitmap) form.

    Parameters
    ----------
    num_vertices:
        Size of the vertex universe (bitmap length).
    vertices:
        Sparse form: int64 array of distinct vertex ids.
    bitmap:
        Dense form: bool array of length *num_vertices*.

    Exactly one of *vertices* / *bitmap* must be given.
    """

    def __init__(
        self,
        num_vertices: int,
        vertices: Optional[np.ndarray] = None,
        bitmap: Optional[np.ndarray] = None,
    ) -> None:
        if (vertices is None) == (bitmap is None):
            raise ValueError("provide exactly one of vertices / bitmap")
        self.num_vertices = num_vertices
        self._vertices = (
            np.asarray(vertices, dtype=np.int64) if vertices is not None else None
        )
        self._bitmap = np.asarray(bitmap, dtype=bool) if bitmap is not None else None
        if self._bitmap is not None and self._bitmap.shape != (num_vertices,):
            raise ValueError("bitmap length must equal num_vertices")
        self._size: Optional[int] = (
            int(self._vertices.size) if self._vertices is not None else None
        )

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_vertices(cls, num_vertices: int, vertices: np.ndarray) -> "Frontier":
        return cls(num_vertices, vertices=vertices)

    @classmethod
    def empty(cls, num_vertices: int) -> "Frontier":
        return cls(num_vertices, vertices=np.zeros(0, dtype=np.int64))

    # -- views -------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of active vertices."""
        if self._size is None:
            assert self._bitmap is not None
            current_context().tracker.add("scan", work=float(self.num_vertices), depth=1.0)
            self._size = int(np.count_nonzero(self._bitmap))
        return self._size

    def __len__(self) -> int:
        return self.size

    @property
    def is_empty(self) -> bool:
        return self.size == 0

    def as_vertices(self) -> np.ndarray:
        """Sparse form (converting from the bitmap costs a pack)."""
        if self._vertices is None:
            assert self._bitmap is not None
            self._vertices = pack_index(self._bitmap)
            self._size = int(self._vertices.size)
        return self._vertices

    def as_bitmap(self) -> np.ndarray:
        """Dense form (converting from ids costs a scatter)."""
        if self._bitmap is None:
            assert self._vertices is not None
            current_context().tracker.add(
                "scatter",
                work=float(self._vertices.size),
                depth=1.0,
            )
            bitmap = np.zeros(self.num_vertices, dtype=bool)
            bitmap[self._vertices] = True
            self._bitmap = bitmap
        return self._bitmap

    # -- the paper's switching rule -----------------------------------------

    def should_go_dense(
        self, remaining_vertices: int, threshold: float = DENSE_THRESHOLD
    ) -> bool:
        """True when the read-based (dense) sweep is predicted cheaper.

        *remaining_vertices* is the count of not-yet-visited vertices;
        the dense sweep's cost scales with it, so the ratio
        ``frontier_size / remaining`` is the comparison the switch makes.
        """
        if remaining_vertices <= 0:
            return False
        return self.size > threshold * remaining_vertices
