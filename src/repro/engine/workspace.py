"""Per-run buffer arenas for the round kernels.

The round kernels are written once against a small workspace
vocabulary (``take``, ``compress``, ``equal``, ``repeat`` ...).  Two
implementations exist:

* :class:`NullWorkspace` — the ``reference`` execution: every request
  is a fresh NumPy allocation computed exactly as the historical
  kernels computed it.  A stateless singleton (:data:`NULL_WORKSPACE`).
* :class:`Workspace` — the ``fast`` execution.  It overrides only the
  ops that measure a win: the gathers and ragged-offset scans write
  into named, geometrically grown arena buffers (lower per-labeling
  peak memory, not time), and ``winner_scatter`` resolves the CAS race
  without sorting.  Every other op is the inherited fresh allocation.

A buffer view for a key is valid until the next request for the same
key, which is exactly one round in every kernel (each call site owns
its key).  Anything that outlives the round — next frontiers, kept
inter-edge chunks, winner arrays — is produced as a fresh array by the
kernels, never as an arena view.

Workspaces are *cost-model invisible*: no method charges any (work,
depth).  The simulated machine's allocations were always charged where
the algorithm conceptually allocates (``alloc`` kind at run setup);
reusing real memory across rounds changes how the NumPy execution
runs, not what the PRAM run costs — the parity contract of
:mod:`repro.engine.backend`.

Machine-checked contract (``repro lint`` RL006): arena buffer sizes
(``_buf``/``_zeroed_bool``/``_iota``/``_grown``) are pure functions of
batch sizes — the worker-count taint analysis proves no value derived
from ``workers``/``cpu_count`` ever reaches them, here or in the
chunked subclass.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple, Union

import numpy as np

from repro.primitives.rand import splitmix64

if TYPE_CHECKING:
    from numpy.typing import DTypeLike

    from repro.engine.backend import ExecutionBackend

__all__ = ["Workspace", "NullWorkspace", "NULL_WORKSPACE", "make_workspace"]

_MIN_CAPACITY = 16


def _grown(size: int) -> int:
    """Geometric capacity for a requested view length."""
    return max(_MIN_CAPACITY, 1 << int(max(size, 1) - 1).bit_length())


class NullWorkspace:
    """Reference execution: every operation is a fresh allocation.

    Each method reproduces the historical kernels' NumPy expression
    byte-for-byte, so running the kernels through a ``NullWorkspace``
    *is* running the pre-backend code.
    """

    #: ``first_winner`` resolves through the sort-based path.
    scatter_winner = False

    def take(self, arr: np.ndarray, idx: np.ndarray, key: str) -> np.ndarray:
        return arr[idx]

    def compress(self, mask: np.ndarray, arr: np.ndarray, key: str) -> np.ndarray:
        return arr[mask]

    def equal(self, a: np.ndarray, b: np.ndarray, key: str) -> np.ndarray:
        return a == b

    def not_equal(self, a: np.ndarray, b: np.ndarray, key: str) -> np.ndarray:
        return a != b

    def logical_not(self, a: np.ndarray, key: str) -> np.ndarray:
        return ~a

    def bitand(self, a: np.ndarray, scalar: "DTypeLike", key: str) -> np.ndarray:
        return a & scalar

    def sub(self, a: np.ndarray, b: np.ndarray, key: str) -> np.ndarray:
        return a - b

    def as_float(self, a: np.ndarray, key: str) -> np.ndarray:
        return a.astype(np.float64)

    def falses(self, key: str, size: int) -> np.ndarray:
        return np.zeros(size, dtype=bool)

    def exclusive_cumsum(self, a: np.ndarray, key: str) -> np.ndarray:
        return np.concatenate(([0], np.cumsum(a)[:-1]))

    def repeat(
        self, values: np.ndarray, counts: np.ndarray, total: int, key: str
    ) -> np.ndarray:
        return np.repeat(values, counts)

    def ragged_positions(
        self, starts: np.ndarray, counts: np.ndarray, total: int, key: str
    ) -> np.ndarray:
        pos = np.repeat(
            starts - np.concatenate(([0], np.cumsum(counts)[:-1])), counts
        )
        return pos + np.arange(total, dtype=np.int64)

    def hash_slots(
        self, keys: np.ndarray, seed: np.uint64, mask: np.uint64, key: str
    ) -> np.ndarray:
        """Initial probe slots: ``splitmix64(keys ^ seed) & mask``.

        The hash table's per-batch slot computation, exposed as a
        workspace op so the chunked backend can split it across
        workers.  Always a fresh array — the table mutates slots as the
        probe loop advances.
        """
        h = splitmix64(keys.astype(np.uint64) ^ seed)
        return (h & mask).astype(np.int64)

    def minimum_scatter(
        self, dest: np.ndarray, idx: np.ndarray, values: np.ndarray
    ) -> None:
        """One batch of priority-CRCW writeMins: ``dest[idx] min= values``.

        The execution seam of :func:`repro.primitives.atomics.write_min`
        (which owns the charging and the sanitizer seam); the chunked
        backend overrides this with per-worker shard minima and a
        sequential combine.
        """
        np.minimum.at(dest, idx, values)


#: The shared stateless reference workspace.
NULL_WORKSPACE = NullWorkspace()


class Workspace(NullWorkspace):
    """Fast execution: named, reused, geometrically grown arena buffers.

    Parameters
    ----------
    num_vertices:
        The run's vertex universe — a sizing hint only; buffers are
        allocated lazily at the sizes the rounds actually need.
    """

    # Measured: sort-based resolution instead makes decomp-arb-CC on
    # rMat-small 1.36x slower (109 -> 148 ms) and decomp-min-CC 1.30x.
    scatter_winner = True

    def __init__(self, num_vertices: int) -> None:
        self.num_vertices = int(num_vertices)
        self._buffers: Dict[str, np.ndarray] = {}
        self._iota_buf = np.zeros(0, dtype=np.int64)

    # -- arena management --------------------------------------------------

    def _buf(self, key: str, size: int, dtype: "DTypeLike") -> np.ndarray:
        buf = self._buffers.get(key)
        if buf is None or buf.shape[0] < size:
            buf = np.empty(_grown(size), dtype=dtype)
            self._buffers[key] = buf
        return buf[:size]

    def _zeroed_bool(self, key: str, size: int) -> np.ndarray:
        # Invariant: this buffer is all-False between uses (users reset
        # exactly the entries they set), so growth is the only zeroing.
        buf = self._buffers.get(key)
        if buf is None or buf.shape[0] < size:
            buf = np.zeros(_grown(size), dtype=bool)
            self._buffers[key] = buf
        return buf[:size]

    def _iota(self, size: int) -> np.ndarray:
        if self._iota_buf.shape[0] < size:
            self._iota_buf = np.arange(_grown(size), dtype=np.int64)
        return self._iota_buf[:size]

    # -- the kernel vocabulary ---------------------------------------------
    # The four arena ops below are time-neutral end to end; they stay
    # because without the arena random-hybrid's peak memory per labeling
    # rises from 1.71x to 2.86x the graph's bytes.

    def take(self, arr: np.ndarray, idx: np.ndarray, key: str) -> np.ndarray:
        # mode="clip" selects NumPy's unchecked fast path (measurably
        # faster than both mode="raise" and fancy indexing).  Safe
        # because every index stream here is internally generated and
        # in range; the reference path keeps the bounds-checked gather.
        out = self._buf(key, idx.shape[0], arr.dtype)
        np.take(arr, idx, out=out, mode="clip")
        return out

    def compress(self, mask: np.ndarray, arr: np.ndarray, key: str) -> np.ndarray:
        # flatnonzero + unchecked take beats both boolean fancy
        # indexing and np.compress(out=) — the mask-walking loop inside
        # compress is slower than one fused position scan plus a gather.
        pos = np.flatnonzero(mask)
        out = self._buf(key, pos.shape[0], arr.dtype)
        np.take(arr, pos, out=out, mode="clip")
        return out

    def exclusive_cumsum(self, a: np.ndarray, key: str) -> np.ndarray:
        n = a.shape[0]
        out = self._buf(key, n, np.int64)
        if n:
            out[0] = 0
            np.cumsum(a[:-1], out=out[1:])
        return out

    # ``repeat`` is deliberately NOT overridden: ``np.repeat`` is one
    # fused C pass, and every arena reformulation (scatter boundary
    # deltas + in-place cumsum) costs three memory passes — measured
    # 2-3x slower at every scale.  The workspace optimizes where reuse
    # actually wins wall-clock, not allocation counts for their own sake.

    def ragged_positions(
        self, starts: np.ndarray, counts: np.ndarray, total: int, key: str
    ) -> np.ndarray:
        """Global gather positions of a ragged expansion.

        Same ``repeat(starts - excl_cumsum(counts), counts) +
        arange(total)`` computation as the reference, but the exclusive
        cumsum lands in an arena buffer, the iota comes from the cached
        ascending buffer instead of a per-round ``arange``, and the add
        runs in place over ``np.repeat``'s output — one temporary and
        two fewer passes per round.
        """
        if total == 0:
            return np.zeros(0, dtype=np.int64)
        base = self.exclusive_cumsum(counts, key + "#base")
        np.subtract(starts, base, out=base)
        pos = np.repeat(base, counts)
        np.add(pos, self._iota(total), out=pos)
        return pos

    # -- CAS-race resolution -----------------------------------------------

    def winner_scatter(self, idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """First occurrence per distinct value of *idx*, without sorting.

        A last-write-wins scatter of descending positions over the
        reversed stream leaves each destination holding its *first*
        position on the original stream — the same winner schedule
        ``np.unique(idx, return_index=True)`` produces, in O(n + max).
        Returns fresh ``(positions, dests)`` arrays (they outlive the
        round as the next frontier).
        """
        m = idx.shape[0]
        bound = int(idx.max()) + 1
        slots = self._buf("winner#slots", bound, np.int64)
        mask = self._zeroed_bool("winner#mask", bound)
        slots[idx[::-1]] = self._iota(m)[::-1]
        mask[idx] = True
        dests = np.flatnonzero(mask)
        mask[dests] = False
        positions = slots[dests]
        return positions, dests


def make_workspace(
    backend: "ExecutionBackend", num_vertices: int, workers: int = 1
) -> Union[Workspace, NullWorkspace]:
    """The workspace a run should thread through its kernels.

    *workers* sizes the chunked backend's shard pool (the execution
    context's worker count); the serial backends ignore it.
    """
    if backend.chunked:
        from repro.engine.parallel import ParallelWorkspace

        return ParallelWorkspace(num_vertices, workers=workers)
    if backend.use_workspace:
        return Workspace(num_vertices)
    return NULL_WORKSPACE
