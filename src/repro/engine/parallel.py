"""Real shared-memory parallel execution: deterministic chunked kernels.

The ``parallel`` backend runs the ``fast`` backend's kernels across a
persistent :class:`~concurrent.futures.ThreadPoolExecutor`.  NumPy
releases the GIL inside its C loops, so chunked slice operations scale
across threads without pickling — the Ligra-style chunked-frontier
execution the paper's own C++ implementation uses, adapted to the
NumPy simulation.

Determinism is non-negotiable (the golden parity fixtures pin every
labeling byte-for-byte):

* **Data-parallel ops** (gathers, compares, the slot hash) partition
  the output range into fixed-size chunks (:data:`DEFAULT_CHUNK_SIZE`);
  each worker writes a disjoint output slice, so the result is
  identical to the serial pass by construction.
* **CRCW reductions** (the arb-CAS race, writeMin) split the write
  stream into at most ``workers`` contiguous spans.  Each worker
  resolves its span into a private per-worker shard (the sharded arena
  pool, keyed by worker id), and the calling thread merges the shards
  **sequentially** in a fixed order: lowest-stream-position wins for
  the CAS race (reverse-span overwrite), plain ``np.minimum`` for
  writeMin.  Both merges reproduce the serial schedule exactly, at any
  worker count.

Cost-model invisibility: like every workspace, nothing here charges
(work, depth) — the kernels charge from batch *sizes* before the
execution strategy runs, so ``parallel`` runs carry identical charges
to ``fast`` and ``reference`` runs (the parity contract of
:mod:`repro.engine.backend`).

Sanitizer interplay: worker threads only ever write per-worker shards
and disjoint slices of arena buffers — never the run's registered
shared arrays.  All shared-array mutation happens on the calling
thread during the sequential combine, *before* the kernel returns, so
the sanitizer's post-round snapshot diff
(:meth:`~repro.pram.sanitizer.PramSanitizer.close_round`) always runs
after the combine barrier.  Each combine is reported through
:meth:`~repro.pram.sanitizer.PramSanitizer.record_combine` so a
sanitized parallel run shows how many sharded merges it covered.

Machine-checked contracts (``repro lint``, docs/static_analysis.md):
this module is the primary scope of the interprocedural rule family.
RL006 proves no worker-count-derived value reaches an allocation
size, the chunk grid, or a reduction operand (the one sanctioned use,
``_worker_spans``'s span partitioning, carries a reasoned allowlist
entry); RL007 demands a disjointness proof for every write issued
from a parallel task (``[lo:hi]`` span slices, worker-keyed shards,
or task-local buffers only); RL009 confines shard combines to the two
sanctioned deterministic merge shapes below.  Editing this file into
a violation fails lint *and* the w=2/w=4 parity fixtures — the same
contract, checked statically and at runtime.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.backend import BACKENDS, ExecutionBackend
from repro.engine.workspace import Workspace, _grown
from repro.primitives.rand import splitmix64

if TYPE_CHECKING:
    from numpy.typing import DTypeLike

__all__ = [
    "PARALLEL",
    "ParallelWorkspace",
    "DEFAULT_CHUNK_SIZE",
    "get_pool",
    "shutdown_pools",
    "context_gather",
]

#: Fixed chunk length for the data-parallel ops.  Big enough that one
#: chunk's NumPy C loop dominates the ~50us submit/join overhead of a
#: pool task, small enough that medium-scale rounds split into several
#: chunks per worker.  Fixed (not derived from the worker count) so the
#: chunk grid never changes the computed values.
DEFAULT_CHUNK_SIZE = 1 << 15

#: workers -> persistent executor; pools survive across runs (the
#: tentpole's "persistent ThreadPoolExecutor sized from the context").
_POOLS: Dict[int, ThreadPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def get_pool(workers: int) -> ThreadPoolExecutor:
    """The process-wide persistent pool for *workers* threads.

    One executor per worker count, created on first use and reused by
    every subsequent run at that width — thread spawn cost is paid once
    per process, not once per round.
    """
    workers = max(1, int(workers))
    with _POOLS_LOCK:
        pool = _POOLS.get(workers)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix=f"repro-par{workers}"
            )
            _POOLS[workers] = pool
        return pool


def shutdown_pools() -> None:
    """Tear down every persistent pool (test/teardown hook)."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True)


class ParallelWorkspace(Workspace):
    """Chunked execution of the fast-backend workspace vocabulary.

    Inherits the arena (named reused buffers) from :class:`Workspace`
    and adds a *sharded* arena pool keyed by worker id for the CRCW
    reductions.  Every operation degrades to the inherited serial path
    when the batch is smaller than one chunk or ``workers == 1`` — the
    "frontier smaller than one chunk" edge case costs nothing.

    Parameters
    ----------
    num_vertices:
        Sizing hint, as for :class:`Workspace`.
    workers:
        Width of the persistent pool this workspace fans out to.
    """

    #: Class-level so tests can shrink it to force chunking on tiny
    #: inputs; instances read it at call time.
    chunk_size: int = DEFAULT_CHUNK_SIZE

    def __init__(self, num_vertices: int, workers: int = 1) -> None:
        super().__init__(num_vertices)
        self.workers = max(1, int(workers))
        #: (worker id, key) -> shard buffer; workers only ever touch
        #: their own shards, the combine loop reads them sequentially.
        self._shard_buffers: Dict[Tuple[int, str], np.ndarray] = {}

    # -- chunk plumbing ----------------------------------------------------

    def _chunks(self, total: int) -> Optional[List[Tuple[int, int]]]:
        """Fixed-size chunk spans over ``[0, total)``, or None = serial."""
        step = int(self.chunk_size)
        if self.workers <= 1 or total <= step:
            return None
        return [(a, min(a + step, total)) for a in range(0, total, step)]

    def _worker_spans(self, total: int) -> Optional[List[Tuple[int, int]]]:
        """At most ``workers`` contiguous spans on chunk boundaries.

        Used by the sharded reductions: each span feeds one worker's
        shard, so shard memory is O(workers), not O(chunks).  The
        *results* are span-partition independent (proven in each
        reduction's combine note), so worker count changes nothing.
        """
        chunks = self._chunks(total)
        if chunks is None:
            return None
        per = -(-len(chunks) // self.workers)
        return [
            (chunks[i][0], chunks[min(i + per, len(chunks)) - 1][1])
            for i in range(0, len(chunks), per)
        ]

    def _run(self, tasks: Sequence[Callable[[], None]]) -> None:
        """Execute *tasks* on the pool; returns after ALL complete.

        The join is the combine barrier: nothing downstream observes a
        partially executed batch.  A single task runs inline.
        """
        if len(tasks) == 1:
            tasks[0]()
            return
        from repro.runtime.context import current_context

        ctx = current_context()
        ctx.metrics.incr("parallel.batches")
        ctx.metrics.observe("parallel.batch.tasks", len(tasks))
        span = (
            ctx.tracer.span("chunk-batch", "parallel", tasks=len(tasks))
            if ctx.tracer.enabled
            else None
        )
        futures = [get_pool(self.workers).submit(t) for t in tasks]
        for future in futures:
            future.result()
        if span is not None:
            span.close()

    def _foreach_span(
        self,
        spans: List[Tuple[int, int]],
        body: Callable[[int, int], None],
    ) -> None:
        self._run(
            [(lambda lo=lo, hi=hi: body(lo, hi)) for lo, hi in spans]
        )

    # -- sharded arena pool ------------------------------------------------

    def _shard_buf(
        self, worker: int, key: str, size: int, dtype: "DTypeLike"
    ) -> np.ndarray:
        buf = self._shard_buffers.get((worker, key))
        if buf is None or buf.shape[0] < size:
            buf = np.empty(_grown(size), dtype=dtype)
            self._shard_buffers[(worker, key)] = buf
        return buf[:size]

    def _shard_zeroed_bool(self, worker: int, key: str, size: int) -> np.ndarray:
        # Invariant: all-False between uses (combine resets exactly the
        # touched entries), so growth is the only zeroing.
        buf = self._shard_buffers.get((worker, key))
        if buf is None or buf.shape[0] < size:
            buf = np.zeros(_grown(size), dtype=bool)
            self._shard_buffers[(worker, key)] = buf
        return buf[:size]

    def _shard_filled(
        self, worker: int, key: str, size: int, fill: object, dtype: "DTypeLike"
    ) -> np.ndarray:
        # Invariant: all-`fill` (the reduction identity) between uses.
        buf = self._shard_buffers.get((worker, key))
        if buf is None or buf.shape[0] < size:
            buf = np.full(_grown(size), fill, dtype=dtype)
            self._shard_buffers[(worker, key)] = buf
        return buf[:size]

    def _note_combine(self, kind: str, shards: int) -> None:
        """Report one sequential shard merge to sanitizer and metrics."""
        from repro.runtime.context import current_context

        ctx = current_context()
        if ctx.sanitizer is not None:
            ctx.sanitizer.record_combine(kind, shards)
        ctx.metrics.incr(f"parallel.combine.{kind}")
        ctx.metrics.observe("parallel.combine.shards", shards)

    # -- chunked data-parallel vocabulary ----------------------------------
    #
    # Each op writes disjoint slices of one output buffer; chunk i's
    # slice is a pure function of chunk i's inputs, so the result is
    # bit-identical to the inherited serial pass regardless of worker
    # count, scheduling, or chunk completion order.

    def take(self, arr: np.ndarray, idx: np.ndarray, key: str) -> np.ndarray:
        spans = self._chunks(idx.shape[0])
        if spans is None:
            return super().take(arr, idx, key)
        out = self._buf(key, idx.shape[0], arr.dtype)
        self._foreach_span(
            spans,
            lambda lo, hi: np.take(
                arr, idx[lo:hi], out=out[lo:hi], mode="clip"
            ),
        )
        return out

    def compress(self, mask: np.ndarray, arr: np.ndarray, key: str) -> np.ndarray:
        # The position scan stays serial (one fused C pass); the gather
        # that dominates is chunked.
        pos = np.flatnonzero(mask)
        spans = self._chunks(pos.shape[0])
        if spans is None:
            out = self._buf(key, pos.shape[0], arr.dtype)
            np.take(arr, pos, out=out, mode="clip")
            return out
        out = self._buf(key, pos.shape[0], arr.dtype)
        self._foreach_span(
            spans,
            lambda lo, hi: np.take(
                arr, pos[lo:hi], out=out[lo:hi], mode="clip"
            ),
        )
        return out

    def equal(self, a: np.ndarray, b: np.ndarray, key: str) -> np.ndarray:
        spans = self._chunks(a.shape[0])
        if spans is None:
            return super().equal(a, b, key)
        out = self._buf(key, a.shape[0], np.bool_)
        scalar = np.ndim(b) == 0
        self._foreach_span(
            spans,
            lambda lo, hi: np.equal(
                a[lo:hi], b if scalar else b[lo:hi], out=out[lo:hi]
            ),
        )
        return out

    def not_equal(self, a: np.ndarray, b: np.ndarray, key: str) -> np.ndarray:
        spans = self._chunks(a.shape[0])
        if spans is None:
            return super().not_equal(a, b, key)
        out = self._buf(key, a.shape[0], np.bool_)
        scalar = np.ndim(b) == 0
        self._foreach_span(
            spans,
            lambda lo, hi: np.not_equal(
                a[lo:hi], b if scalar else b[lo:hi], out=out[lo:hi]
            ),
        )
        return out

    def logical_not(self, a: np.ndarray, key: str) -> np.ndarray:
        spans = self._chunks(a.shape[0])
        if spans is None:
            return super().logical_not(a, key)
        out = self._buf(key, a.shape[0], np.bool_)
        self._foreach_span(
            spans,
            lambda lo, hi: np.logical_not(a[lo:hi], out=out[lo:hi]),
        )
        return out

    def bitand(self, a: np.ndarray, scalar: "DTypeLike", key: str) -> np.ndarray:
        spans = self._chunks(a.shape[0])
        if spans is None:
            return super().bitand(a, scalar, key)
        out = self._buf(key, a.shape[0], a.dtype)
        self._foreach_span(
            spans,
            lambda lo, hi: np.bitwise_and(a[lo:hi], scalar, out=out[lo:hi]),
        )
        return out

    def sub(self, a: np.ndarray, b: np.ndarray, key: str) -> np.ndarray:
        spans = self._chunks(a.shape[0])
        if spans is None:
            return super().sub(a, b, key)
        out = self._buf(key, a.shape[0], a.dtype)
        self._foreach_span(
            spans,
            lambda lo, hi: np.subtract(a[lo:hi], b[lo:hi], out=out[lo:hi]),
        )
        return out

    def as_float(self, a: np.ndarray, key: str) -> np.ndarray:
        spans = self._chunks(a.shape[0])
        if spans is None:
            return super().as_float(a, key)
        out = self._buf(key, a.shape[0], np.float64)

        def body(lo: int, hi: int) -> None:
            out[lo:hi] = a[lo:hi]

        self._foreach_span(spans, body)
        return out

    def hash_slots(
        self, keys: np.ndarray, seed: np.uint64, mask: np.uint64, key: str
    ) -> np.ndarray:
        spans = self._chunks(keys.shape[0])
        if spans is None:
            return super().hash_slots(keys, seed, mask, key)
        out = np.empty(keys.shape[0], dtype=np.int64)

        def body(lo: int, hi: int) -> None:
            h = splitmix64(keys[lo:hi].astype(np.uint64) ^ seed)
            np.bitwise_and(h, mask, out=h)
            out[lo:hi] = h.astype(np.int64)

        self._foreach_span(spans, body)
        return out

    # -- sharded CRCW reductions -------------------------------------------

    def winner_scatter(self, idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """First occurrence per distinct value of *idx*, sharded.

        Each worker runs the serial reversed last-write-wins scatter
        over its contiguous span (with *global* stream positions) into
        its own shard: shard ``w`` ends holding, per destination, the
        first position within span ``w``.  The sequential combine then
        overwrites in **reverse span order**, so each destination ends
        with the first position of the *earliest* span containing it —
        the global first occurrence, i.e. exactly the serial schedule.
        Independent of worker count and of chunk boundaries.
        """
        m = idx.shape[0]
        spans = self._worker_spans(m)
        if spans is None or len(spans) == 1:
            return super().winner_scatter(idx)
        bound = int(idx.max()) + 1
        slots = self._buf("winner#slots", bound, np.int64)
        mask = self._zeroed_bool("winner#mask", bound)
        iota = self._iota(m)
        touched: List[np.ndarray] = [np.zeros(0, dtype=np.int64)] * len(spans)

        def body(w: int, lo: int, hi: int) -> None:
            shard = self._shard_buf(w, "winner#slots", bound, np.int64)
            shard_mask = self._shard_zeroed_bool(w, "winner#mask", bound)
            chunk = idx[lo:hi]
            shard[chunk[::-1]] = iota[lo:hi][::-1]
            shard_mask[chunk] = True
            touched[w] = np.flatnonzero(shard_mask)

        self._run(
            [
                (lambda w=w, lo=lo, hi=hi: body(w, lo, hi))
                for w, (lo, hi) in enumerate(spans)
            ]
        )
        # Sequential deterministic combine (calling thread only): later
        # spans first, earlier spans overwrite -> lowest stream
        # position (= lowest edge index) wins every CAS race.
        for w in range(len(spans) - 1, -1, -1):
            hit = touched[w]
            shard = self._shard_buf(w, "winner#slots", bound, np.int64)
            shard_mask = self._shard_zeroed_bool(w, "winner#mask", bound)
            slots[hit] = shard[hit]
            mask[hit] = True
            shard_mask[hit] = False  # restore the all-False invariant
        dests = np.flatnonzero(mask)
        mask[dests] = False
        positions = slots[dests]
        self._note_combine("winner", len(spans))
        return positions, dests

    def minimum_scatter(
        self, dest: np.ndarray, idx: np.ndarray, values: np.ndarray
    ) -> None:
        """Sharded writeMin: per-worker minima, sequential ``np.minimum``.

        Each worker folds its span into a private shard held at the
        reduction identity (``iinfo.max``); the calling thread then
        merges ``dest[i] = min(dest[i], shard_w[i])`` per shard.  The
        minimum is commutative and associative over identical values,
        so the merge equals the serial ``np.minimum.at`` bit-for-bit in
        any span partition.
        """
        spans = self._worker_spans(idx.shape[0])
        if (
            spans is None
            or len(spans) == 1
            or not np.issubdtype(dest.dtype, np.integer)
        ):
            super().minimum_scatter(dest, idx, values)
            return
        bound = dest.shape[0]
        identity = np.iinfo(dest.dtype).max
        touched: List[np.ndarray] = [np.zeros(0, dtype=np.int64)] * len(spans)

        def body(w: int, lo: int, hi: int) -> None:
            shard = self._shard_filled(w, "min#vals", bound, identity, dest.dtype)
            shard_mask = self._shard_zeroed_bool(w, "min#mask", bound)
            chunk = idx[lo:hi]
            np.minimum.at(shard, chunk, values[lo:hi])
            shard_mask[chunk] = True
            touched[w] = np.flatnonzero(shard_mask)

        self._run(
            [
                (lambda w=w, lo=lo, hi=hi: body(w, lo, hi))
                for w, (lo, hi) in enumerate(spans)
            ]
        )
        for w in range(len(spans)):
            hit = touched[w]
            shard = self._shard_filled(w, "min#vals", bound, identity, dest.dtype)
            shard_mask = self._shard_zeroed_bool(w, "min#mask", bound)
            dest[hit] = np.minimum(dest[hit], shard[hit])
            shard[hit] = identity  # restore the all-identity invariant
            shard_mask[hit] = False
        self._note_combine("write-min", len(spans))


def context_gather(arr: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Fresh-output ``arr[idx]`` gather, chunked under a parallel context.

    The contraction relabel path: the big dense gathers
    (``component_of_center[labels]`` and the inter-edge endpoint
    relabelings) run between engine rounds, where no state workspace is
    in scope.  Under a chunked backend with ``workers > 1`` the gather
    fans out over the persistent pool into disjoint slices of one
    fresh output; otherwise it is exactly the historical expression.
    """
    from repro.runtime.context import current_context

    ctx = current_context()
    total = int(idx.shape[0])
    if (
        not ctx.backend.chunked
        or ctx.workers <= 1
        or total <= ParallelWorkspace.chunk_size
    ):
        return arr[idx]
    out = np.empty(total, dtype=arr.dtype)
    step = int(ParallelWorkspace.chunk_size)
    spans = [(a, min(a + step, total)) for a in range(0, total, step)]
    pool = get_pool(ctx.workers)
    futures = [
        pool.submit(
            lambda lo=lo, hi=hi: np.take(
                arr, idx[lo:hi], out=out[lo:hi], mode="clip"
            )
        )
        for lo, hi in spans
    ]
    for future in futures:
        future.result()
    return out


PARALLEL = ExecutionBackend(
    name="parallel",
    description="fast-backend kernels executed across a persistent thread "
    "pool: fixed-size chunks, per-worker shards, sequential deterministic "
    "combines — identical outputs and charges at any worker count "
    "(--workers N)",
    use_workspace=True,
    fused_sort=True,
    chunked=True,
)

BACKENDS[PARALLEL.name] = PARALLEL
