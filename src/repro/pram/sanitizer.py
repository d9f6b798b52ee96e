"""Runtime race sanitizer for the simulated CRCW PRAM.

The engine's correctness argument leans on three write disciplines that
nothing at runtime used to enforce:

1. every non-atomic write into shared per-vertex state lands on a set
   of indices some kernel explicitly *recorded* (claim-once scatters);
2. concurrent claims on one cell resolve only through the atomics
   (:func:`~repro.primitives.atomics.write_min` /
   :func:`~repro.primitives.atomics.first_winner`), and the CAS races
   resolve to the deterministic first-occurrence schedule the golden
   fixtures pin;
3. within one level-synchronous round, no cell receives two non-atomic
   writes, and no cell is hit by both an atomic and a non-atomic write.

:class:`PramSanitizer` checks all three while a run executes.  The
engine opens a *round window* around every level-synchronous round and
registers the state's shared arrays (``shared_arrays``); the atomics
report their access sets through the seams in
:mod:`repro.primitives.atomics`; the kernels' sanctioned scatters are
the winner sets :func:`~repro.primitives.atomics.first_winner` returns
(distinct by construction) plus the explicitly recorded seeding writes.
At the end of each round the sanitizer diffs a shadow snapshot of every
registered array against the recorded access sets: any mutation nobody
sanctioned is a race.

This is how an injected fault surfaces as a *detected* race instead of
a silently wrong labeling: ``label_corrupt`` mutates ``C`` outside any
recorded write set (shadow diff), ``cas_flip`` moves a CAS resolution
off the first-occurrence schedule (:meth:`PramSanitizer.check_cas`).
``drop_frontier`` / ``shift_perturb`` are *lost-update* faults, not
memory races, and are out of scope by design — the verifier, not the
sanitizer, owns those.

Activation mirrors the cost tracker and fault plan: the armed
sanitizer rides in the :class:`~repro.runtime.context.ExecutionContext`
(``current_context().sanitizer`` at the seams), and the
:func:`sanitizing` context manager activates a derived context (the
CLI's global ``--sanitize`` flag wraps every command in one).  When no
sanitizer is active every seam is a cheap ``None`` check.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.errors import SanitizerError

__all__ = [
    "RaceReport",
    "PramSanitizer",
    "sanitizing",
]

#: How many offending indices a report keeps (enough to debug, small
#: enough to print).
_REPORT_SAMPLE = 8


@dataclass
class RaceReport:
    """One detected violation of the simulated machine's write rules.

    Attributes
    ----------
    kind:
        ``"write-conflict"`` (two non-atomic writes to one cell in one
        round), ``"atomic-mix"`` (atomic and non-atomic writes to one
        cell in one round), ``"unsanctioned-write"`` (a registered
        shared array changed at indices no kernel recorded), or
        ``"cas-order"`` (a CAS race resolved off the deterministic
        first-occurrence schedule).
    array:
        Registered name of the array involved (``"<cas>"`` for
        schedule violations, which are not tied to a registered array).
    round_index:
        The engine round the violation happened in, or ``None`` when it
        was observed outside any round window.
    indices:
        A sample (at most 8) of the offending cell indices.
    detail:
        Human-readable elaboration.
    """

    kind: str
    array: str
    round_index: Optional[int]
    indices: List[int] = field(default_factory=list)
    detail: str = ""

    def __str__(self) -> str:
        where = (
            "outside rounds"
            if self.round_index is None
            else f"round {self.round_index}"
        )
        idx = ",".join(str(i) for i in self.indices)
        msg = f"{self.kind} on {self.array!r} ({where}) at indices [{idx}]"
        if self.detail:
            msg = f"{msg}: {self.detail}"
        return msg


class _RunFrame:
    """Per-engine-run sanitizer state (frames stack for nested runs)."""

    __slots__ = (
        "arrays",
        "round_index",
        "snapshots",
        "writes",
        "atomics",
        "sanctioned",
    )

    def __init__(self, arrays: Mapping[str, np.ndarray]) -> None:
        #: id(array) -> (name, array) for the registered shared arrays.
        self.arrays: Dict[int, Tuple[str, np.ndarray]] = {
            id(arr): (name, arr) for name, arr in arrays.items()
        }
        self.round_index: Optional[int] = None
        #: name -> pre-round copy of each registered array.
        self.snapshots: Dict[str, np.ndarray] = {}
        #: id(array) -> recorded non-atomic write index chunks this round.
        self.writes: Dict[int, List[np.ndarray]] = {}
        #: id(array) -> recorded atomic (writeMin) index chunks this round.
        self.atomics: Dict[int, List[np.ndarray]] = {}
        #: Winner sets sanctioned for this round (array-agnostic: a
        #: first_winner claim may legally fan out over several of the
        #: state's arrays — parents, distances, visited).
        self.sanctioned: List[np.ndarray] = []


class PramSanitizer:
    """Records per-round access sets and flags write-discipline races.

    Parameters
    ----------
    halt_on_race:
        Raise :class:`~repro.errors.SanitizerError` at the first race
        (the CLI's mode).  ``False`` accumulates into :attr:`races`
        instead — what the fault-matrix tests use to assert a specific
        injected fault was classified correctly.
    """

    def __init__(self, *, halt_on_race: bool = True) -> None:
        self.halt_on_race = halt_on_race
        self.races: List[RaceReport] = []
        self.runs_monitored = 0
        self.rounds_checked = 0
        self.cas_checked = 0
        self.writes_recorded = 0
        self.atomics_recorded = 0
        self.combines_recorded = 0
        self._frames: List[_RunFrame] = []

    # -- engine seam (TraversalEngine.run) ---------------------------------

    def open_run(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Begin monitoring one engine run over *arrays* (name -> array)."""
        self._frames.append(_RunFrame(arrays))
        self.runs_monitored += 1

    def close_run(self) -> None:
        """End the innermost run's monitoring."""
        if self._frames:
            self._frames.pop()

    def open_round(self, round_index: int) -> None:
        """Open a round window: snapshot every registered array.

        Must run *before* the state's ``begin_round`` so that seeding
        writes (and any fault injected at the round boundary) fall
        inside the window.
        """
        frame = self._current_frame()
        if frame is None:
            return
        frame.round_index = round_index
        frame.writes = {}
        frame.atomics = {}
        frame.sanctioned = []
        frame.snapshots = {
            name: arr.copy() for name, arr in frame.arrays.values()
        }

    def close_round(self) -> None:
        """Diff the round's snapshots against the recorded access sets."""
        frame = self._current_frame()
        if frame is None or frame.round_index is None:
            return
        self.rounds_checked += 1
        round_index = frame.round_index
        frame.round_index = None

        # Rule 3a: same-round duplicate non-atomic writes to one cell.
        for aid, chunks in frame.writes.items():
            written = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
            if written.size > 1:
                uniq, counts = np.unique(written, return_counts=True)
                dup = uniq[counts > 1]
                if dup.size:
                    self._report(
                        "write-conflict",
                        self._array_name(frame, aid),
                        round_index,
                        dup,
                        "two non-atomic writes hit the same cell in one round",
                    )

        # Rule 3b: one cell hit by both an atomic and a non-atomic write.
        for aid, chunks in frame.writes.items():
            atomic_chunks = frame.atomics.get(aid)
            if not atomic_chunks:
                continue
            written = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
            atomic = (
                np.concatenate(atomic_chunks)
                if len(atomic_chunks) > 1
                else atomic_chunks[0]
            )
            mixed = written[np.isin(written, atomic)]
            if mixed.size:
                self._report(
                    "atomic-mix",
                    self._array_name(frame, aid),
                    round_index,
                    mixed,
                    "cell received both an atomic and a non-atomic write",
                )

        # Rules 1-2: every observed mutation must be recorded/sanctioned.
        sanctioned_global = (
            np.concatenate(frame.sanctioned)
            if frame.sanctioned
            else np.zeros(0, dtype=np.int64)
        )
        for aid, (name, arr) in frame.arrays.items():
            snap = frame.snapshots.get(name)
            if snap is None or snap.shape != arr.shape:
                continue
            changed = np.flatnonzero(snap != arr)
            if changed.size == 0:
                continue
            allowed_chunks = [sanctioned_global]
            allowed_chunks.extend(frame.writes.get(aid, ()))
            allowed_chunks.extend(frame.atomics.get(aid, ()))
            allowed = np.concatenate(allowed_chunks)
            bad = changed[~np.isin(changed, allowed)]
            if bad.size:
                self._report(
                    "unsanctioned-write",
                    name,
                    round_index,
                    bad,
                    "shared array mutated outside every recorded write set",
                )
        frame.snapshots = {}

    # -- primitive seams (repro.primitives.atomics, kernels) ---------------

    def record_write(self, arr: np.ndarray, idx: np.ndarray) -> None:
        """A kernel declares a non-atomic scatter ``arr[idx] = ...``."""
        frame = self._current_frame()
        if frame is None or frame.round_index is None:
            return
        self.writes_recorded += 1
        frame.writes.setdefault(id(arr), []).append(
            np.asarray(idx, dtype=np.int64).ravel()
        )

    def record_atomic(self, arr: np.ndarray, idx: np.ndarray) -> None:
        """An atomic batch (writeMin) touched ``arr`` at ``idx``."""
        frame = self._current_frame()
        if frame is None or frame.round_index is None:
            return
        self.atomics_recorded += 1
        frame.atomics.setdefault(id(arr), []).append(
            np.asarray(idx, dtype=np.int64).ravel()
        )

    def record_combine(self, kind: str, shards: int) -> None:
        """A chunked kernel merged *shards* per-worker partials.

        The parallel backend's contract: worker threads never mutate a
        registered shared array — they fill private per-worker shards,
        and the *calling* thread merges them sequentially before the
        kernel returns.  The end-of-round snapshot diff
        (:meth:`close_round`) therefore always runs strictly after the
        combine barrier; this counter records that the barrier was
        crossed so a sanitized parallel run can assert its sharded
        merges were actually covered.
        """
        self.combines_recorded += 1

    def sanction(self, dests: np.ndarray) -> None:
        """A resolved CAS race entitles its winners to claim-once writes.

        ``first_winner`` returns distinct destinations, so sanctioned
        sets cannot self-conflict; they are array-agnostic because one
        claim legally writes several state arrays (parents, distances,
        visited) at the same winner indices.
        """
        self.cas_checked += 1
        frame = self._current_frame()
        if frame is None or frame.round_index is None:
            return
        frame.sanctioned.append(np.asarray(dests, dtype=np.int64).ravel())

    def check_cas(
        self,
        idx: np.ndarray,
        canonical_positions: np.ndarray,
        canonical_dests: np.ndarray,
        positions: np.ndarray,
        dests: np.ndarray,
    ) -> None:
        """Verify a CAS resolution against the canonical schedule.

        The simulated machine resolves every arbitrary-CRCW race to the
        deterministic first-occurrence-per-destination schedule (both
        backends, pinned element-for-element by the parity tests).  Any
        deviation — which is exactly what a ``cas_flip`` fault injects —
        is a nondeterministic write ordering, i.e. a race.  Unlike the
        round-window checks this fires wherever the atomics run, rounds
        or not (contraction's hash table races too).
        """
        frame = self._current_frame()
        round_index = frame.round_index if frame is not None else None
        if (
            positions.shape == canonical_positions.shape
            and dests.shape == canonical_dests.shape
            and np.array_equal(dests, canonical_dests)
            and np.array_equal(positions, canonical_positions)
        ):
            return
        if np.array_equal(dests, canonical_dests):
            moved = canonical_dests[positions != canonical_positions]
            detail = "CAS winners deviate from the first-occurrence schedule"
        else:
            moved = np.setdiff1d(dests, canonical_dests)
            if moved.size == 0:
                moved = np.setdiff1d(canonical_dests, dests)
            detail = "CAS destination set changed during resolution"
        self._report("cas-order", "<cas>", round_index, moved, detail)

    # -- summary -----------------------------------------------------------

    def summary(self) -> str:
        """One-line human summary (the CLI prints this after a run)."""
        msg = (
            f"sanitizer: {len(self.races)} race(s) in "
            f"{self.rounds_checked} round(s) across {self.runs_monitored} "
            f"run(s); {self.cas_checked} CAS batches checked"
        )
        if self.combines_recorded:
            msg += f", {self.combines_recorded} sharded combine(s)"
        return msg

    # -- internals ---------------------------------------------------------

    def _current_frame(self) -> Optional[_RunFrame]:
        return self._frames[-1] if self._frames else None

    @staticmethod
    def _array_name(frame: _RunFrame, aid: int) -> str:
        entry = frame.arrays.get(aid)
        return entry[0] if entry is not None else "<unregistered>"

    def _report(
        self,
        kind: str,
        array: str,
        round_index: Optional[int],
        indices: np.ndarray,
        detail: str,
    ) -> None:
        report = RaceReport(
            kind=kind,
            array=array,
            round_index=round_index,
            indices=[int(i) for i in np.asarray(indices).ravel()[:_REPORT_SAMPLE]],
            detail=detail,
        )
        self.races.append(report)
        if self.halt_on_race:
            raise SanitizerError(str(report), report=report)


@contextmanager
def sanitizing(*, halt_on_race: bool = True) -> Iterator[PramSanitizer]:
    """Activate a fresh :class:`PramSanitizer` for the enclosed block.

    Implemented as a derived execution-context activation, so the
    arming is exception-safe and scoped to the calling thread/task.
    """
    from repro.runtime.context import current_context

    sanitizer = PramSanitizer(halt_on_race=halt_on_race)
    with current_context().child(sanitizer=sanitizer).activate():
        yield sanitizer
