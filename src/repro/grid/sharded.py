"""Out-of-core cube counting: mmapped mask shards + resumable merging.

The sparsity coefficient (Eq. 1) consumes only cube *counts*, and a
cube count is a popcount of AND-ed membership masks — a quantity that
is **additive across row shards** of the dataset.  That one algebraic
fact is the whole scaling story: split the N points into row shards,
bit-pack each shard's per-(dimension, range) membership masks once,
persist them to disk, and count any batch of cubes by streaming one
shard at a time through the exact same batch kernels the in-memory
counters run.  Nothing in the search layer changes; peak memory is one
shard's stack plus the batch accumulator, independent of N.

Three pieces implement this:

:class:`ShardedMaskStore`
    Writes the uint64-padded packed mask stacks
    (:func:`~repro.grid.backends.pack_codes`: in C on the counters'
    tier, byte-identical to :func:`~repro.grid.kernels.pack_codes_block`)
    to one binary file per row shard — each landed atomically, with a JSON manifest
    installed last so a killed build never leaves a readable-but-wrong
    store — and maps them back as read-only ``numpy.memmap`` views.
    Views are opened lazily, one shard at a time, so counting touches a
    bounded window of address space no matter how many shards exist.

:class:`ShardedCounter`
    A drop-in :class:`~repro.grid.counter.CubeCounter` whose masks live
    in the store instead of RAM.  Batches run per shard through the
    kernel the in-memory counter would choose (the compiled C kernel
    when it builds, else the numpy reference); under the ``process``
    placement the shards fan out across
    :class:`~repro.grid.parallel.ShardedCountingPool` workers, each of
    which opens its *own* mmap view — no shared-memory copy of the
    stack exists anywhere.  Per-shard merged counts are bit-identical
    to the in-memory counter (differentially tested).

:class:`ShardCheckpointer`
    Records per-shard completion of the in-flight batch through a
    :class:`~repro.run.checkpoint.CheckpointStore` stream.  A run
    killed mid-dataset resumes by replaying the recorded shard counts
    and counting only the remainder — bit-identical, because shard
    counts are pure functions of (store, cube batch).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from pathlib import Path
from collections.abc import Iterable, Mapping

import numpy as np

from .._atomic import atomic_write_bytes, atomic_write_json
from .._validation import check_positive_int
from ..core.params import CountingBackend
from ..core.subspace import Subspace
from ..engine.events import emit_event
from ..exceptions import CheckpointError, ResourceError, ValidationError
from ..resilience.faults import maybe_inject
from ..resilience.retry import RetryPolicy
from ..run.checkpoint import CheckpointStore
from .backends import pack_codes
from .cells import CellAssignment, check_code_block
from .counter import CubeCounter, _packed_cube

__all__ = [
    "DEFAULT_SHARD_ROWS",
    "STORE_FORMAT_VERSION",
    "ShardCheckpointer",
    "ShardedCounter",
    "ShardedMaskStore",
    "group_digest",
]

logger = logging.getLogger(__name__)

# Version 2 added a per-shard sha256 to each manifest entry, enabling
# corruption detection (verify_shard) and targeted quarantine-rebuild.
# A v1 store fails open() validation, which the build() reuse path
# treats as "rebuild from codes" — migration is automatic.
STORE_FORMAT_VERSION = 2
MANIFEST_NAME = "manifest.json"

#: Retry policy for shard reads: transient I/O errors get two quick
#: retries before the quarantine-rebuild path takes over.
_SHARD_READ_RETRY = RetryPolicy(max_attempts=3, backoff=0.02, backoff_cap=0.25)

#: Default rows per shard: 2^20 points keep one shard's packed stack at
#: ``d·φ·128 KiB`` (e.g. 40 MB at d=32, φ=10) — big enough that the
#: kernel dominates per-shard overhead, small enough that dozens of
#: shards fit any memory budget one at a time.
DEFAULT_SHARD_ROWS = 1 << 20


def _codes_digest(*blocks: np.ndarray, digest=None):
    """The store's codes fingerprint (``codes_sha256``), fed *blocks*.

    sha256 over ``b"int16"`` and then each block's C-order ``int16``
    bytes.  A byte stream, so any row blocking of the same codes gives
    the same digest; pass *digest* to continue one already seeded.
    """
    if digest is None:
        digest = hashlib.sha256(b"int16")
    for block in blocks:
        digest.update(np.ascontiguousarray(block, dtype=np.int16).tobytes())
    return digest


def _write_shard(
    path: Path, block: np.ndarray, n_ranges: int, *, expect_sha256: str | None = None
) -> dict:
    """Pack one shard's code rows, hash the bytes and land the file.

    Returns the shard's ``row_bytes`` and ``sha256`` manifest fields.
    With *expect_sha256* (a rebuild), bytes that do not hash to it are
    refused before anything is written.
    """
    stack8 = pack_codes(np.ascontiguousarray(block, dtype=np.int16), n_ranges)
    data = stack8.tobytes()
    sha256 = hashlib.sha256(data).hexdigest()
    if expect_sha256 is not None and sha256 != expect_sha256:
        raise ValidationError(
            f"rebuilt shard {path.name} of {path.parent} does not reproduce "
            "the manifest checksum; the supplied codes differ from the data "
            "the store was built from"
        )
    atomic_write_bytes(path, data)
    return {"row_bytes": int(stack8.shape[2]), "sha256": sha256}


def _shard_blocks(blocks: Iterable[np.ndarray], shard_rows: int):
    """Re-block a stream of code blocks into exact *shard_rows* pieces.

    The last piece is ragged; the stream is consumed lazily, so at most
    one shard's worth of rows is buffered.
    """
    buffered: list[np.ndarray] = []
    n_buffered = 0
    for block in blocks:
        buffered.append(block)
        n_buffered += block.shape[0]
        while n_buffered >= shard_rows:
            merged = buffered[0] if len(buffered) == 1 else np.concatenate(buffered)
            yield merged[:shard_rows]
            rest = merged[shard_rows:]
            buffered = [rest] if rest.shape[0] else []
            n_buffered = rest.shape[0]
    if n_buffered:
        yield buffered[0] if len(buffered) == 1 else np.concatenate(buffered)


def _write_store(
    directory: Path,
    kept: list[dict],
    digest,
    blocks: Iterable[np.ndarray],
    *,
    n_ranges: int,
    shard_rows: int,
) -> dict:
    """The one writer of the store format: shards first, manifest last.

    *kept* are the manifest entries of shards that stay as they are,
    *digest* the codes fingerprint already fed their rows, and *blocks*
    streams the ``int16`` code rows that follow, re-blocked into exact
    *shard_rows* shards.  The stale manifest is dropped before the
    first shard write and the new one installed last, atomically, so a
    killed write never leaves an old manifest over a half-rewritten
    shard set, nor a manifest over a missing shard.  Returns the
    installed manifest.
    """
    manifest_path = directory / MANIFEST_NAME
    shards = [dict(entry) for entry in kept]
    n_points = shards[-1]["stop"] if shards else 0
    n_dims = None
    for block in _shard_blocks(blocks, shard_rows):
        if len(shards) == len(kept):
            manifest_path.unlink(missing_ok=True)
        _codes_digest(block, digest=digest)
        name = f"shard_{len(shards):05d}.bin"
        stop = n_points + block.shape[0]
        shards.append(
            {"file": name, "start": n_points, "stop": stop,
             **_write_shard(directory / name, block, n_ranges)}
        )
        n_points, n_dims = stop, block.shape[1]
    if n_dims is None:
        raise ValidationError("cannot build a sharded mask store from zero rows")
    manifest = {
        "format_version": STORE_FORMAT_VERSION,
        "n_points": n_points,
        "n_dims": n_dims,
        "n_ranges": n_ranges,
        "shard_rows": shard_rows,
        "codes_sha256": digest.hexdigest(),
        "shards": shards,
    }
    atomic_write_json(manifest_path, manifest)
    return manifest


def group_digest(
    fingerprint: str, dims_arr: np.ndarray, rng_arr: np.ndarray
) -> str:
    """Identity of one (store, cube batch) counting job.

    Shard counts recorded under this digest may be replayed on resume
    *only* for the identical store and the identical batch — any change
    to the data, the cubes, or their order produces a different digest
    and the recorded counts are ignored.
    """
    digest = hashlib.sha256()
    digest.update(fingerprint.encode())
    digest.update(str(dims_arr.shape).encode())
    digest.update(np.ascontiguousarray(dims_arr, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(rng_arr, dtype=np.int64).tobytes())
    return digest.hexdigest()


class ShardedMaskStore:
    """Packed membership masks for one dataset, sharded by rows on disk.

    Instances are returned by :meth:`build` / :meth:`build_from_chunks`
    (which write the shards) or :meth:`open` (which validates an
    existing directory).  All views are read-only; a store is immutable
    once its manifest is installed.
    """

    def __init__(self, directory: str | os.PathLike[str], manifest: Mapping):
        self.directory = Path(directory)
        self._manifest = dict(manifest)
        self._validate()

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        manifest = self._manifest
        version = manifest.get("format_version")
        if version != STORE_FORMAT_VERSION:
            raise ValidationError(
                f"sharded mask store {self.directory} has format version "
                f"{version!r}; this library reads {STORE_FORMAT_VERSION}"
            )
        for key in ("n_points", "n_dims", "n_ranges", "shard_rows",
                    "codes_sha256", "shards"):
            if key not in manifest:
                raise ValidationError(
                    f"sharded mask store manifest {self.directory} is "
                    f"missing {key!r}"
                )
        expected_stop = 0
        for entry in manifest["shards"]:
            path = self.directory / entry["file"]
            if entry["start"] != expected_stop:
                raise ValidationError(
                    f"sharded mask store {self.directory}: shard "
                    f"{entry['file']} starts at row {entry['start']}, "
                    f"expected {expected_stop}"
                )
            expected_stop = entry["stop"]
            if "sha256" not in entry:
                raise ValidationError(
                    f"sharded mask store {self.directory}: shard "
                    f"{entry['file']} has no checksum in the manifest"
                )
            size = (
                manifest["n_dims"] * manifest["n_ranges"] * entry["row_bytes"]
            )
            if not path.exists() or path.stat().st_size != size:
                raise ValidationError(
                    f"sharded mask store {self.directory}: shard file "
                    f"{entry['file']} is missing or has the wrong size "
                    f"(expected {size} bytes)"
                )
        if expected_stop != manifest["n_points"]:
            raise ValidationError(
                f"sharded mask store {self.directory}: shards cover "
                f"{expected_stop} rows but the manifest declares "
                f"{manifest['n_points']} points"
            )

    # ------------------------------------------------------------------
    @property
    def n_points(self) -> int:
        return int(self._manifest["n_points"])

    @property
    def n_dims(self) -> int:
        return int(self._manifest["n_dims"])

    @property
    def n_ranges(self) -> int:
        return int(self._manifest["n_ranges"])

    @property
    def shard_rows(self) -> int:
        return int(self._manifest["shard_rows"])

    @property
    def n_shards(self) -> int:
        return len(self._manifest["shards"])

    @property
    def fingerprint(self) -> str:
        """Identity of the store: data bytes + grid shape, one hash."""
        digest = hashlib.sha256()
        digest.update(str(self._manifest["codes_sha256"]).encode())
        digest.update(
            f":{self.n_points}:{self.n_dims}:{self.n_ranges}".encode()
        )
        return digest.hexdigest()

    def nbytes_on_disk(self) -> int:
        """Total bytes of all packed shard files."""
        return sum(
            self.n_dims * self.n_ranges * entry["row_bytes"]
            for entry in self._manifest["shards"]
        )

    def shard_bounds(self, index: int) -> tuple[int, int]:
        """Half-open global row interval ``[start, stop)`` of one shard."""
        entry = self._manifest["shards"][index]
        return int(entry["start"]), int(entry["stop"])

    def shard_row_bytes(self, index: int) -> int:
        """Packed bytes per mask row in one shard (uint64-padded)."""
        return int(self._manifest["shards"][index]["row_bytes"])

    # ------------------------------------------------------------------
    def shard_stack8(self, index: int) -> np.ndarray:
        """Read-only mmapped ``(d, φ, row_bytes)`` uint8 stack of a shard.

        A fresh view per call, dropped when the caller releases it —
        the store never accumulates open mappings, which is what keeps
        counting inside a fixed address-space budget regardless of
        shard count.
        """
        entry = self._manifest["shards"][index]
        maybe_inject("shard_read", shard=index, file=entry["file"])
        return np.memmap(
            self.directory / entry["file"],
            dtype=np.uint8,
            mode="r",
            shape=(self.n_dims, self.n_ranges, int(entry["row_bytes"])),
        )

    def shard_words(self, index: int) -> np.ndarray:
        """The same shard stack viewed as uint64 words (batch-kernel form)."""
        return self.shard_stack8(index).view(np.uint64)

    def verify_shard(self, index: int) -> None:
        """Check one shard's bytes against its manifest checksum.

        Raises :class:`~repro.exceptions.ValidationError` on mismatch
        (bit rot, torn write outside our protocol, tampering) — the
        signal the counter's quarantine-rebuild path acts on.  Reads
        the whole shard once, so it is opt-in per read
        (``verify_reads=True`` on :class:`ShardedCounter`).
        """
        entry = self._manifest["shards"][index]
        path = self.directory / entry["file"]
        data = path.read_bytes()
        if hashlib.sha256(data).hexdigest() != entry["sha256"]:
            raise ValidationError(
                f"sharded mask store {self.directory}: shard file "
                f"{entry['file']} is corrupt (checksum mismatch)"
            )

    def rebuild_shard(self, index: int, codes: np.ndarray) -> None:
        """Re-pack and atomically rewrite one shard from grid codes.

        *codes* is the full ``(N, d)`` code matrix the store was built
        from; only this shard's row block is re-packed.  The rebuilt
        bytes must reproduce the manifest checksum — packing is
        deterministic, so a mismatch means *codes* differ from the
        build-time data and the rewrite is refused.
        """
        entry = self._manifest["shards"][index]
        _write_shard(
            self.directory / entry["file"],
            np.asarray(codes)[entry["start"] : entry["stop"]],
            self.n_ranges,
            expect_sha256=entry["sha256"],
        )
        logger.warning(
            "rebuilt corrupt shard %d of %s from in-memory codes",
            index, self.directory,
        )

    # ------------------------------------------------------------------
    @classmethod
    def open(cls, directory: str | os.PathLike[str]) -> ShardedMaskStore:
        """Validate and open an existing store directory."""
        path = Path(directory) / MANIFEST_NAME
        if not path.exists():
            raise ValidationError(
                f"no sharded mask store at {directory} (missing "
                f"{MANIFEST_NAME})"
            )
        try:
            maybe_inject("shard_open", directory=str(directory))
            manifest = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError) as exc:
            raise ValidationError(
                f"sharded mask store manifest {path} is unreadable: {exc}"
            ) from exc
        if not isinstance(manifest, dict):
            raise ValidationError(
                f"sharded mask store manifest {path} is malformed"
            )
        return cls(directory, manifest)

    @classmethod
    def build(
        cls,
        cells: CellAssignment,
        directory: str | os.PathLike[str],
        *,
        shard_rows: int = DEFAULT_SHARD_ROWS,
    ) -> ShardedMaskStore:
        """Build (or reuse) a store for an in-memory grid assignment.

        If *directory* already holds a store for byte-identical codes
        with the same *shard_rows*, it is reused as-is — this is what
        makes ``detect(..., resume=True)`` with ``--mmap-dir`` cheap:
        the resumed run re-opens the shards instead of re-packing them.
        """
        if not isinstance(cells, CellAssignment):
            raise ValidationError(
                f"cells must be a CellAssignment, got {type(cells).__name__}"
            )
        shard_rows = check_positive_int(shard_rows, "shard_rows")
        codes = cells.codes
        codes_sha = _codes_digest(codes).hexdigest()
        manifest_path = Path(directory) / MANIFEST_NAME
        if manifest_path.exists():
            try:
                # (.open is this class's read-only opener, not file I/O.)
                existing = cls.open(directory)  # repro-lint: disable=RPL003
            except ValidationError:
                existing = None
            if (
                existing is not None
                and existing._manifest["codes_sha256"] == codes_sha
                and existing.shard_rows == shard_rows
                and existing.n_ranges == cells.n_ranges
            ):
                logger.info(
                    "reusing sharded mask store at %s (%d shards)",
                    directory, existing.n_shards,
                )
                return existing
        chunks = (
            codes[lo : lo + shard_rows]
            for lo in range(0, cells.n_points, shard_rows)
        )
        return cls.build_from_chunks(
            chunks, directory, n_ranges=cells.n_ranges, shard_rows=shard_rows
        )

    @classmethod
    def build_from_chunks(
        cls,
        chunks: Iterable[np.ndarray],
        directory: str | os.PathLike[str],
        *,
        n_ranges: int,
        shard_rows: int = DEFAULT_SHARD_ROWS,
    ) -> ShardedMaskStore:
        """Build a store from streamed code chunks of arbitrary sizes.

        *chunks* yields ``(m_i, d)`` integer code blocks in
        ``[MISSING_CELL, φ)`` (as produced by
        ``discretizer.transform(chunk).codes``; anything else raises
        :class:`~repro.exceptions.ValidationError`); no stage materializes
        more than ``shard_rows`` rows of codes or one shard's packed
        stack.  Chunk boundaries do not affect the result — rows are
        re-blocked into exact ``shard_rows`` shards (the last one
        ragged), so the store is byte-identical to one built from the
        concatenated array.
        """
        n_ranges = check_positive_int(n_ranges, "n_ranges", minimum=2)
        shard_rows = check_positive_int(shard_rows, "shard_rows")
        out_dir = Path(directory)
        out_dir.mkdir(parents=True, exist_ok=True)

        def checked():
            n_dims = None
            for chunk in chunks:
                block = check_code_block(chunk, n_ranges, n_dims, what="code chunks")
                n_dims = block.shape[1]
                yield block

        store = cls(out_dir, _write_store(
            out_dir, [], _codes_digest(), checked(),
            n_ranges=n_ranges, shard_rows=shard_rows,
        ))
        logger.info(
            "built sharded mask store at %s: N=%d, d=%d, phi=%d, "
            "%d shards x %d rows (%.1f MB on disk)",
            out_dir, store.n_points, store.n_dims, n_ranges, store.n_shards,
            shard_rows, store.nbytes_on_disk() / 1e6,
        )
        return store

    def append_rows(
        self, block: np.ndarray, *, prior_codes: np.ndarray
    ) -> ShardedMaskStore:
        """Extend the store with new rows, re-packing only the tail.

        *block* holds the ``(m, d)`` new grid codes; *prior_codes* is
        the full code matrix the store was built from (refused — like
        :meth:`rebuild_shard` — if it does not reproduce the manifest's
        data fingerprint).  Complete ``shard_rows``-sized shards are
        kept byte-for-byte; only the ragged tail shard is re-packed
        from the old tail rows plus the new block, so the resulting
        store is byte-identical to one built from the concatenated
        codes while the work stays proportional to the appended rows.

        Returns the **new** store instance; like a build, the old
        manifest is dropped before the first shard write so a
        mid-append kill leaves a rebuildable directory, never a
        readable-but-wrong store.  A rejected *block* (see
        :func:`~repro.grid.cells.check_code_block`) or *prior_codes*
        leaves the store as it was.
        """
        block = check_code_block(
            block, self.n_ranges, self.n_dims, what="appended codes"
        )
        prior = np.ascontiguousarray(prior_codes, dtype=np.int16)
        if prior.shape != (self.n_points, self.n_dims):
            raise ValidationError(
                f"prior_codes must have shape ({self.n_points}, "
                f"{self.n_dims}), got {prior.shape}"
            )
        shard_rows = self.shard_rows
        n_complete = self.n_points // shard_rows
        kept_rows, tail = np.split(prior, [n_complete * shard_rows])
        # Hash the complete shards' rows once: the writer continues
        # this digest, and its copy checks the prior codes.
        digest = _codes_digest(kept_rows)
        if (
            _codes_digest(tail, digest=digest.copy()).hexdigest()
            != self._manifest["codes_sha256"]
        ):
            raise ValidationError(
                f"prior_codes do not reproduce the data fingerprint of "
                f"{self.directory}; refusing to append onto a store built "
                "from different data"
            )
        if block.shape[0] == 0:
            return self
        store = ShardedMaskStore(self.directory, _write_store(
            self.directory, self._manifest["shards"][:n_complete], digest,
            [tail, block], n_ranges=self.n_ranges, shard_rows=shard_rows,
        ))
        logger.info(
            "appended %d rows to sharded mask store at %s (%d shards, "
            "%d re-packed)",
            block.shape[0], self.directory, store.n_shards,
            store.n_shards - n_complete,
        )
        return store

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedMaskStore(N={self.n_points}, d={self.n_dims}, "
            f"phi={self.n_ranges}, shards={self.n_shards} at "
            f"{self.directory})"
        )


class _ShardGroupProgress:
    """Per-shard completion of one counting group within the stream.

    The stream payload holds *several* groups keyed by digest (a batch
    of mixed-k cubes counts one group per k, sequentially), so a kill
    landing in a later group never clobbers the earlier, already-merged
    ones — on resume those replay wholesale from their recorded counts.
    """

    def __init__(self, store: CheckpointStore, digest: str, n_shards: int):
        self._store = store
        self._digest = digest
        self._n_shards = n_shards
        self._payload: dict = {
            "format_version": ShardCheckpointer.FORMAT_VERSION,
            "groups": {},
        }
        self.completed: dict[int, np.ndarray] = {}
        if store.exists(ShardCheckpointer.name):
            try:
                payload = store.load(ShardCheckpointer.name)
            except CheckpointError:
                payload = None
            if (
                isinstance(payload, dict)
                and payload.get("format_version")
                == ShardCheckpointer.FORMAT_VERSION
                and isinstance(payload.get("groups"), dict)
            ):
                self._payload = payload
        entry = self._payload["groups"].get(digest)
        if entry is None or entry.get("n_shards") != n_shards:
            # A different batch (or an older format): the recorded
            # counts do not apply to this group.
            return
        for key, counts in entry.get("completed", {}).items():
            self.completed[int(key)] = np.asarray(counts, dtype=np.int64)

    def record(self, shard_id: int, counts: np.ndarray) -> None:
        """Persist one shard's counts (atomic, with rollback sibling).

        A full disk (:class:`~repro.exceptions.ResourceError`) only
        loses resume granularity — an interrupted run recounts this
        shard — so it degrades to a warning instead of killing the run.
        """
        self.completed[shard_id] = np.asarray(counts, dtype=np.int64)
        groups = self._payload["groups"]
        # Re-insert at the end: insertion order is recency, and the
        # oldest groups fall off once the retention cap is hit.
        groups.pop(self._digest, None)
        groups[self._digest] = {
            "n_shards": self._n_shards,
            "completed": {
                str(sid): arr.tolist()
                for sid, arr in sorted(self.completed.items())
            },
        }
        while len(groups) > ShardCheckpointer.MAX_GROUPS:
            groups.pop(next(iter(groups)))
        try:
            self._store.save(ShardCheckpointer.name, self._payload)
        except ResourceError as exc:
            logger.warning(
                "shard progress write for %r failed (%s); resume will "
                "recount shard %d", ShardCheckpointer.name, exc, shard_id,
            )
            if self._store.report is not None:
                self._store.report.record_recovery("atomic_write")


class ShardCheckpointer:
    """Shard-grained progress for out-of-core counting batches.

    One :class:`~repro.run.checkpoint.CheckpointStore` stream holds the
    in-flight batch's counting groups: per group, a digest of (store
    fingerprint, cube batch) plus the counts of every shard already
    merged.  A killed run that re-reaches the same groups — which
    deterministic engines do, since a group is a pure function of the
    search state — replays the recorded counts and continues with the
    first unfinished shard; a digest mismatch simply ignores the entry,
    so stale state can never corrupt counts.  The counter clears the
    stream once a whole batch completes (:meth:`clear`), and the
    retention cap bounds the stream even if batches change between
    kills.
    """

    FORMAT_VERSION = 2
    #: The checkpoint stream the progress lives in.
    name = "shard_counts"
    #: Most-recent counting groups retained in the stream.  A batch
    #: holds one group per distinct cube size k, so anything above the
    #: data dimensionality is effectively unlimited within a batch.
    MAX_GROUPS = 16

    def __init__(self, store: CheckpointStore):
        if not isinstance(store, CheckpointStore):
            raise ValidationError(
                f"store must be a CheckpointStore, got {type(store).__name__}"
            )
        self.store = store

    def group(self, digest: str, n_shards: int) -> _ShardGroupProgress:
        """Open (or resume) progress for the group identified by *digest*."""
        return _ShardGroupProgress(self.store, digest, n_shards)

    def clear(self) -> None:
        """Drop the stream (called once a whole batch has merged)."""
        self.store.delete(self.name)


class ShardedCounter(CubeCounter):
    """A :class:`~repro.grid.counter.CubeCounter` over an on-disk store.

    Drop-in for the in-memory counter: every public method behaves
    identically (bit-identical counts, differentially tested), but the
    membership masks live in a :class:`ShardedMaskStore` and batches
    stream one shard at a time — peak memory is one shard's stack plus
    the batch accumulator, independent of N.

    Parameters
    ----------
    store:
        The mask shards to count over.
    cells:
        Optional in-memory :class:`~repro.grid.cells.CellAssignment`
        matching the store.  When provided, a shard that fails its
        checksum is rebuilt from the codes and :meth:`append_rows`
        can grow the store; a pure out-of-core counter
        (``cells=None``) counts every cube all the same.
    backend:
        As on :class:`~repro.grid.counter.CubeCounter`.  Pool backends
        dispatch whole shards to
        :class:`~repro.grid.parallel.ShardedCountingPool` workers that
        open their own mmap views.
    checkpointer:
        Optional :class:`ShardCheckpointer`; when set, every counted
        shard of the in-flight batch's multi-cube groups is recorded so
        an interrupted run resumes mid-dataset instead of recounting
        finished shards.
    verify_reads:
        Check every shard against its manifest checksum before
        counting it.  A mismatch (bit rot, torn write outside the
        atomic protocol) triggers quarantine-plus-rebuild when *cells*
        is available — re-packing that one shard from the in-memory
        codes, bit-identical by construction — and a typed
        :class:`~repro.exceptions.ResourceError` otherwise.  Off by
        default: it re-reads each shard once per use.
    """

    def __init__(
        self,
        store: ShardedMaskStore,
        cells: CellAssignment | None = None,
        backend: CountingBackend | None = None,
        checkpointer: ShardCheckpointer | None = None,
        verify_reads: bool = False,
    ):
        if not isinstance(store, ShardedMaskStore):
            raise ValidationError(
                f"store must be a ShardedMaskStore, got {type(store).__name__}"
            )
        if cells is not None:
            if not isinstance(cells, CellAssignment):
                raise ValidationError(
                    f"cells must be a CellAssignment, got {type(cells).__name__}"
                )
            if (
                cells.n_points != store.n_points
                or cells.n_dims != store.n_dims
                or cells.n_ranges != store.n_ranges
            ):
                raise ValidationError(
                    f"cells (N={cells.n_points}, d={cells.n_dims}, "
                    f"phi={cells.n_ranges}) do not match the store "
                    f"(N={store.n_points}, d={store.n_dims}, "
                    f"phi={store.n_ranges})"
                )
        if checkpointer is not None and not isinstance(
            checkpointer, ShardCheckpointer
        ):
            raise ValidationError(
                f"checkpointer must be a ShardCheckpointer, got "
                f"{type(checkpointer).__name__}"
            )
        self.store = store
        self.cells = cells
        self.shard_checkpointer = checkpointer
        self.n_shards_counted = 0
        self.n_shards_resumed = 0
        self._verify_reads = bool(verify_reads)
        self._init_runtime(backend)

    # ------------------------------------------------------------------
    @property
    def n_points(self) -> int:
        return self.store.n_points

    @property
    def n_dims(self) -> int:
        return self.store.n_dims

    @property
    def n_ranges(self) -> int:
        return self.store.n_ranges

    # ------------------------------------------------------------------
    def _resilient_shard_stack8(self, shard_id: int) -> np.ndarray:
        """One shard's stack, surviving transient errors and corruption.

        Transient ``OSError``\\ s are retried under the shared policy;
        a persistent read failure or checksum mismatch quarantines the
        shard and rebuilds it from the in-memory codes (bit-identical
        by construction).  Without codes to rebuild from, the failure
        surfaces as a typed :class:`~repro.exceptions.ResourceError` —
        never a raw ``OSError``.
        """

        def read() -> np.ndarray:
            if self._verify_reads:
                self.store.verify_shard(shard_id)
            return self.store.shard_stack8(shard_id)

        def on_retry(attempt: int, exc: BaseException) -> None:
            self.resilience.record_retry("shard.read")

        def on_recover(retries: int) -> None:
            self._ladder.recovered("shard_read", shard=shard_id)

        try:
            return _SHARD_READ_RETRY.call(
                read,
                describe=f"shard {shard_id} read",
                on_retry=on_retry,
                on_recover=on_recover,
            )
        except (OSError, ValidationError) as exc:
            return self._quarantine_rebuild(shard_id, exc)

    def _resilient_shard_words(self, shard_id: int) -> np.ndarray:
        """The resilient shard stack viewed as uint64 kernel words."""
        return self._resilient_shard_stack8(shard_id).view(np.uint64)

    def _quarantine_rebuild(
        self, shard_id: int, exc: BaseException
    ) -> np.ndarray:
        """Rebuild one bad shard from codes, or fail with a typed error."""
        reason = f"{type(exc).__name__}: {exc}"
        if self.cells is None:
            raise ResourceError(
                f"shard {shard_id} of {self.store.directory} is unreadable "
                f"or corrupt ({reason}) and this counter holds no grid "
                "codes to rebuild it from; rebuild the store from the "
                "source data"
            ) from exc
        self._ladder.quarantine(shard_id, reason)
        self.store.rebuild_shard(shard_id, self.cells.codes)
        try:
            if self._verify_reads:
                self.store.verify_shard(shard_id)
            return self.store.shard_stack8(shard_id)
        except (OSError, ValidationError) as exc2:
            raise ResourceError(
                f"shard {shard_id} of {self.store.directory} is still "
                f"unreadable after a rebuild ({type(exc2).__name__}: "
                f"{exc2}); the storage volume is failing"
            ) from exc2

    def mask(self, subspace: Subspace) -> np.ndarray:
        """Boolean membership mask, reassembled shard by shard."""
        self._check_subspace(subspace)
        out = np.empty(self.n_points, dtype=bool)
        for index in range(self.store.n_shards):
            start, stop = self.store.shard_bounds(index)
            packed = _packed_cube(
                self._resilient_shard_stack8(index), subspace, stop - start
            )
            out[start:stop] = np.unpackbits(
                packed, count=stop - start
            ).view(bool)
        return out

    def mask_memory_bytes(self) -> int:
        """Resident mask bytes: 0 — the stacks live on disk.

        (:meth:`ShardedMaskStore.nbytes_on_disk` reports the on-disk
        footprint.)
        """
        return 0

    # ------------------------------------------------------------------
    def append_rows(self, codes) -> int:
        """Append rows by extending the on-disk store (tail re-pack only).

        Requires ``cells`` — the store refuses to extend without the
        prior codes proving it is appending onto the data it was built
        from.  Complete shards are untouched; the ragged tail shard is
        re-packed with the new rows and the manifest reinstalled, so
        the extended store is byte-identical to a from-scratch build of
        the concatenated codes.
        """
        if self.cells is None:
            raise ValidationError(
                "append_rows needs per-point grid codes, which a pure "
                "out-of-core ShardedCounter does not hold; construct it "
                "with cells=..."
            )
        return super().append_rows(codes)

    def _append_masks(self, block: np.ndarray) -> None:
        # self.cells still holds the pre-append codes here; the base
        # method swaps them after the masks are extended.
        self.store = self.store.append_rows(
            block, prior_codes=self.cells.codes
        )

    # ------------------------------------------------------------------
    def _resident_blocks(self) -> None:
        """None: the masks are counted shard by shard from disk, so the
        optimized crossover runs its per-stage path here."""
        return None

    def _count_group(self, dims_arr: np.ndarray, rng_arr: np.ndarray) -> np.ndarray:
        """Per-shard counts of one same-k group, merged by summation.

        Every shard's counts — replayed, pooled or serial (see
        :meth:`_shard_counts`) — are merged by one loop, which also
        keeps the shard tallies, emits ``shard_counted`` and records
        newly counted shards with the checkpointer.
        """
        n_cubes = len(dims_arr)
        total = np.zeros(n_cubes, dtype=np.int64)
        group = None
        # A lone cube (a count() call, or a one-cube stage) costs less
        # to recount on resume than its per-shard bookkeeping: it gets
        # no progress records and no shard_counted events.
        sink = self.event_sink if n_cubes > 1 else None
        if self.shard_checkpointer is not None and n_cubes > 1:
            digest = group_digest(self.store.fingerprint, dims_arr, rng_arr)
            group = self.shard_checkpointer.group(digest, self.store.n_shards)
        for shard_id, counts, action in self._shard_counts(group, dims_arr, rng_arr):
            total += counts
            if action == "resumed":
                self.n_shards_resumed += 1
            else:
                self.n_shards_counted += 1
                if group is not None:
                    group.record(shard_id, counts)
            emit_event(
                sink, "shard_counted", shard=shard_id, action=action, cubes=n_cubes
            )
        return total

    def _shard_counts(self, group, dims_arr: np.ndarray, rng_arr: np.ndarray):
        """``(shard, counts, action)`` for every shard of one group.

        Shards the checkpointer recorded (an interrupted earlier attempt
        at this same group) replay first as ``resumed``; the rest are
        ``counted`` — on the mmap worker pool under a pool backend, or
        serially and lazily, one cancellation check per shard, so each
        shard is merged and recorded before the next one is read.
        """
        n_cubes = len(dims_arr)
        pending: list[int] = []
        for shard_id in range(self.store.n_shards):
            recorded = group.completed.get(shard_id) if group is not None else None
            if recorded is not None and recorded.shape == (n_cubes,):
                yield shard_id, recorded, "resumed"
            else:
                pending.append(shard_id)
        pool = (
            self._ensure_pool()
            if self.backend.kind == "process" and pending else None
        )
        if pool is not None:
            chunks = [(shard_id, dims_arr, rng_arr) for shard_id in pending]
            for shard_id, counts in zip(
                pending, self._map_on_pool(pool, chunks), strict=True
            ):
                yield shard_id, counts, "counted"
            return
        for shard_id in pending:
            self._check_cancelled()
            counts = self._serial_group_counts(
                self._resilient_shard_words(shard_id), dims_arr, rng_arr
            )
            yield shard_id, counts, "counted"

    def _batch_merged(self) -> None:
        # Every group of the batch merged: the progress stream has
        # served its purpose.  (A kill before this point leaves it
        # behind for the resumed run to replay.)
        if self.shard_checkpointer is not None:
            self.shard_checkpointer.clear()

    # ------------------------------------------------------------------
    def _make_pool(self):
        """The mmap worker pool (no shm copy; see ShardedCountingPool)."""
        from .parallel import ShardedCountingPool

        return ShardedCountingPool(
            self.store,
            self.backend,
            self._ladder,
            kernel=self._kernel_choice(),
            shard_reader=self._resilient_shard_words,
        )

    # ------------------------------------------------------------------
    def cache_stats(self) -> dict:
        stats = super().cache_stats()
        stats["n_shards"] = self.store.n_shards
        stats["shard_rows"] = self.store.shard_rows
        stats["shards_counted"] = self.n_shards_counted
        stats["shards_resumed"] = self.n_shards_resumed
        stats["store_bytes"] = self.store.nbytes_on_disk()
        return stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedCounter(N={self.n_points}, d={self.n_dims}, "
            f"phi={self.n_ranges}, shards={self.store.n_shards})"
        )
