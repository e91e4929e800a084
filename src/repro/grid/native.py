"""Compiled counting kernel: AND + popcount at native speed.

The sparsity search spends essentially all of its time inside one loop
— AND k membership masks together and popcount the result.  The numpy
reference kernel (:func:`repro.grid.kernels.batch_counts`) pays several
full passes over a ``(B, W)`` accumulator plus per-op dispatch; a fused
native loop reads each word once, ANDs in registers and popcounts with
the hardware instruction.

This module is that loop: a tiny C kernel compiled on first use with
the system C compiler (``cc``/``gcc``/``clang``; override with
``$REPRO_CC``) into a content-addressed shared library (under
``$REPRO_NATIVE_CACHE``, default the system temp directory), loaded
through :mod:`ctypes`.  Word-wise ``__builtin_popcountll`` with
cache-blocked mask traversal.

The build runs once per process and its outcome — failure included —
is cached.  Without a working compiler :func:`native_batch_counts`
raises a :class:`~repro.exceptions.ResourceError` naming the compiler
and its output.  :func:`repro.grid.backends.select_kernel` proves the
kernel against the reference on a differential fixture before any
counter may use it; when the build or the proof fails, every counter
serves the bit-identical numpy reference and reports the reason in
its ``kernel_info()``.

The kernel operates on the uint8 byte view of the counter's bit-packed
uint64 mask stack (see :mod:`repro.grid.kernels`): every row is a whole
number of 8-byte words, and the padding bits past N are zero, hence
inert under AND and popcount.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from collections.abc import Callable

import numpy as np

from .._atomic import atomic_write_text
from ..exceptions import ResourceError, ValidationError
from .kernels import check_cube_arrays

__all__ = ["kernel_info", "native_batch_counts"]

#: Words per cache block: 512 uint64 = 4 KiB per mask row segment, so
#: one block of every mask in a k-chain stays resident in L1/L2 while
#: all cubes traverse it.
_BLOCK_WORDS = 512

#: The kernel consumes ``(flat, rows, counts)``: ``flat`` is the
#: ``(n_masks, row_bytes)`` uint8 byte view of the mask stack, ``rows``
#: the ``(B, k)`` int64 flat mask indices, ``counts`` the ``(B,)``
#: int64 output.
_KernelImpl = Callable[[np.ndarray, np.ndarray, np.ndarray], None]

_C_SOURCE = """\
#include <stdint.h>
#include <string.h>

/* AND k mask rows, popcount the result: counts[b] = |AND_l rows[b][l]|.
 *
 * stack:     n_masks rows of row_bytes bytes each (C-contiguous,
 *            row_bytes a multiple of 8: uint64-padded packed rows)
 * rows:      n_cubes * k flat row indices
 * block:     words per cache block (<=0 means unblocked)
 *
 * Words go through __builtin_popcountll via memcpy loads (safe for any
 * alignment).
 */
void repro_count_batch(const uint8_t *stack, int64_t row_bytes,
                       const int64_t *rows, int64_t n_cubes, int64_t k,
                       int64_t block, int64_t *counts)
{
    int64_t n_words = row_bytes / 8;
    if (block <= 0 || block > n_words) block = n_words;
    for (int64_t b = 0; b < n_cubes; b++) counts[b] = 0;
    for (int64_t lo = 0; lo < n_words; lo += block) {
        int64_t hi = lo + block < n_words ? lo + block : n_words;
        for (int64_t b = 0; b < n_cubes; b++) {
            const int64_t *r = rows + b * k;
            const uint8_t *m0 = stack + r[0] * row_bytes;
            int64_t acc = 0;
            if (k == 1) {
                for (int64_t w = lo; w < hi; w++) {
                    uint64_t v;
                    memcpy(&v, m0 + w * 8, 8);
                    acc += __builtin_popcountll(v);
                }
            } else if (k == 2) {
                const uint8_t *m1 = stack + r[1] * row_bytes;
                for (int64_t w = lo; w < hi; w++) {
                    uint64_t v, u;
                    memcpy(&v, m0 + w * 8, 8);
                    memcpy(&u, m1 + w * 8, 8);
                    acc += __builtin_popcountll(v & u);
                }
            } else if (k == 3) {
                const uint8_t *m1 = stack + r[1] * row_bytes;
                const uint8_t *m2 = stack + r[2] * row_bytes;
                for (int64_t w = lo; w < hi; w++) {
                    uint64_t v, u, t;
                    memcpy(&v, m0 + w * 8, 8);
                    memcpy(&u, m1 + w * 8, 8);
                    memcpy(&t, m2 + w * 8, 8);
                    acc += __builtin_popcountll(v & u & t);
                }
            } else if (k == 4) {
                const uint8_t *m1 = stack + r[1] * row_bytes;
                const uint8_t *m2 = stack + r[2] * row_bytes;
                const uint8_t *m3 = stack + r[3] * row_bytes;
                for (int64_t w = lo; w < hi; w++) {
                    uint64_t v, u, t, s;
                    memcpy(&v, m0 + w * 8, 8);
                    memcpy(&u, m1 + w * 8, 8);
                    memcpy(&t, m2 + w * 8, 8);
                    memcpy(&s, m3 + w * 8, 8);
                    acc += __builtin_popcountll(v & u & t & s);
                }
            } else {
                for (int64_t w = lo; w < hi; w++) {
                    uint64_t v;
                    memcpy(&v, m0 + w * 8, 8);
                    for (int64_t l = 1; l < k; l++) {
                        uint64_t m;
                        memcpy(&m, stack + r[l] * row_bytes + w * 8, 8);
                        v &= m;
                    }
                    acc += __builtin_popcountll(v);
                }
            }
            counts[b] += acc;
        }
    }
}
"""

#: The process-wide build outcome: ``None`` until first use, then the
#: loaded kernel or, after a failed build, the reason it failed.
_BUILD: _KernelImpl | str | None = None


def _find_compiler() -> str | None:
    """The system C compiler executable, or None."""
    override = os.environ.get("REPRO_CC")
    if override:
        return shutil.which(override) or override
    for candidate in ("cc", "gcc", "clang"):
        found = shutil.which(candidate)
        if found:
            return found
    return None


def _compile_c_library(compiler: str) -> str:
    """Compile the C kernel into a content-addressed cached .so.

    The cache key digests the source, the compiler and the flag set, so
    a source or toolchain change recompiles instead of loading a stale
    library.  Concurrent builders (e.g. pool workers racing on a cold
    cache) are safe: each compiles to a private temp name and installs
    with an atomic :func:`os.replace`.
    """
    flags = ["-O3", "-shared", "-fPIC", "-funroll-loops"]
    digest = hashlib.sha256(
        "\x00".join([_C_SOURCE, compiler, *flags]).encode()
    ).hexdigest()[:16]
    cache_dir = os.environ.get("REPRO_NATIVE_CACHE") or os.path.join(
        tempfile.gettempdir(), "repro-native"
    )
    os.makedirs(cache_dir, exist_ok=True)
    lib_path = os.path.join(cache_dir, f"kernel-{digest}.so")
    if os.path.exists(lib_path):
        return lib_path
    src_path = os.path.join(cache_dir, f"kernel-{digest}.c")
    atomic_write_text(src_path, _C_SOURCE)
    build_path = f"{lib_path}.{os.getpid()}.tmp"
    # -march=native unlocks the hardware popcount instruction; retry
    # portably if this toolchain rejects it.
    for extra in (["-march=native"], []):
        proc = subprocess.run(
            [compiler, *flags, *extra, "-o", build_path, src_path],
            capture_output=True,
            text=True,
            check=False,
        )
        if proc.returncode == 0:
            os.replace(build_path, lib_path)
            return lib_path
    raise ResourceError(
        f"C kernel compilation failed with {compiler} (exit status "
        f"{proc.returncode}): {proc.stderr.strip() or '<no output>'}"
    )


def _build_kernel() -> _KernelImpl:
    """Compile, load and self-probe the C kernel."""
    compiler = _find_compiler()
    if compiler is None:
        raise ResourceError(
            "no C compiler found (tried cc, gcc, clang; set $REPRO_CC)"
        )
    lib = ctypes.CDLL(_compile_c_library(compiler))
    fn = lib.repro_count_batch
    fn.argtypes = [
        ctypes.c_void_p,  # stack bytes
        ctypes.c_int64,  # row_bytes
        ctypes.c_void_p,  # rows
        ctypes.c_int64,  # n_cubes
        ctypes.c_int64,  # k
        ctypes.c_int64,  # block words
        ctypes.c_void_p,  # counts out
    ]
    fn.restype = None

    def _impl(flat: np.ndarray, rows: np.ndarray, counts: np.ndarray) -> None:
        fn(
            flat.ctypes.data,
            flat.shape[1],
            rows.ctypes.data,
            rows.shape[0],
            rows.shape[1],
            _BLOCK_WORDS,
            counts.ctypes.data,
        )

    # Self-probe: 2 all-ones byte rows ANDed must popcount to 64.
    probe_counts = np.zeros(1, dtype=np.int64)
    _impl(
        np.full((2, 8), 0xFF, dtype=np.uint8),
        np.array([[0, 1]], dtype=np.int64),
        probe_counts,
    )
    if int(probe_counts[0]) != 64:  # pragma: no cover - broken toolchain
        raise ResourceError(
            f"C kernel built with {compiler} failed its self-probe"
        )
    return _impl


def _load_kernel() -> _KernelImpl:
    """The compiled kernel, built on first use; re-raises a failed build.

    The outcome is cached for the process either way, so a machine
    without a compiler attempts the build at most once.
    """
    global _BUILD
    if _BUILD is None:
        try:
            _BUILD = _build_kernel()
        # A missing compiler, a failed compile, an unwritable cache
        # directory and an unloadable library all surface as OSError
        # (ResourceError is one).
        except OSError as exc:
            _BUILD = str(exc)
    if isinstance(_BUILD, str):
        raise ResourceError(f"native kernel unavailable: {_BUILD}")
    return _BUILD


def kernel_info() -> dict:
    """The process-wide build outcome; builds the kernel, never raises.

    ``{"tier": "c"}`` when the compiled kernel is loaded, else
    ``{"tier": "numpy", "reason": ...}``: counters then count on the
    numpy reference.
    """
    try:
        _load_kernel()
    except ResourceError as exc:
        return {"tier": "numpy", "reason": str(exc)}
    return {"tier": "c"}


def _check_indices(
    stack: np.ndarray, dims_arr, rng_arr
) -> tuple[np.ndarray, np.ndarray]:
    """Refuse inputs that would address memory outside *stack*."""
    if stack.dtype != np.uint64 or stack.ndim != 3:
        # The kernel reads whole 8-byte words only; rows of another
        # dtype could end in a ragged tail it would silently skip.
        raise ValidationError(
            "native kernel needs a (d, phi, words) uint64 packed mask "
            f"stack, got {stack.dtype} with shape {stack.shape}"
        )
    dims_arr, rng_arr = check_cube_arrays(
        dims_arr, rng_arr, stack.shape[0], stack.shape[1]
    )
    if dims_arr.shape[1] == 0:
        # The kernel reads each cube's first row unconditionally.
        raise ValidationError("native kernel needs cubes with k >= 1")
    return dims_arr, rng_arr


def native_batch_counts(
    stack: np.ndarray,
    dims_arr: np.ndarray,
    rng_arr: np.ndarray,
) -> tuple[np.ndarray, dict]:
    """Counts for a batch of same-k cubes via the compiled kernel.

    Drop-in for :func:`repro.grid.kernels.batch_counts`: same inputs,
    bit-identical ``counts`` (exact integer popcounts), same ``stats``
    keys.  The uint64 mask stack is consumed through its uint8 byte
    view.  Raises :class:`~repro.exceptions.ValidationError` for an
    index outside the stack and
    :class:`~repro.exceptions.ResourceError` when the kernel could not
    be built.
    """
    dims_arr, rng_arr = _check_indices(stack, dims_arr, rng_arr)
    impl = _load_kernel()
    n_masks = stack.shape[0] * stack.shape[1]
    flat = np.ascontiguousarray(stack).view(np.uint8).reshape(n_masks, -1)
    rows = dims_arr * stack.shape[1] + rng_arr
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    counts = np.empty(rows.shape[0], dtype=np.int64)
    impl(flat, rows, counts)
    n_cubes, k = rows.shape
    n_words = -(-flat.shape[1] // 8)
    stats = {
        "words_and": (k - 1) * n_cubes * n_words,
        "prefix_reuse": 0,
        "kernel_tier": "c",
    }
    return counts, stats
