"""The compiled C library: the grid build, request scoring and the
counting kernel.

Two stages dominate a detect outside the search loop, three inside it
and one on a live model, and each is a single pass at native speed here:

* **the grid build** — :func:`native_gather_columns` copies a group of
  columns of the row-major data into a reused buffer for the equi-depth
  cut fit, :func:`native_range_codes` maps every value to its range
  code ``#{cuts < v}``, and :func:`native_pack_codes` turns an ``(n,
  d)`` code block into the packed ``(d, φ, W8)`` membership stack,
  reading each code once and setting one bit
  (:func:`native_pack_codes_into` packs appended rows into a row
  block's stack the same way);
* **request scoring** — :func:`native_score_rows` codes each row of a
  request as :func:`native_range_codes` does and ANDs one bitset over
  the mined cubes per (dimension, code), so a row's covering cubes come
  out of d word-wide ANDs and no code block is built
  (:class:`NativeScorer` binds the grid and mined set once);
* **the counting kernel** — the sparsity search ANDs k membership masks
  together and popcounts the result.  The numpy reference kernel
  (:func:`repro.grid.kernels.batch_counts`) pays several full passes
  over a ``(B, W)`` accumulator plus per-op dispatch;
  :func:`native_batch_counts` reads each word once, ANDs in registers
  and popcounts with the hardware instruction;
* **the mutation** — :func:`native_mutate` runs Figure 6 over a GA
  generation's gene matrix in one call, drawing from the caller's
  :class:`numpy.random.Generator` through numpy's ``bitgen_t`` C
  interface the numbers the Python loop draws, in its order, so the
  genes and the generator's state afterwards are the loop's.  Its
  proof against that loop sits beside it
  (:func:`repro.search.evolutionary.mutation._prove_mutation`);
* **a GA generation** — :class:`NativeGeneration` runs Figure 3's loop
  body in one call over a counter's row blocks: the elites, Figure 4's
  rank roulette (or rows handed in), the pairing, Figure 5's optimized
  crossover (the 2^k' Type II enumeration and the greedy Type III
  steps, each candidate counted over the blocks and scored with
  Equation 1), the mutation above and the population's Equation 1
  scores, drawing from the caller's generator what the operators draw.
  Its proof against the operators sits beside them in the search layer
  (:func:`repro.search.evolutionary.generation._prove_generation`),
  which this layer does not import;
* **a brute-force level block** — :class:`NativeLevel` counts one
  streamed block of Figure 2's ``R_i ⊕ Q_1`` over a counter's row
  blocks: each parent's cells are ANDed once per row block and each
  child costs one AND and popcount, then Equation 1 and the best set's
  up-front filter run in C and only the survivors come back.  Its proof
  against the path it replaces sits in the search layer
  (:func:`repro.search.brute_force._prove_level`).

The routines are one small C source compiled on first use with the
system C compiler (``cc``/``gcc``/``clang``; override with
``$REPRO_CC``) into a content-addressed shared library (under
``$REPRO_NATIVE_CACHE``, default the system temp directory), loaded
through :mod:`ctypes`.

The build runs once per process and its outcome — failure included —
is cached.  Without a working compiler every routine raises a
:class:`~repro.exceptions.ResourceError` naming the compiler and its
output.  :func:`repro.grid.backends.select_kernel` proves the library
against the numpy references on a differential fixture before anything
may use it; when the build or the proof fails, every caller serves the
bit-identical numpy references and reports the reason in its
``kernel_info()``.  Each wrapper here refuses, before entering C, any
input that could make the C code read or write outside its arrays.

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
import numpy as np

from .._atomic import atomic_write_text
from ..exceptions import ResourceError, ValidationError
from ..resilience.faults import maybe_inject
from .cells import MISSING_CELL
from .kernels import (
    _MAX_COMPARE_CUTS,
    _MAX_RANGES,
    check_cube_arrays,
    packed_row_bytes,
)

__all__ = [
    "kernel_info",
    "native_batch_counts",
    "native_gather_columns",
    "native_mutate",
    "native_pack_codes",
    "native_pack_codes_into",
    "native_range_codes",
    "native_score_rows",
    "BlockTable",
    "NativeGeneration",
    "NativeLevel",
    "NativeScorer",
]

#: Words per cache block: 512 uint64 = 4 KiB per mask row segment, so
#: one block of every mask in a k-chain stays resident in L1/L2 while
#: all cubes traverse it.
_BLOCK_WORDS = 512

_C_SOURCE = """\
#include <stdint.h>
#include <string.h>

/* Copy columns first..first+g-1 of an (n, d) float64 matrix into the
 * C-contiguous (g, n) buffer out.  Strides are in elements, so a
 * Fortran-ordered or sliced matrix is read in place.  Rows go in blocks
 * so that each block's cache lines serve all g columns.
 */
void repro_gather_columns(const double *x, int64_t n, int64_t row_stride,
                          int64_t col_stride, int64_t first, int64_t g,
                          double *out)
{
    const int64_t block = 512;
    const double *base = x + first * col_stride;
    for (int64_t lo = 0; lo < n; lo += block) {
        int64_t hi = lo + block < n ? lo + block : n;
        for (int64_t c = 0; c < g; c++) {
            const double *col = base + c * col_stride;
            double *dst = out + c * n;
            for (int64_t i = lo; i < hi; i++) dst[i] = col[i * row_stride];
        }
    }
}

/* Values per block of one row that code_block codes at once. */
#define CODE_BLOCK 64

/* Range codes of the values in columns lo..lo+w-1 (w <= CODE_BLOCK) of
 * one row into code[0..w): code = #{cuts[j] < v}, which equals
 * searchsorted(side="left") over the sorted row cuts[j] of the (d,
 * n_cuts) cut matrix.  NaN maps to -1 (MISSING_CELL).  The values are
 * loaded into a buffer through col_stride first.  Up to max_compare
 * cuts the count is taken cut-outer, column-inner over cuts_t, the (n_cuts,
 * d) transpose of the cut matrix, so the inner loop runs over contiguous
 * memory and vectorises; above it by a lower-bound binary search over
 * cuts.  Each branch reads only its own matrix; the other may be NULL.
 */
static void code_block(const double *row, int64_t col_stride, int64_t lo,
                       int64_t w, int64_t d, const double *cuts,
                       const double *cuts_t, int64_t n_cuts,
                       int64_t max_compare, int64_t *code)
{
    double v[CODE_BLOCK];
    for (int64_t j = 0; j < w; j++) {
        v[j] = row[(lo + j) * col_stride];
        code[j] = 0;
    }
    if (n_cuts <= max_compare) {
        for (int64_t t = 0; t < n_cuts; t++) {
            const double *c = cuts_t + t * d + lo;
            for (int64_t j = 0; j < w; j++) code[j] += c[j] < v[j];
        }
    } else {
        for (int64_t j = 0; j < w; j++) {
            const double *c = cuts + (lo + j) * n_cuts;
            int64_t low = 0, hi = n_cuts;
            while (low < hi) {
                int64_t mid = low + (hi - low) / 2;
                if (c[mid] < v[j]) low = mid + 1; else hi = mid;
            }
            code[j] = low;
        }
    }
    for (int64_t j = 0; j < w; j++) {
        if (v[j] != v[j]) code[j] = -1;
    }
}

/* Range codes of an (n, d) float64 matrix into the C-contiguous (n, d)
 * int16 out, CODE_BLOCK values of a row at a time through code_block.
 */
void repro_codes(const double *x, int64_t n, int64_t d,
                 int64_t row_stride, int64_t col_stride,
                 const double *cuts, const double *cuts_t, int64_t n_cuts,
                 int64_t max_compare, int16_t *out)
{
    int64_t code[CODE_BLOCK];
    for (int64_t i = 0; i < n; i++) {
        const double *row = x + i * row_stride;
        int16_t *dst = out + i * d;
        for (int64_t lo = 0; lo < d; lo += CODE_BLOCK) {
            int64_t w = d - lo < CODE_BLOCK ? d - lo : CODE_BLOCK;
            code_block(row, col_stride, lo, w, d, cuts, cuts_t, n_cuts,
                       max_compare, code);
            for (int64_t j = 0; j < w; j++) dst[lo + j] = (int16_t)code[j];
        }
    }
}

/* Score each row of an (n, d) float64 request against m mined cubes:
 * scores[i] is the first non-NaN minimum coefficient, in table order,
 * among the cubes that cover row i, and NaN when none does.
 *
 * dims, ranges: (m, kmax) int64 fixed dimensions and 0-based ranges of
 *               each cube (a cube with fewer fixed dimensions repeats
 *               its last pair);
 * free:         (m,) nonzero for k = 0 cubes;
 * coef:         (m,) sparsity coefficients;
 * work:         scratch of (d * (n_cuts + 2) + 2) * words uint64, with
 *               words = ceil(m / 64).
 *
 * work starts with one bitset over the cubes per (dimension, code),
 * code -1 (missing) first: a cube's bit is set when that code satisfies
 * the cube on that dimension, so always when the cube does not fix the
 * dimension, and never for a missing code when it does.  A row is coded
 * as repro_codes codes it and its covering set is the AND of its d
 * bitsets.  A cube naming a dimension outside [0, d), a range outside
 * [0, n_cuts] or one dimension with two ranges covers no row.
 */
void repro_score_rows(const double *x, int64_t n, int64_t d,
                      int64_t row_stride, int64_t col_stride,
                      const double *cuts, const double *cuts_t,
                      int64_t n_cuts, int64_t max_compare,
                      const int64_t *dims, const int64_t *ranges,
                      const uint8_t *free, const double *coef, int64_t m,
                      int64_t kmax, uint64_t *work, double *scores)
{
    int64_t words = (m + 63) / 64, slots = n_cuts + 2;
    if (words == 0) {
        for (int64_t i = 0; i < n; i++) scores[i] = __builtin_nan("");
        return;
    }
    uint64_t *allow = work;
    uint64_t *live = work + d * slots * words;
    uint64_t *restrict acc = live + words;
    for (int64_t t = 0; t < words; t++) {
        int64_t rest = m - t * 64;
        live[t] = rest >= 64 ? ~(uint64_t)0 : ((uint64_t)1 << rest) - 1;
    }
    for (int64_t s = 0; s < d * slots; s++) {
        memcpy(allow + s * words, live, (size_t)words * 8);
    }
    for (int64_t b = 0; b < m; b++) {
        if (free[b]) continue;
        uint64_t bit = (uint64_t)1 << (b & 63);
        const int64_t *bd = dims + b * kmax, *br = ranges + b * kmax;
        for (int64_t l = 0; l < kmax; l++) {
            int64_t j = bd[l], r = br[l], clash = 0;
            for (int64_t e = 0; e < l; e++) clash |= bd[e] == j && br[e] != r;
            if (clash || j < 0 || j >= d || r < 0 || r > n_cuts) {
                live[b >> 6] &= ~bit;
                continue;
            }
            uint64_t *a = allow + j * slots * words + (b >> 6);
            for (int64_t s = 0; s < slots; s++) a[s * words] &= ~bit;
            a[(r + 1) * words] |= bit;
        }
    }
    int64_t code[CODE_BLOCK];
    for (int64_t i = 0; i < n; i++) {
        const double *row = x + i * row_stride;
        /* With one word (m <= 64) the covering set stays in a register. */
        uint64_t one = live[0];
        if (words > 1) memcpy(acc, live, (size_t)words * 8);
        for (int64_t lo = 0; lo < d; lo += CODE_BLOCK) {
            int64_t w = d - lo < CODE_BLOCK ? d - lo : CODE_BLOCK;
            code_block(row, col_stride, lo, w, d, cuts, cuts_t, n_cuts,
                       max_compare, code);
            /* The bitset of code 0 of column lo; missing is one slot down. */
            const uint64_t *a = allow + (lo * slots + 1) * words;
            if (words == 1) {
                for (int64_t j = 0; j < w; j++, a += slots) one &= a[code[j]];
                continue;
            }
            for (int64_t j = 0; j < w; j++, a += slots * words) {
                const uint64_t *set = a + code[j] * words;
                for (int64_t t = 0; t < words; t++) acc[t] &= set[t];
            }
        }
        if (words == 1) acc[0] = one;
        double best = __builtin_nan("");
        for (int64_t t = 0; t < words; t++) {
            for (uint64_t bits = acc[t]; bits; bits &= bits - 1) {
                double c = coef[t * 64 + __builtin_ctzll(bits)];
                if (c < best || (best != best && c == c)) best = c;
            }
        }
        scores[i] = best;
    }
}

/* Pack an (n, d) int16 code block into the (d, phi, row_bytes)
 * membership stack out as its rows first..first+n-1: code c of row i in
 * column j sets bit 7 - (r & 7) of byte r >> 3 of mask row (j, c), with
 * r = first + i, np.packbits' big-endian order.  Bits are ORed in, so
 * rows already packed below first stay and the bits of rows from first
 * on must be zero.  Negative codes (MISSING_CELL) set no bit.  Strides
 * are in elements.
 */
void repro_pack_codes(const int16_t *codes, int64_t n, int64_t d,
                      int64_t row_stride, int64_t col_stride, int64_t phi,
                      int64_t first, int64_t row_bytes, uint8_t *out)
{
    for (int64_t i = 0; i < n; i++) {
        const int16_t *row = codes + i * row_stride;
        int64_t r = first + i;
        uint8_t *byte = out + (r >> 3);
        uint8_t bit = (uint8_t)(0x80u >> (r & 7));
        for (int64_t j = 0; j < d; j++) {
            int16_t c = row[j * col_stride];
            if (c >= 0) byte[(j * phi + c) * row_bytes] |= bit;
        }
    }
}

/* AND k mask rows, popcount the result: counts[b] = |AND_l rows[b][l]|.
 *
 * stack:      n_masks rows of n_words uint64-padded packed words each,
 *             row r starting row_bytes * r bytes in (row_bytes >=
 *             8 * n_words: a row block with spare capacity is read in
 *             place, and nothing past its n_words words is read)
 * rows:       n_cubes * k flat row indices
 * block:      words per cache block (<=0 means unblocked)
 *
 * Words go through __builtin_popcountll via memcpy loads (safe for any
 * alignment).
 */
void repro_count_batch(const uint8_t *stack, int64_t row_bytes,
                       int64_t n_words, const int64_t *rows, int64_t n_cubes,
                       int64_t k, int64_t block, int64_t *counts)
{
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

/* The mask row of cell j * phi + v in a row block described by (address,
 * row stride, words): the block's d * phi mask rows lie one stride apart
 * in cell order. */
static const uint8_t *cell_row(const int64_t *blk, int64_t cell)
{
    return (const uint8_t *)(intptr_t)blk[0] + cell * blk[1];
}

/* Counts of nc candidates — one crossover stage, or a brute-force
 * parent's children — summed over the row blocks: counts[c] = |AND of
 * the n_base base cells and the n_var cells cand[c * n_var ..]|.  The
 * base cells are ANDed once per block.
 *
 * blocks:  n_blocks rows of (address, row stride, words) describing
 *          (d, phi, words) uint64 stacks whose words are contiguous;
 * partial: scratch of n_var times the largest block's words: level l
 *          holds the AND of the base cells (all ones when there are
 *          none) and a candidate's first l cells.  A candidate reuses
 *          the levels of the one before it up to their first differing
 *          cell, so the 2^nf Type II assignments, listed in
 *          itertools.product order, share their prefixes.
 */
static void count_stage(const int64_t *blocks, int64_t n_blocks,
                        const int64_t *base_cells, int64_t n_base,
                        const int64_t *cand, int64_t n_var, int64_t nc,
                        uint64_t *partial, int64_t *counts)
{
    for (int64_t c = 0; c < nc; c++) counts[c] = 0;
    for (int64_t i = 0; i < n_blocks; i++) {
        const int64_t *blk = blocks + 3 * i;
        int64_t n_words = blk[2];
        if (n_words == 0) continue;
        if (n_base == 0) {
            for (int64_t w = 0; w < n_words; w++) partial[w] = ~(uint64_t)0;
        } else {
            memcpy(partial, cell_row(blk, base_cells[0]), (size_t)n_words * 8);
            for (int64_t l = 1; l < n_base; l++) {
                const uint8_t *m = cell_row(blk, base_cells[l]);
                for (int64_t w = 0; w < n_words; w++) {
                    uint64_t v;
                    memcpy(&v, m + w * 8, 8);
                    partial[w] &= v;
                }
            }
        }
        int64_t c = 0;
        /* One cell per candidate: four candidates share each load of the
         * base AND, and the rest go one by one below. */
        for (; n_var == 1 && c + 4 <= nc; c += 4) {
            const uint8_t *m0 = cell_row(blk, cand[c]);
            const uint8_t *m1 = cell_row(blk, cand[c + 1]);
            const uint8_t *m2 = cell_row(blk, cand[c + 2]);
            const uint8_t *m3 = cell_row(blk, cand[c + 3]);
            int64_t a0 = 0, a1 = 0, a2 = 0, a3 = 0;
            for (int64_t w = 0; w < n_words; w++) {
                uint64_t p = partial[w], v0, v1, v2, v3;
                memcpy(&v0, m0 + w * 8, 8);
                memcpy(&v1, m1 + w * 8, 8);
                memcpy(&v2, m2 + w * 8, 8);
                memcpy(&v3, m3 + w * 8, 8);
                a0 += __builtin_popcountll(p & v0);
                a1 += __builtin_popcountll(p & v1);
                a2 += __builtin_popcountll(p & v2);
                a3 += __builtin_popcountll(p & v3);
            }
            counts[c] += a0;
            counts[c + 1] += a1;
            counts[c + 2] += a2;
            counts[c + 3] += a3;
        }
        for (; c < nc; c++) {
            const int64_t *cells = cand + c * n_var;
            int64_t l = 0;
            if (c > 0) {
                while (l < n_var - 1 && cells[l] == cells[l - n_var]) l++;
            }
            for (; l < n_var - 1; l++) {
                const uint64_t *src = partial + l * n_words;
                uint64_t *dst = partial + (l + 1) * n_words;
                const uint8_t *m = cell_row(blk, cells[l]);
                for (int64_t w = 0; w < n_words; w++) {
                    uint64_t v;
                    memcpy(&v, m + w * 8, 8);
                    dst[w] = src[w] & v;
                }
            }
            const uint64_t *src = partial + (n_var - 1) * n_words;
            const uint8_t *m = cell_row(blk, cells[n_var - 1]);
            int64_t acc = 0;
            for (int64_t w = 0; w < n_words; w++) {
                uint64_t v;
                memcpy(&v, m + w * 8, 8);
                acc += __builtin_popcountll(src[w] & v);
            }
            counts[c] += acc;
        }
    }
}

/* Fold counts[0..nc) of candidates offset.. into the running choice
 * (*best, *best_v): the first minimum of Eq. 1's (n - mean) / sd, a NaN
 * winning as the first NaN does under numpy's argmin.  *best < 0 before
 * the first candidate. */
static void choose(const int64_t *counts, int64_t nc, uint64_t offset,
                   double mean, double sd, int64_t *best, double *best_v)
{
    for (int64_t c = 0; c < nc; c++) {
        double v = ((double)counts[c] - mean) / sd;
        if (*best < 0 || (*best_v == *best_v && (v < *best_v || v != v))) {
            *best = (int64_t)(offset + (uint64_t)c);
            *best_v = v;
        }
    }
}

/* One counting call of the staged crossover: the candidates it counts
 * and the most genes any of them fixes (the width it pads them to). */
typedef struct {
    int64_t cand, widest;
} stage_t;

static void tally(stage_t *stage, int64_t cand, int64_t width)
{
    stage->cand += cand;
    if (width > stage->widest) stage->widest = width;
}

/* Figure 5's optimized crossover of one pair of (d,) int64 gene rows a
 * and b (-1 is the wildcard) into ca and cb, counted over the row blocks.
 *
 * A pair whose parents do not both fix k genes passes through.  Else
 * its child takes parent a's gene on the Type II positions (both fixed);
 * the nf free ones (where the parents differ) are chosen by the fittest
 * of the 2^nf assignments, candidate c taking parent b's gene at the
 * jj-th free position when bit nf-1-jj of c is set (itertools.product
 * order), cap candidates per counting pass.  Then the child grows to k
 * genes one greedy Type III step at a time (exactly one parent fixed),
 * each step scoring the unchosen positions in ascending order.  Scores
 * are Eq. 1 at the candidate's own k, (n - mean[k]) / sd[k]; ties go to
 * the first.  The second child is the complement.
 *
 * work:    int64 scratch of 4 * d + cap * (k + 1);
 * partial: uint64 scratch of k times the largest block's words (at
 *          least one);
 * stages:  k + 1 tallies of the staged crossover's counting calls the
 *          pair adds to: the Type II enumeration, then greedy step s at
 *          stages[1 + s].
 */
static void recombine_pair(const int64_t *blocks, int64_t n_blocks,
                           const int64_t *a, const int64_t *b, int64_t *ca,
                           int64_t *cb, int64_t d, int64_t phi, int64_t k,
                           const double *mean, const double *sd, int64_t cap,
                           int64_t *work, uint64_t *partial, stage_t *stages)
{
    int64_t *child = work, *fixed = child + d, *free_pos = fixed + d;
    int64_t *cand_pos = free_pos + d, *counts = cand_pos + d;
    int64_t *cells = counts + cap;
    int64_t ka = 0, kb = 0, n2 = 0, nf = 0, nb = 0;
    memcpy(ca, a, (size_t)d * 8);
    memcpy(cb, b, (size_t)d * 8);
    for (int64_t j = 0; j < d; j++) {
        ka += a[j] >= 0;
        kb += b[j] >= 0;
    }
    if (ka != k || kb != k) return;
    for (int64_t j = 0; j < d; j++) {
        int both = a[j] >= 0 && b[j] >= 0;
        child[j] = both ? a[j] : -1;
        n2 += both;
        if (both && a[j] != b[j]) free_pos[nf++] = j;
        else if (both) fixed[nb++] = j * phi + a[j];
    }
    if (nf > 0) {
        uint64_t total = (uint64_t)1 << nf;
        int64_t best = -1;
        double best_v = 0.0;
        for (uint64_t lo = 0; lo < total; lo += (uint64_t)cap) {
            int64_t nc = total - lo < (uint64_t)cap ? (int64_t)(total - lo) : cap;
            for (int64_t c = 0; c < nc; c++) {
                uint64_t bits = lo + (uint64_t)c;
                for (int64_t jj = 0; jj < nf; jj++) {
                    int64_t p = free_pos[jj];
                    int take_b = (bits >> (nf - 1 - jj)) & 1;
                    cells[c * nf + jj] = p * phi + (take_b ? b[p] : a[p]);
                }
            }
            count_stage(blocks, n_blocks, fixed, nb, cells, nf, nc, partial,
                        counts);
            choose(counts, nc, lo, mean[n2], sd[n2], &best, &best_v);
        }
        tally(&stages[0], (int64_t)total, n2);
        for (int64_t jj = 0; jj < nf; jj++) {
            int64_t p = free_pos[jj];
            child[p] = (((uint64_t)best >> (nf - 1 - jj)) & 1) ? b[p] : a[p];
        }
    }
    for (int64_t s = 0; s < k - n2; s++) {
        int64_t nc = 0, best = -1;
        double best_v = 0.0;
        nb = 0;
        for (int64_t j = 0; j < d; j++) {
            if (child[j] >= 0) {
                fixed[nb++] = j * phi + child[j];
            } else if ((a[j] >= 0) != (b[j] >= 0)) {
                cand_pos[nc] = j;
                cells[nc++] = j * phi + (a[j] >= 0 ? a[j] : b[j]);
            }
        }
        count_stage(blocks, n_blocks, fixed, nb, cells, 1, nc, partial, counts);
        choose(counts, nc, 0, mean[n2 + s + 1], sd[n2 + s + 1], &best, &best_v);
        child[cand_pos[best]] = cells[best] % phi;
        tally(&stages[1 + s], nc, n2 + s + 1);
    }
    for (int64_t j = 0; j < d; j++) {
        ca[j] = child[j];
        if (a[j] >= 0 && b[j] >= 0) cb[j] = child[j] == a[j] ? b[j] : a[j];
        else if (a[j] >= 0 || b[j] >= 0)
            cb[j] = child[j] >= 0 ? -1 : (a[j] >= 0 ? a[j] : b[j]);
        else cb[j] = -1;
    }
}

/* numpy's bitgen_t, the C interface of a Generator's bit generator. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} repro_bitgen;

/* Generator.integers(0, n) for 1 <= n < 2^32, drawn as numpy 2.x draws
 * it: nothing when n == 1, else Lemire's bounded draw over next_uint32
 * (random_bounded_uint64_fill, non-masked). */
static int64_t draw_below(repro_bitgen *bg, uint32_t n)
{
    if (n == 1) return 0;
    uint64_t m = (uint64_t)bg->next_uint32(bg->state) * n;
    if ((uint32_t)m < n) {
        uint32_t t = (uint32_t)(-n) % n;
        while ((uint32_t)m < t) m = (uint64_t)bg->next_uint32(bg->state) * n;
    }
    return (int64_t)(m >> 32);
}

/* A value in [0, max] drawn as numpy's random_interval draws it (the
 * draw behind Generator.shuffle): the smallest all-ones mask covering
 * max over next_uint32 (next_uint64 above 2^32 - 1), redrawn while the
 * masked value exceeds max. */
static uint64_t draw_interval(repro_bitgen *bg, uint64_t max)
{
    uint64_t mask = max, v;
    if (max == 0) return 0;
    mask |= mask >> 1;
    mask |= mask >> 2;
    mask |= mask >> 4;
    mask |= mask >> 8;
    mask |= mask >> 16;
    mask |= mask >> 32;
    if (max <= 0xffffffffUL) {
        while ((v = (bg->next_uint32(bg->state) & mask)) > max) {}
    } else {
        while ((v = (bg->next_uint64(bg->state) & mask)) > max) {}
    }
    return v;
}

/* Column of the nth (0-based) gene of row g that is fixed (want_fixed)
 * or a wildcard. */
static int64_t nth_gene(const int64_t *g, int64_t d, int64_t nth, int want_fixed)
{
    for (int64_t j = 0; j < d; j++) {
        if ((g[j] >= 0) == want_fixed && nth-- == 0) return j;
    }
    return -1;
}

/* Figure 6's mutation of a (p, d) int64 gene matrix in place (-1 is the
 * wildcard), drawing from bg exactly as BalancedMutation's Python loop
 * draws from the Generator over it.  Per row, in turn: random() for
 * Type I, and when it is under p1 and the row fixes some but not all
 * genes, integers(wildcards), integers(fixed) and integers(phi) name the
 * wildcard that takes the value and the fixed gene that becomes *; then
 * random() for Type II, and when it is under p2, the row fixes a gene and
 * phi > 1, integers(fixed) and integers(1, phi) name the fixed gene
 * (counted after the swap) and its shift modulo phi.
 */
static void mutate_rows(int64_t *genes, int64_t p, int64_t d, int64_t phi,
                        double p1, double p2, repro_bitgen *bg)
{
    for (int64_t i = 0; i < p; i++) {
        int64_t *g = genes + i * d, n_fixed = 0;
        for (int64_t j = 0; j < d; j++) n_fixed += g[j] >= 0;
        double u = bg->next_double(bg->state);
        if (u < p1 && n_fixed > 0 && n_fixed < d) {
            int64_t gain = draw_below(bg, (uint32_t)(d - n_fixed));
            int64_t lose = draw_below(bg, (uint32_t)n_fixed);
            int64_t value = draw_below(bg, (uint32_t)phi);
            int64_t to = nth_gene(g, d, gain, 0), from = nth_gene(g, d, lose, 1);
            g[to] = value;
            g[from] = -1;
        }
        u = bg->next_double(bg->state);
        if (u < p2 && n_fixed > 0 && phi > 1) {
            int64_t at = nth_gene(g, d, draw_below(bg, (uint32_t)n_fixed), 1);
            g[at] = (g[at] + 1 + draw_below(bg, (uint32_t)(phi - 1))) % phi;
        }
    }
}

/* mutate_rows over the bit generator bitgen (a numpy bitgen_t). */
void repro_mutate(int64_t *genes, int64_t p, int64_t d, int64_t phi,
                  double p1, double p2, void *bitgen)
{
    mutate_rows(genes, p, d, phi, p1, p2, (repro_bitgen *)bitgen);
}

/* Whether a sorts before b in numpy's float order: NaN last. */
static int sorts_before(double a, double b)
{
    return a < b || (b != b && a == a);
}

/* order = argsort(x, kind="stable"): a bottom-up merge sort of the
 * indices 0..n-1 that takes from the right run only when its value sorts
 * strictly first, so ties keep index order.  tmp: n scratch. */
static void stable_argsort(const double *x, int64_t n, int64_t *order,
                           int64_t *tmp)
{
    for (int64_t i = 0; i < n; i++) order[i] = i;
    for (int64_t width = 1; width < n; width *= 2) {
        for (int64_t lo = 0; lo < n; lo += 2 * width) {
            int64_t mid = lo + width < n ? lo + width : n;
            int64_t hi = lo + 2 * width < n ? lo + 2 * width : n;
            int64_t i = lo, j = mid, t = lo;
            while (i < mid && j < hi) {
                tmp[t++] = sorts_before(x[order[j]], x[order[i]]) ? order[j++]
                                                                  : order[i++];
            }
            while (i < mid) tmp[t++] = order[i++];
            while (j < hi) tmp[t++] = order[j++];
        }
        memcpy(order, tmp, (size_t)n * 8);
    }
}

/* Figure 4's rank roulette over the argsort order: p picks drawn as
 * numpy 2.x draws rng.choice(p, p, p=w / w.sum()) with weight p - 1 - r
 * for the row of rank r (0 the fittest).  The cdf is the running sum of
 * w / sum(w) divided by its last entry; each pick is one next_double u
 * and the first row whose cdf exceeds u (searchsorted side="right").
 * One row picks itself and draws nothing.  cdf: p scratch. */
static void rank_roulette(const int64_t *order, int64_t p, double *cdf,
                          repro_bitgen *bg, int64_t *pick)
{
    double total = 0.0, run = 0.0;
    if (p <= 1) {
        for (int64_t i = 0; i < p; i++) pick[i] = i;
        return;
    }
    for (int64_t r = 0; r < p; r++) cdf[order[r]] = (double)(p - 1 - r);
    for (int64_t i = 0; i < p; i++) total += cdf[i];
    for (int64_t i = 0; i < p; i++) {
        run += cdf[i] / total;
        cdf[i] = run;
    }
    double last = cdf[p - 1];
    for (int64_t i = 0; i < p; i++) cdf[i] /= last;
    for (int64_t c = 0; c < p; c++) {
        double u = bg->next_double(bg->state);
        int64_t lo = 0, hi = p;
        while (lo < hi) {
            int64_t mid = lo + (hi - lo) / 2;
            if (u < cdf[mid]) hi = mid; else lo = mid + 1;
        }
        pick[c] = lo;
    }
}

/* One generation of Figure 3's loop over the (p, d) int64 population
 * genes (-1 is the wildcard) and its fitnesses fit, drawing from the bit
 * generator bitgen (a numpy bitgen_t) exactly as the operators draw from
 * the Generator over it, in their order:
 *
 * 1. the elites: the first `elitism` rows of argsort(fit, "stable");
 * 2. selection: row chosen[i] as pick i when chosen is not NULL, else
 *    rank_roulette;
 * 3. pairing: rng.permutation(p), Fisher-Yates from the top (row i swaps
 *    with draw_interval(i)), its entries taken two at a time;
 * 4. with rate < 1, one next_double per pair in pair order: the pair
 *    recombines when it falls under rate;
 * 5. recombine_pair on every recombining pair of picks, then mutate_rows
 *    over the whole matrix;
 * 6. the elites replace the last rows;
 * 7. scoring: each row fixing k genes is counted with repro_count_batch
 *    over every block (block words per cache block) and scores Eq. 1,
 *    (n - mean[k]) / sd[k]; the other rows score +inf.
 *
 * out, out_fit: (p, d) next population and (p,) its fitnesses;
 * dims, ranges, counts, coef: the scored rows' (k,) cubes, counts and
 *          coefficients, in row order, in their first stats[2] rows;
 * work:    int64 scratch of 4 * p + p * d + p * k + 2 * (k + 1)
 *          + 4 * d + cap * (k + 1);
 * cdf:     double scratch of p;
 * partial: uint64 scratch of k times the largest block's words (at
 *          least one);
 * stats:   out (candidates counted, the staged crossover's counting
 *          calls, rows scored, words the staged path's counting calls
 *          AND: (widest - 1) * candidates * words per call, with k for
 *          the scoring call).
 */
void repro_generation(const int64_t *blocks, int64_t n_blocks,
                      const int64_t *genes, const double *fit, int64_t p,
                      int64_t d, int64_t phi, int64_t k, int64_t elitism,
                      const int64_t *chosen, double rate, double p1,
                      double p2, const double *mean, const double *sd,
                      int64_t cap, int64_t block, void *bitgen, int64_t *out,
                      double *out_fit, int64_t *dims, int64_t *ranges,
                      int64_t *counts, double *coef, int64_t *work,
                      double *cdf, uint64_t *partial, int64_t *stats)
{
    repro_bitgen *bg = (repro_bitgen *)bitgen;
    int64_t *order = work, *pick = order + p, *perm = pick + p, *tmp = perm + p;
    int64_t *parents = tmp + p, *cells = parents + p * d;
    stage_t *stages = (stage_t *)(cells + p * k);
    int64_t *scratch = (int64_t *)(stages + k + 1);
    int64_t n = 0, cand = 0, n_stages = 0, anded = 0, words = 0;

    stable_argsort(fit, p, order, tmp);
    if (chosen) memcpy(pick, chosen, (size_t)p * 8);
    else rank_roulette(order, p, cdf, bg, pick);
    for (int64_t i = 0; i < p; i++) {
        memcpy(parents + i * d, genes + pick[i] * d, (size_t)d * 8);
        perm[i] = i;
    }
    memcpy(out, parents, (size_t)(p * d) * 8);
    for (int64_t i = p - 1; i > 0; i--) {
        int64_t j = (int64_t)draw_interval(bg, (uint64_t)i), t = perm[i];
        perm[i] = perm[j];
        perm[j] = t;
    }
    for (int64_t t = 0; t < p / 2; t++) {
        tmp[t] = rate >= 1.0 || bg->next_double(bg->state) < rate;
    }
    memset(stages, 0, (size_t)(k + 1) * sizeof(stage_t));
    for (int64_t t = 0; t < p / 2; t++) {
        if (!tmp[t]) continue;
        int64_t i = perm[2 * t], j = perm[2 * t + 1];
        recombine_pair(blocks, n_blocks, parents + i * d, parents + j * d,
                       out + i * d, out + j * d, d, phi, k, mean, sd, cap,
                       scratch, partial, stages);
    }
    mutate_rows(out, p, d, phi, p1, p2, bg);
    for (int64_t r = 0; r < elitism; r++) {
        memcpy(out + (p - elitism + r) * d, genes + order[r] * d, (size_t)d * 8);
    }

    for (int64_t i = 0; i < p; i++) {
        const int64_t *g = out + i * d;
        int64_t m = 0;
        out_fit[i] = __builtin_inf();
        for (int64_t j = 0; j < d; j++) m += g[j] >= 0;
        if (m != k) continue;
        for (int64_t j = 0, l = n * k; j < d; j++) {
            if (g[j] < 0) continue;
            dims[l] = j;
            ranges[l] = g[j];
            cells[l++] = j * phi + g[j];
        }
        tmp[n++] = i;
    }
    for (int64_t c = 0; c < n; c++) counts[c] = 0;
    for (int64_t b = 0; b < n_blocks; b++) {
        const int64_t *blk = blocks + 3 * b;
        words += blk[2];
        if (n == 0) continue;
        repro_count_batch((const uint8_t *)(intptr_t)blk[0], blk[1], blk[2],
                          cells, n, k, block, pick);
        for (int64_t c = 0; c < n; c++) counts[c] += pick[c];
    }
    for (int64_t c = 0; c < n; c++) {
        coef[c] = ((double)counts[c] - mean[k]) / sd[k];
        out_fit[tmp[c]] = coef[c];
    }

    for (int64_t s = 0; s <= k; s++) {
        if (stages[s].cand == 0) continue;
        cand += stages[s].cand;
        n_stages++;
        anded += (stages[s].widest - 1) * stages[s].cand;
    }
    if (n > 0) anded += (k - 1) * n;
    stats[0] = cand;
    stats[1] = n_stages;
    stats[2] = n;
    stats[3] = anded * words;
}

/* One streamed block of a brute-force level (Figure 2's R_i (+) Q_1),
 * counted over the row blocks and filtered as the best set filters a
 * block before it offers one.
 *
 * parents: (n_parents, depth) int64 cells j * phi + v, dims ascending.
 *          Parent p is extended by every cell of the dims after its last
 *          one (all dims from 0 when depth is 0) and before stop, parent
 *          by parent, then dim, then range: the children's lexicographic
 *          order.  Only the first `limit` children are counted.
 *
 * count_stage ANDs each parent's cells once per row block and counts
 * every child with one AND + popcount.  A child with count n scores
 * Eq. 1, s = ((double)n - mean) / sd, and survives when
 * (!nonempty || n != 0) && !(s > threshold) && !(s >= worst): a NaN s
 * survives, and so does everything under threshold +inf and worst NaN.
 *
 * work:    int64 scratch of 2 * stop * phi (at least one);
 * partial: uint64 scratch of the largest block's words (at least one);
 * index, out_count, out_coef: the survivors' child indices (ascending),
 *          counts and coefficients, their number in *n_out.
 */
void repro_level(const int64_t *blocks, int64_t n_blocks, int64_t phi,
                 const int64_t *parents, int64_t n_parents, int64_t depth,
                 int64_t stop, int64_t limit, int64_t nonempty, double mean,
                 double sd, double threshold, double worst, int64_t *work,
                 uint64_t *partial, int64_t *index, int64_t *out_count,
                 double *out_coef, int64_t *n_out)
{
    int64_t *cells = work, *counts = work + stop * phi;
    int64_t child = 0, kept = 0;
    for (int64_t p = 0; p < n_parents && child < limit; p++) {
        const int64_t *base = parents + p * depth;
        int64_t lo = depth > 0 ? base[depth - 1] / phi + 1 : 0;
        int64_t nc = lo < stop ? (stop - lo) * phi : 0;
        if (nc > limit - child) nc = limit - child;
        if (nc == 0) continue;
        for (int64_t c = 0; c < nc; c++) cells[c] = lo * phi + c;
        count_stage(blocks, n_blocks, base, depth, cells, 1, nc, partial,
                    counts);
        for (int64_t c = 0; c < nc; c++) {
            double s = ((double)counts[c] - mean) / sd;
            if ((nonempty && counts[c] == 0) || s > threshold || s >= worst)
                continue;
            index[kept] = child + c;
            out_count[kept] = counts[c];
            out_coef[kept++] = s;
        }
        child += nc;
    }
    *n_out = kept;
}
"""

_PTR, _INT, _DOUBLE = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double

#: Argument types of each exported C routine, in the C parameter order
#: (arrays are passed as addresses); every routine returns void.
_SIGNATURES: dict[str, list] = {
    # stack, row_bytes, n_words, rows, n_cubes, k, block, counts
    "repro_count_batch": [_PTR, _INT, _INT, _PTR, _INT, _INT, _INT, _PTR],
    # x, n, row_stride, col_stride, first, g, out
    "repro_gather_columns": [_PTR, _INT, _INT, _INT, _INT, _INT, _PTR],
    # x, n, d, row_stride, col_stride, cuts, cuts_t, n_cuts, max_compare,
    # out
    "repro_codes": [_PTR, _INT, _INT, _INT, _INT, _PTR, _PTR, _INT, _INT, _PTR],
    # x, n, d, row_stride, col_stride, cuts, cuts_t, n_cuts, max_compare,
    # dims, ranges, free, coef, m, kmax, work, scores
    "repro_score_rows": [
        _PTR, _INT, _INT, _INT, _INT, _PTR, _PTR, _INT, _INT,
        _PTR, _PTR, _PTR, _PTR, _INT, _INT, _PTR, _PTR,
    ],
    # codes, n, d, row_stride, col_stride, phi, first, row_bytes, out
    "repro_pack_codes": [_PTR, _INT, _INT, _INT, _INT, _INT, _INT, _INT, _PTR],
    # genes, p, d, phi, p1, p2, bitgen
    "repro_mutate": [_PTR, _INT, _INT, _INT, _DOUBLE, _DOUBLE, _PTR],
    # blocks, n_blocks, genes, fit, p, d, phi, k, elitism, chosen, rate, p1,
    # p2, mean, sd, cap, block, bitgen, out, out_fit, dims, ranges, counts,
    # coef, work, cdf, partial, stats
    "repro_generation": [
        _PTR, _INT, _PTR, _PTR, _INT, _INT, _INT, _INT, _INT, _PTR, _DOUBLE,
        _DOUBLE, _DOUBLE, _PTR, _PTR, _INT, _INT, _PTR, _PTR, _PTR, _PTR, _PTR,
        _PTR, _PTR, _PTR, _PTR, _PTR, _PTR,
    ],
    # blocks, n_blocks, phi, parents, n_parents, depth, stop, limit,
    # nonempty, mean, sd, threshold, worst, work, partial, index, out_count,
    # out_coef, n_out
    "repro_level": [
        _PTR, _INT, _INT, _PTR, _INT, _INT, _INT, _INT, _INT, _DOUBLE, _DOUBLE,
        _DOUBLE, _DOUBLE, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR,
    ],
}

#: Type II candidates :class:`NativeGeneration`'s crossover counts per
#: pass: larger enumerations are counted in runs of this many, so its
#: scratch stays small whatever k.
_RECOMBINE_CHUNK = 4096

#: The largest k :class:`NativeGeneration` takes: its crossover's
#: ``2^k'`` Type II enumeration runs over 64-bit candidate numbers.
MAX_GENERATION_K = 62

#: Gene matrix widths and φ :func:`native_mutate` and
#: :class:`NativeGeneration` take stay below this: their bounded draws
#: run over 32-bit random words.
MUTATE_LIMIT = 1 << 31

#: The process-wide build outcome: ``None`` until first use, then the
#: loaded library or, after a failed build, the reason it failed.
_BUILD: ctypes.CDLL | str | None = None


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


def _build_kernel() -> ctypes.CDLL:
    """Compile, load and self-probe the C library."""
    compiler = _find_compiler()
    if compiler is None:
        raise ResourceError(
            "no C compiler found (tried cc, gcc, clang; set $REPRO_CC)"
        )
    lib = ctypes.CDLL(_compile_c_library(compiler))
    for name, argtypes in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = None
    # Self-probe: 2 all-ones byte rows ANDed must popcount to 64.
    probe = np.full((2, 8), 0xFF, dtype=np.uint8)
    rows = np.array([0, 1], dtype=np.int64)
    counts = np.zeros(1, dtype=np.int64)
    lib.repro_count_batch(
        probe.ctypes.data, 8, 1, rows.ctypes.data, 1, 2, _BLOCK_WORDS,
        counts.ctypes.data,
    )
    if int(counts[0]) != 64:  # pragma: no cover - broken toolchain
        raise ResourceError(
            f"C kernel built with {compiler} failed its self-probe"
        )
    return lib


def _load_kernel() -> ctypes.CDLL:
    """The compiled library, built on first use; re-raises a failed build.

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


def _flat_rows(stack: np.ndarray) -> tuple[np.ndarray, int]:
    """*stack*'s ``(d·φ, W)`` mask rows as one 2-D view, and its row stride.

    The rows are read in place when each is whole contiguous words at a
    fixed stride at least a row long — a C-contiguous stack, or a row
    block's filled prefix inside its spare capacity; any other layout
    is copied first.
    """
    n_dims, n_ranges, n_words = stack.shape
    flat = stack.reshape(n_dims * n_ranges, n_words)
    if n_words and (
        flat.strides[1] != 8 or flat.strides[0] < 8 * n_words
    ):
        flat = np.ascontiguousarray(flat)
    return flat, flat.strides[0] if n_words else 0


def native_batch_counts(
    stack: np.ndarray,
    dims_arr: np.ndarray,
    rng_arr: np.ndarray,
) -> tuple[np.ndarray, dict]:
    """Counts for a batch of same-k cubes via the compiled kernel.

    Drop-in for :func:`repro.grid.kernels.batch_counts`: same inputs,
    bit-identical ``counts`` (exact integer popcounts), same ``stats``
    keys.  The uint64 mask stack is read through its row stride, so the
    filled prefix of a row block with spare capacity is counted in
    place (:func:`_flat_rows`).  Raises
    :class:`~repro.exceptions.ValidationError` for an index outside the
    stack and :class:`~repro.exceptions.ResourceError` when the kernel
    could not be built.
    """
    dims_arr, rng_arr = _check_indices(stack, dims_arr, rng_arr)
    lib = _load_kernel()
    flat, row_bytes = _flat_rows(stack)
    n_words = stack.shape[2]
    rows = dims_arr * stack.shape[1] + rng_arr
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    counts = np.empty(rows.shape[0], dtype=np.int64)
    n_cubes, k = rows.shape
    lib.repro_count_batch(
        flat.ctypes.data, row_bytes, n_words, rows.ctypes.data, n_cubes, k,
        _BLOCK_WORDS, counts.ctypes.data,
    )
    stats = {
        "words_and": (k - 1) * n_cubes * n_words,
        "prefix_reuse": 0,
        "kernel_tier": "c",
    }
    return counts, stats


def _check_matrix(array: np.ndarray, dtype, what: str) -> tuple[int, int]:
    """Refuse a non-2-D or mistyped *array*; its strides in elements."""
    if not isinstance(array, np.ndarray) or array.ndim != 2 or array.dtype != dtype:
        raise ValidationError(
            f"native {what} needs 2-D {np.dtype(dtype)} arrays, got "
            f"{getattr(array, 'dtype', type(array).__name__)} with shape "
            f"{np.shape(array)}"
        )
    itemsize = array.dtype.itemsize
    if any(stride % itemsize for stride in array.strides):
        raise ValidationError(
            f"native {what} needs element-aligned strides, got "
            f"{array.strides} for {array.dtype}"
        )
    return array.strides[0] // itemsize, array.strides[1] // itemsize


def native_gather_columns(array: np.ndarray, first: int, out: np.ndarray) -> None:
    """Copy columns ``first .. first + g - 1`` of *array* into *out*.

    *array* is an ``(n, d)`` float64 matrix of any layout; *out* a
    writeable C-contiguous ``(g, n)`` float64 buffer, so row ``c`` of
    *out* becomes a contiguous copy of column ``first + c``.  The
    reference is ``out[c] = array[:, first + c]``.
    """
    row_stride, col_stride = _check_matrix(array, np.float64, "gather")
    _check_matrix(out, np.float64, "gather")
    (n, d), g = array.shape, out.shape[0]
    if not (
        out.flags.c_contiguous
        and out.flags.writeable
        and out.shape[1] == n
        and 0 <= first <= first + g <= d
    ):
        raise ValidationError(
            f"native gather of columns {first}.. of a {array.shape} matrix "
            "needs a writeable C-contiguous (g, n) buffer with "
            f"first + g <= d, got {out.shape}"
        )
    lib = _load_kernel()
    lib.repro_gather_columns(
        array.ctypes.data, n, row_stride, col_stride, first, g, out.ctypes.data
    )


def _cut_tables(
    cuts: np.ndarray, n_dims: int, what: str
) -> tuple[np.ndarray, np.ndarray | None]:
    """The ``(d, φ−1)`` cut matrix C-contiguous, and the transpose the
    comparison count reads (``None`` when codes come from binary search)."""
    _check_matrix(cuts, np.float64, what)
    if cuts.shape[0] != n_dims or cuts.shape[1] >= _MAX_RANGES:
        raise ValidationError(
            f"native {what} of {n_dims}-column matrices need a (d, phi - 1) "
            f"cut matrix with phi <= {_MAX_RANGES}, got {cuts.shape}"
        )
    if cuts.shape[1] > _MAX_COMPARE_CUTS:
        return np.ascontiguousarray(cuts), None
    return cuts, np.ascontiguousarray(cuts.T)


def native_range_codes(array: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Range codes ``#{cuts < v}`` of an ``(n, d)`` matrix via the C library.

    Drop-in for :func:`repro.grid.kernels.range_codes_block`: *cuts* is
    the sorted ``(d, φ−1)`` cut matrix, NaN maps to
    :data:`~repro.grid.cells.MISSING_CELL`, and the ``(n, d)`` int16
    result is byte-identical.  *array* is read through its strides, so
    a Fortran-ordered or sliced matrix is not copied.
    """
    row_stride, col_stride = _check_matrix(array, np.float64, "codes")
    cuts, cuts_t = _cut_tables(cuts, array.shape[1], "codes")
    n, d = array.shape
    codes = np.empty((n, d), dtype=np.int16)
    lib = _load_kernel()
    lib.repro_codes(
        array.ctypes.data, n, d, row_stride, col_stride,
        None if cuts_t is not None else cuts.ctypes.data,
        None if cuts_t is None else cuts_t.ctypes.data,
        cuts.shape[1], _MAX_COMPARE_CUTS, codes.ctypes.data,
    )
    return codes


class NativeScorer:
    """:func:`native_score_rows` with its grid and mined set bound once.

    Built from a ``(d, φ−1)`` cut matrix and a
    :class:`~repro.core.results.CubeTable`'s arrays: *dims* and
    *ranges* ``(m, kmax)`` int64, *coefficients* ``(m,)`` float64,
    *free* ``(m,)`` bool, all C-contiguous.  The arrays are checked,
    the cut transpose is made and every address the C routine reads
    besides the request's is taken here, once, so a call checks the
    request's dtype, width and strides and enters C.  Each call
    allocates its own buffer for the scores and the routine's scratch.
    """

    def __init__(
        self,
        cuts: np.ndarray,
        dims: np.ndarray,
        ranges: np.ndarray,
        coefficients: np.ndarray,
        free: np.ndarray,
    ) -> None:
        _check_matrix(cuts, np.float64, "scoring")
        n_dims = cuts.shape[0]
        cuts, cuts_t = _cut_tables(cuts, n_dims, "scoring")
        m = coefficients.shape[0] if coefficients.ndim == 1 else -1
        kmax = dims.shape[1] if dims.ndim == 2 else -1
        if not (
            dims.dtype == ranges.dtype == np.int64
            and coefficients.dtype == np.float64
            and free.dtype == np.bool_
            and dims.shape == ranges.shape == (m, kmax)
            and free.shape == (m,)
            and all(a.flags.c_contiguous for a in (dims, ranges, coefficients, free))
        ):
            raise ValidationError(
                "native scoring needs C-contiguous (m, kmax) int64 dims and "
                "ranges, (m,) float64 coefficients and (m,) bool free flags, "
                f"got {dims.dtype}{dims.shape}, {ranges.dtype}{ranges.shape}, "
                f"{coefficients.dtype}{coefficients.shape}, {free.dtype}{free.shape}"
            )
        self._routine = _load_kernel().repro_score_rows
        # The bound arrays, kept alive for the addresses taken below.
        self._arrays = (cuts, cuts_t, dims, ranges, free, coefficients)
        self._n_dims = n_dims
        self._cuts_shape = cuts.shape
        self._work_words = (n_dims * (cuts.shape[1] + 2) + 2) * -(-m // 64)
        self._table_args = (
            None if cuts_t is not None else cuts.ctypes.data,
            None if cuts_t is None else cuts_t.ctypes.data,
            cuts.shape[1], _MAX_COMPARE_CUTS, dims.ctypes.data,
            ranges.ctypes.data, free.ctypes.data, coefficients.ctypes.data, m,
            kmax,
        )

    def __call__(self, array: np.ndarray) -> np.ndarray:
        """Deviation score per row of an ``(n, d)`` float64 request."""
        row_stride, col_stride = _check_matrix(array, np.float64, "scoring")
        n, d = array.shape
        if d != self._n_dims:
            raise ValidationError(
                f"native scoring of a {array.shape} matrix needs a (d, "
                f"phi - 1) cut matrix, bound to {self._cuts_shape}"
            )
        # The scores, then the routine's scratch words, in one buffer.
        buffer = np.empty(n + self._work_words)
        scores = buffer.ctypes.data
        self._routine(
            array.ctypes.data, n, d, row_stride, col_stride, *self._table_args,
            scores + 8 * n, scores,
        )
        return buffer[:n]


def native_score_rows(
    array: np.ndarray,
    cuts: np.ndarray,
    dims: np.ndarray,
    ranges: np.ndarray,
    coefficients: np.ndarray,
    free: np.ndarray,
) -> np.ndarray:
    """Deviation score per row of an ``(n, d)`` request via the C library.

    One pass codes each row under *cuts* exactly as
    :func:`native_range_codes` does and tests it against the mined set
    given as a :class:`~repro.core.results.CubeTable`'s arrays (see
    :class:`NativeScorer`, which this binds for one call).  A row scores
    the first non-NaN minimum coefficient, in table order, among the
    cubes that cover it, NaN when none does: bit-identical to
    :func:`~repro.core.results.score_cells` on the codes, signed zeros
    included.  No ``(n, d)`` code block is built.  The table's width
    check is the caller's: here a cube that names a dimension past
    ``d`` covers no row.
    """
    return NativeScorer(cuts, dims, ranges, coefficients, free)(array)


def native_pack_codes(codes: np.ndarray, n_ranges: int) -> np.ndarray:
    """The packed ``(d, φ, W8)`` mask stack of *codes* via the C library.

    Drop-in for :func:`repro.grid.kernels.pack_codes_block` on an
    ``(n, d)`` int16 code block: the same ``packed_alloc`` fault point,
    and a byte-identical stack.  Codes outside ``[MISSING_CELL, φ)``
    are refused before any bit is set.
    """
    _check_matrix(codes, np.int16, "pack")
    n, n_dims = codes.shape
    maybe_inject("packed_alloc", kind="packed", n_points=n)
    stack8 = np.zeros((n_dims, n_ranges, packed_row_bytes(n)), dtype=np.uint8)
    native_pack_codes_into(codes, stack8, 0)
    return stack8


def native_pack_codes_into(
    codes: np.ndarray, out: np.ndarray, first: int, *, codes_checked: bool = False
) -> None:
    """Pack an ``(n, d)`` int16 code block into rows ``first..`` of *out*.

    *out* is a writeable C-contiguous ``(d, φ, bytes)`` uint8 stack with
    room for ``first + n`` rows whose bits from row *first* on are zero;
    the new rows' bits are ORed in, so the rows below *first* stay as
    they are.  The reference is
    :func:`repro.grid.kernels.pack_codes_block_into`.  Codes outside
    ``[MISSING_CELL, φ)`` are refused before any bit is set, unless
    *codes_checked* says the caller has refused them already (a block
    :func:`~repro.grid.cells.check_code_block` passed, or one a grid
    coded); the layout of *codes* and *out* is checked either way.
    """
    row_stride, col_stride = _check_matrix(codes, np.int16, "pack")
    n, n_dims = codes.shape
    if not (
        isinstance(out, np.ndarray)
        and out.dtype == np.uint8
        and out.ndim == 3
        and out.flags.c_contiguous
        and out.flags.writeable
        and out.shape[0] == n_dims
        and 0 <= first <= first + n <= 8 * out.shape[2]
    ):
        raise ValidationError(
            f"native pack of {codes.shape} codes at row {first} needs a "
            "writeable C-contiguous (d, phi, bytes) uint8 stack with room "
            f"for them, got {getattr(out, 'dtype', type(out).__name__)} "
            f"with shape {np.shape(out)}"
        )
    n_ranges = out.shape[1]
    if codes.size and not codes_checked:
        lo, hi = int(codes.min()), int(codes.max())
        if lo < MISSING_CELL or hi >= n_ranges:
            raise ValidationError(
                f"native pack needs codes in [{MISSING_CELL}, {n_ranges}), "
                f"found range [{lo}, {hi}]"
            )
    lib = _load_kernel()
    lib.repro_pack_codes(
        codes.ctypes.data, n, n_dims, row_stride, col_stride, n_ranges, first,
        out.shape[2], out.ctypes.data,
    )


class BlockTable:
    """Row blocks checked once, as the ``(n_blocks, 3)`` int64 rows
    ``(address, row stride, words)`` the C routines read them through.

    *blocks* are the ``(d, φ, words)`` uint64 row blocks of one grid (a
    count is the sum of the blocks' counts).  Refuses an empty sequence
    and a block that is not such an array, of the first block's d and φ
    with ``1 <= φ < MUTATE_LIMIT``, whose mask rows lie one stride apart
    in cell order with their words contiguous; the strides are numpy's
    own, so every row the C code forms from them lies inside its block.
    The table keeps the blocks alive: a counter binds one per state of
    its blocks and drops it when an append changes them.
    """

    def __init__(self, blocks) -> None:
        blocks = list(blocks)
        shape = np.shape(blocks[0])[:2] if blocks and np.ndim(blocks[0]) == 3 else ()
        if len(shape) != 2 or not 1 <= shape[1] < MUTATE_LIMIT:
            raise ValidationError(
                "native counting needs at least one (d, phi, words) row block "
                f"with 1 <= phi < 2^31, got shape {shape or None}"
            )
        n_dims, n_ranges = shape
        rows = []
        for block in blocks:
            if not (
                isinstance(block, np.ndarray)
                and block.dtype == np.uint64
                and block.ndim == 3
                and block.shape[:2] == (n_dims, n_ranges)
                and (block.shape[2] <= 1 or block.strides[2] == 8)
                and block.strides[0] == n_ranges * block.strides[1]
            ):
                raise ValidationError(
                    "native counting needs (d, phi, words) uint64 row blocks "
                    "with rows in cell order and contiguous words for "
                    f"d={n_dims}, phi={n_ranges}, got "
                    f"{getattr(block, 'dtype', type(block).__name__)} with shape "
                    f"{np.shape(block)} and strides {getattr(block, 'strides', None)}"
                )
            rows.append((block.ctypes.data, block.strides[1], block.shape[2]))
        self.blocks = blocks
        self.rows = np.array(rows, dtype=np.int64)
        self.address = self.rows.ctypes.data
        self.n_dims, self.n_ranges = n_dims, n_ranges
        #: Words of all blocks, and of the widest one.
        self.words = int(self.rows[:, 2].sum())
        self.max_words = int(self.rows[:, 2].max())

    def __len__(self) -> int:
        return len(self.blocks)

    def __reduce__(self):
        # A copy (or an unpickled table) reads its own blocks, so it
        # takes their addresses anew rather than these.
        return BlockTable, (self.blocks,)


def _check_genes(population, what: str) -> tuple[int, int]:
    """Refuse anything but a 2-D matrix in an integer type int64 holds
    with ``1 <= d < MUTATE_LIMIT``; its shape."""
    if not (
        isinstance(population, np.ndarray)
        and population.ndim == 2
        and population.dtype.kind in "iu"
        and np.can_cast(population.dtype, np.int64)
        and 1 <= population.shape[1] < MUTATE_LIMIT
    ):
        got = getattr(population, "dtype", type(population).__name__)
        raise ValidationError(
            f"native {what} needs a (p, d) gene matrix with 1 <= d < 2^31 in an "
            f"integer type int64 holds, got {got} with shape {np.shape(population)}"
        )
    return population.shape


def _check_gene_range(genes: np.ndarray, n_ranges: int, what: str) -> None:
    """Refuse genes outside ``[-1, φ)``."""
    if genes.size and (genes.min() < -1 or genes.max() >= n_ranges):
        raise ValidationError(
            f"native {what} needs genes in [-1, {n_ranges}), found range "
            f"[{genes.min()}, {genes.max()}]"
        )


def _check_draws(what: str, rng, *probabilities) -> None:
    """Refuse probabilities outside ``[0, 1]`` and an *rng* that is not a
    :class:`numpy.random.Generator`."""
    if not all(
        isinstance(p, (int, float, np.number)) and 0.0 <= p <= 1.0
        for p in probabilities
    ):
        raise ValidationError(
            f"native {what} needs probabilities in [0, 1], got "
            f"{', '.join(map(str, probabilities))}"
        )
    if not isinstance(rng, np.random.Generator):
        raise ValidationError(
            f"native {what} needs a numpy Generator, got {type(rng).__name__}"
        )


def native_mutate(
    population: np.ndarray,
    n_ranges: int,
    swap_probability: float,
    flip_probability: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Figure 6's mutation of a ``(p, d)`` gene matrix in one C call.

    Returns a mutated copy of *population* (``-1`` is ``*``), drawing
    from *rng*'s bit generator through numpy's ``bitgen_t`` interface
    exactly the draws, in exactly the order, of
    :meth:`~repro.search.evolutionary.mutation.BalancedMutation.apply`'s
    Python loop, so the genes and ``rng.bit_generator.state`` afterwards
    are that loop's: per string ``rng.random()`` against
    *swap_probability*, the Type I draws where it swaps,
    ``rng.random()`` against *flip_probability*, the Type II draws where
    it flips.  A bounded ``rng.integers`` is drawn as numpy 2.x draws
    it; the proof beside the Python loop
    (:func:`repro.search.evolutionary.mutation._prove_mutation`) checks
    that on this numpy before anything serves it.  *rng*'s lock is held
    for the call.

    Refuses, before any draw, a population that is not a 2-D matrix in
    an integer type int64 holds, genes outside ``[-1, φ)``, φ or d
    outside ``[1, MUTATE_LIMIT)``, probabilities outside ``[0, 1]`` and
    an *rng* that is not a :class:`numpy.random.Generator`; raises
    :class:`~repro.exceptions.ResourceError` before any draw when the
    library cannot be loaded.
    """
    n_rows, n_dims = _check_genes(population, "mutation")
    if not (isinstance(n_ranges, (int, np.integer)) and 1 <= n_ranges < MUTATE_LIMIT):
        raise ValidationError(
            f"native mutation needs 1 <= phi < 2^31, got phi={n_ranges}"
        )
    _check_draws("mutation", rng, swap_probability, flip_probability)
    genes = np.array(population, dtype=np.int64, order="C")
    _check_gene_range(genes, n_ranges, "mutation")
    lib = _load_kernel()
    bit_generator = rng.bit_generator
    with bit_generator.lock:
        lib.repro_mutate(
            genes.ctypes.data, n_rows, n_dims, int(n_ranges),
            float(swap_probability), float(flip_probability),
            bit_generator.ctypes.bit_generator,
        )
    return genes


class NativeGeneration:
    """One generation of the GA (Figure 3's loop body), checked and packed
    for one C call over a counter's row blocks; calling it runs the call.

    *blocks* are a counter's ``(d, φ, words)`` uint64 row blocks (a
    count is the sum of the blocks' counts), or the :class:`BlockTable`
    it bound over them; *population* the ``(p, d)``
    gene matrix (``-1`` is ``*``) and *fitnesses* its ``(p,)``
    fitnesses; *mean* and *std* Equation 1's moments indexed by k, as
    :func:`~repro.search.evolutionary.population._null_moments` builds
    them; *rng* the run's :class:`numpy.random.Generator`.  The call
    draws from *rng*'s bit generator (through numpy's ``bitgen_t``
    interface, its lock held) what the operators draw, in their order,
    and returns what they return:

    * the elites, the first *elitism* rows of a stable argsort of the
      fitnesses, kept aside;
    * selection: the rows *chosen* names (a non-default
      :class:`~repro.search.evolutionary.selection.SelectionOperator`'s
      ``choose``), or else Figure 4's rank roulette drawn as
      ``rng.choice(p, p, p=w / w.sum())``, ``w = p − rank``;
    * pairing as ``rng.permutation(p)``, then one ``rng.random()`` per
      pair against *crossover_rate* when it is below 1;
    * Figure 5's optimized crossover of every recombining pair, as the
      staged crossover recombines it (the caller serves only k without
      its oversized-k' fallback);
    * Figure 6's mutation of every string, drawn as
      :func:`native_mutate` draws it;
    * the elites replacing the last rows;
    * Equation 1 for every string fixing *dimensionality* genes
      (``+inf`` for the others).

    The call returns ``(population, fitnesses, scored, stats)``:
    *scored* holds the ``(n, k)`` dims and ranges, counts and
    coefficients of the n scored strings in row order, and *stats*
    ``candidates`` (crossover cubes counted), ``stages`` (the counting
    calls of the staged crossover), ``rows`` (strings scored) and
    ``words_and`` (what the staged path's counting calls book).  The
    proof that all this is the operators' result sits beside them
    (:func:`repro.search.evolutionary.generation._prove_generation`);
    numpy 2.x's ``choice`` and ``permutation`` are what it checks.

    Construction refuses, before any draw: a population that is not a
    2-D matrix in an integer type int64 holds, genes outside ``[-1,
    φ)``, d or φ outside ``[1, MUTATE_LIMIT)``, fitnesses of another
    length, *dimensionality* outside ``[1, min(d, 62)]``, moment tables
    shorter than ``k + 1``, *elitism* outside ``[0, p]``, *chosen* that
    is not ``p`` rows in ``[0, p)``, probabilities outside ``[0, 1]``,
    an *rng* that is not a Generator and blocks :class:`BlockTable`
    refuses or of another d.  The call raises :class:`~repro.exceptions.ResourceError`
    before any draw when the library cannot be loaded.
    """

    def __init__(
        self,
        blocks,
        population: np.ndarray,
        fitnesses,
        dimensionality: int,
        mean: np.ndarray,
        std: np.ndarray,
        rng: np.random.Generator,
        *,
        elitism: int,
        crossover_rate: float,
        swap_probability: float,
        flip_probability: float,
        chosen=None,
    ) -> None:
        n, n_dims = _check_genes(population, "generation")
        table = blocks if isinstance(blocks, BlockTable) else BlockTable(blocks)
        n_ranges = table.n_ranges
        if table.n_dims != n_dims:
            raise ValidationError(
                f"native generation of {n_dims}-gene strings needs row blocks "
                f"of d={n_dims}, got d={table.n_dims}"
            )
        k = int(dimensionality)
        if not 1 <= k <= min(n_dims, MAX_GENERATION_K):
            raise ValidationError(
                f"native generation needs 1 <= k <= min(d, {MAX_GENERATION_K}), "
                f"got k={dimensionality} with d={n_dims}"
            )
        if any(np.ndim(m) != 1 or len(m) <= k for m in (mean, std)):
            raise ValidationError(
                f"native generation needs moment tables indexed by k = 0..{k}, "
                f"got shapes {np.shape(mean)} and {np.shape(std)}"
            )
        if np.shape(fitnesses) != (n,):
            raise ValidationError(
                f"native generation needs {n} fitnesses, one per string, got "
                f"shape {np.shape(fitnesses)}"
            )
        if not (isinstance(elitism, (int, np.integer)) and 0 <= elitism <= n):
            raise ValidationError(
                f"native generation needs 0 <= elitism <= {n}, got {elitism}"
            )
        if chosen is not None:
            chosen = np.asarray(chosen)
            if not (
                chosen.shape == (n,)
                and chosen.dtype.kind in "iu"
                and (n == 0 or (chosen.min() >= 0 and chosen.max() < n))
            ):
                raise ValidationError(
                    f"native generation needs {n} chosen rows in [0, {n}), got "
                    f"{chosen.dtype} with shape {chosen.shape}"
                )
        _check_draws(
            "generation", rng, crossover_rate, swap_probability, flip_probability
        )
        # One int64 buffer, one address: the outputs (genes, fitnesses,
        # dims, ranges, counts, coefficients, stats), the inputs (genes,
        # fitnesses, chosen rows, the two moment tables) and the routine's
        # scratch (int64 work, double cdf, uint64 partial ANDs).
        cap = max(n_dims, min(1 << k, _RECOMBINE_CHUNK))
        size = n * n_dims
        lengths = (
            size, n, n * k, n * k, n, n, 4,
            size, n, 0 if chosen is None else n, k + 1, k + 1,
            4 * n + size + n * k + 2 * (k + 1) + 4 * n_dims + cap * (k + 1), n,
            max(1, k * table.max_words),
        )
        at = [0]
        for length in lengths:
            at.append(at[-1] + length)
        buffer = np.empty(at[-1], dtype=np.int64)
        genes = buffer[at[7] : at[8]]
        genes.reshape(n, n_dims)[:] = population
        _check_gene_range(genes, n_ranges, "generation")
        buffer[at[8] : at[9]].view(np.float64)[:] = fitnesses
        if chosen is not None:
            buffer[at[9] : at[10]] = chosen
        buffer[at[10] : at[12]].view(np.float64)[:] = (*mean[: k + 1], *std[: k + 1])
        base = buffer.ctypes.data
        address = [base + 8 * offset for offset in at]
        # The arrays the addresses point into, kept alive for the call.
        self._buffer, self._table, self._rng = buffer, table, rng
        self._at, self._shape = at, (n, n_dims, k)
        self._args = (
            table.address, len(table), address[7], address[8], n, n_dims,
            n_ranges, k, int(elitism), None if chosen is None else address[9],
            float(crossover_rate), float(swap_probability),
            float(flip_probability), address[10], address[11], cap, _BLOCK_WORDS,
            *address[:6], address[12], address[13], address[14], address[6],
        )

    def __call__(self) -> tuple:
        """Run the generation: ``(population, fitnesses, scored, stats)``."""
        lib = _load_kernel()
        bit_generator = self._rng.bit_generator
        args = self._args
        with bit_generator.lock:
            lib.repro_generation(
                *args[:17], bit_generator.ctypes.bit_generator, *args[17:]
            )
        buffer, at = self._buffer, self._at
        n, n_dims, k = self._shape
        candidates, stages, rows, words = buffer[at[6] : at[7]].tolist()
        scored = (
            buffer[at[2] : at[3]].reshape(n, k)[:rows],
            buffer[at[3] : at[4]].reshape(n, k)[:rows],
            buffer[at[4] : at[4] + rows],
            buffer[at[5] : at[5] + rows].view(np.float64),
        )
        population = buffer[: at[1]].reshape(n, n_dims)
        return population, buffer[at[1] : at[2]].view(np.float64), scored, {
            "candidates": candidates, "stages": stages, "rows": rows,
            "words_and": words,
        }


class NativeLevel:
    """One streamed block of a brute-force level (Figure 2's ``R_i ⊕
    Q_1``), checked and packed for one C call over a counter's row
    blocks; calling it runs the call.

    *table* is the counter's :class:`BlockTable`; *dims* and *ranges*
    the ``(n, depth)`` integer arrays of the block's parents (dims
    strictly ascending).  Each parent is extended by every ``(dim,
    range)`` with its last dim ``< dim < stop`` (every ``dim < stop`` at
    depth 0), parent by parent, then dim, then range: the lexicographic
    order of :func:`repro.search.brute_force._children`.  The first
    *limit* children (all when ``None``) are counted: the parent's
    cells are ANDed once per row block and each child costs one AND and
    popcount.  A child with count n scores Equation 1, ``(n − mean) /
    sd``, and survives the best set's up-front filter
    (:meth:`~repro.search.best_set.BestProjectionSet.prefilter`): it is
    non-empty when *nonempty*, ``not s > threshold`` and ``not s >=
    worst`` (``+inf`` and NaN filter nothing).

    Calling it returns the survivors' ``(index, counts, coefficients)``:
    their positions among the block's children (ascending), their
    counts and their coefficients.  :attr:`evaluated` is the number of
    children counted.  The proof that this is ``_children`` plus the
    numpy counts, Equation 1 and the filter sits beside the search
    (:func:`repro.search.brute_force._prove_level`).

    Construction refuses, before anything runs: a *table* that is not a
    :class:`BlockTable`, parents that are not one 2-D integer shape
    with ``depth < d``, dims outside ``[0, d)`` or not strictly
    ascending, ranges outside ``[0, φ)``, *stop* outside ``[0, d]``,
    a negative *limit* and moments or bounds that are not real numbers.
    The call raises :class:`~repro.exceptions.ResourceError` when the
    library cannot be loaded.
    """

    def __init__(
        self,
        table: BlockTable,
        dims,
        ranges,
        stop: int,
        *,
        mean: float,
        sd: float,
        nonempty: bool,
        threshold: float,
        worst: float,
        limit: int | None = None,
    ) -> None:
        if not isinstance(table, BlockTable):
            raise ValidationError(
                f"native level needs a BlockTable, got {type(table).__name__}"
            )
        n_dims, n_ranges = table.n_dims, table.n_ranges
        dims, ranges = check_cube_arrays(dims, ranges, n_dims, n_ranges)
        dims = dims.astype(np.int64, copy=False)
        ranges = ranges.astype(np.int64, copy=False)
        n_parents, depth = dims.shape
        if depth >= n_dims or (depth > 1 and (dims[:, 1:] <= dims[:, :-1]).any()):
            raise ValidationError(
                f"native level needs parents of depth < d={n_dims} with "
                f"strictly ascending dims, got shape {dims.shape}"
            )
        if not (isinstance(stop, (int, np.integer)) and 0 <= stop <= n_dims):
            raise ValidationError(
                f"native level needs 0 <= stop <= d={n_dims}, got {stop!r}"
            )
        if limit is not None and not (
            isinstance(limit, (int, np.integer)) and limit >= 0
        ):
            raise ValidationError(
                f"native level needs a limit >= 0 or None, got {limit!r}"
            )
        bounds = (mean, sd, threshold, worst)
        real = (int, float, np.integer, np.floating)
        if not all(isinstance(b, real) for b in bounds):
            raise ValidationError(
                f"native level needs real moments and bounds, got {bounds!r}"
            )
        lo = dims[:, -1] + 1 if depth else np.zeros(n_parents, dtype=np.int64)
        children = int((np.maximum(stop - lo, 0) * n_ranges).sum())
        #: Children counted: the block's, cut at *limit*.
        self.evaluated = n = children if limit is None else min(children, int(limit))
        self.depth = depth
        # One int64 buffer: the parents' cells, the survivors' indices,
        # counts and coefficients and their number, then the routine's
        # scratch (int64 work, uint64 partial AND).
        lengths = (
            n_parents * depth, n, n, n, 1, max(1, 2 * stop * n_ranges),
            max(1, table.max_words),
        )
        at = np.cumsum((0, *lengths)).tolist()
        buffer = np.empty(at[-1], dtype=np.int64)
        parent_cells = buffer[: at[1]].reshape(n_parents, depth)
        np.multiply(dims, n_ranges, out=parent_cells)
        parent_cells += ranges
        address = [buffer.ctypes.data + 8 * offset for offset in at]
        self._buffer, self._table, self._at = buffer, table, at
        self._args = (
            table.address, len(table), n_ranges, address[0], n_parents, depth,
            int(stop), n, int(bool(nonempty)), float(mean), float(sd),
            float(threshold), float(worst), *address[5:7], *address[1:5],
        )

    def __call__(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run the block: the survivors' ``(index, counts, coefficients)``,
        views of this call's buffer."""
        _load_kernel().repro_level(*self._args)
        buffer, at = self._buffer, self._at
        kept = int(buffer[at[4]])
        return (
            buffer[at[1] : at[1] + kept],
            buffer[at[2] : at[2] + kept],
            buffer[at[3] : at[3] + kept].view(np.float64),
        )
