"""Exact matrix permanents.

Glynn's formula sums 2^(n-1) signed products of column sums, one per sign
vector (1, d_1, ..., d_{n-1}). `_glynn_sums` builds the column sums of all
2^r sign vectors over r rows by doubling: each sum is one subtraction away
from one built before it, so a table costs O(n 2^r) with no Gray walk.

One driver evaluates every Glynn permanent. The table is cut into fixed
segments of sign vectors, as many per segment as keep the temporaries within
SEGMENT_BYTES (a function of n and the dtype only). A segment fixes the signs
of the top rows, builds the table of the others from that base, and sums its
products with the sign as one more factor. Signed partials are reduced in
segment order, so serial and parallel evaluation share one summation tree and
return bit-identical results for any partition count. Reductions are
elementwise, never through BLAS.

Glynn serves single permanents (`permanent`, `bs_probability`,
`distinguishable_probability`). Whole distribution tables do not come from
here: distribution.py builds every minor of a column block at once by a
memoized Laplace expansion over output row sets, which shares the work that
patterns differing by one photon have in common.

The independent small-n oracle sums over permutations by the memoized row
(Laplace) expansion over column subsets, O(n^2 2^n): it shares no sign
vectors and no code with Glynn beyond the input check.
"""
from __future__ import annotations

import functools
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, InvalidDimensionError, OracleScaleExceededError

NAIVE_MAX_N = 10
GLYNN_MAX_N = 30
# cap on the temporaries of one Glynn segment: large, because a segment costs
# ~20 numpy calls whose Python overhead holds the GIL between the numpy work
SEGMENT_BYTES = 8 << 20
# numpy copies an operand through its ufunc buffer (8192 elements by default)
# when the inner loop is much shorter than the buffer; the early doubling
# steps have short inner loops and run faster without those copies
UFUNC_BUFSIZE = 256


def _require_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise InvalidDimensionError(f"permanent needs a square matrix, got shape {a.shape}")
    return np.ascontiguousarray(a, dtype=np.complex128)


def permanent_naive(a: np.ndarray) -> complex:
    """Permutation-sum permanent by the memoized row expansion, the n <= 10 oracle.

    f[S] = sum_{j in S} a[|S|-1, j] f[S - {j}] over column subsets S, with
    f[{}] = 1 and per(a) = f[all columns]: each permutation's product is built
    row by row, and permutations that agree on their first rows share it.
    Subsets are bitmasks; for column j, a (-1, 2, 2^j) view of the table pairs
    every subset without j (middle index 0) with the one that adds it (1).
    """
    a = _require_square(a)
    n = a.shape[0]
    if n > NAIVE_MAX_N:
        raise OracleScaleExceededError(f"naive permanent capped at n={NAIVE_MAX_N}, got {n}")
    f = np.zeros(1 << n, np.complex128)
    f[0] = 1.0
    for row in a:
        g = np.zeros_like(f)
        for j in range(n):
            g.reshape(-1, 2, 1 << j)[:, 1] += row[j] * f.reshape(-1, 2, 1 << j)[:, 0]
        f = g
    return complex(f[-1])


@functools.lru_cache(maxsize=None)
def _signs(bits: int) -> np.ndarray:
    """(-1)^popcount(k) for k < 2^bits: the Glynn sign of table entry k."""
    s = np.ones(1 << bits)
    for i in range(bits):
        np.negative(s[: 1 << i], out=s[1 << i : 2 << i])
    s.flags.writeable = False
    return s


def _glynn_sums(base: np.ndarray, steps: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Glynn column sums of all 2^r sign vectors over r rows, by doubling.

    `base` (n, ...) is the column sum with every sign +1 and `steps`
    (r, n, ...) holds twice each of the r rows. Entry k of `out`, of shape
    (n, 2^r, ...), is the sum in which row i enters with sign -1 exactly
    where bit i of k is set: the entries with top bit i are those below 2^i
    minus steps[i], one subtraction each.
    """
    out[:, 0] = base
    s = 1
    for step in steps:
        np.subtract(out[:, :s], step[:, None], out=out[:, s : 2 * s])
        s *= 2
    return out


def _glynn(a: np.ndarray, partitions: int):
    """Glynn permanent of one (n, n) matrix; real input gives a real result.

    Each job is one segment: the bits of the segment fix the signs of the
    rows above `bits`, and the table of rows 1..bits is built from that base
    by doubling. Signed partials are added in segment order whatever the
    pool width.
    """
    n = a.shape[0]
    if n > GLYNN_MAX_N:
        raise InvalidDimensionError(f"glynn permanent capped at n={GLYNN_MAX_N}, got {n}")
    dtype = np.dtype(np.complex128 if np.iscomplexobj(a) else np.float64)
    rows = np.asarray(a, dtype)
    if n == 1:
        return rows[0, 0]
    # sign bits per segment: the most whose n + 2 rows of 2^bits fit SEGMENT_BYTES
    # (the table and its products take n + 1)
    bits = min(n - 1, (SEGMENT_BYTES // ((n + 2) * dtype.itemsize)).bit_length() - 1)
    twice = 2.0 * rows
    segments = range(1 << (n - 1 - bits))

    def job(seg):
        base = rows.sum(axis=0)
        for i in range(n - 1 - bits):
            if seg >> i & 1:
                base -= twice[bits + 1 + i]
        t = np.empty((n, 1 << bits), dtype)
        p = np.multiply.reduce(_glynn_sums(base, twice[1 : bits + 1], t), axis=0)
        p *= _signs(bits)  # the sign is the last factor of each product
        v = p.sum()
        return -v if bin(seg).count("1") & 1 else v

    # os.cpu_count() costs a few microseconds, more than a small serial call
    workers = 1 if partitions == 1 else min(partitions, len(segments), os.cpu_count() or 1)
    pool = None
    if workers > 1:
        pool = ThreadPoolExecutor(workers, initializer=np.setbufsize, initargs=(UFUNC_BUFSIZE,))
    total = dtype.type(0)
    old = np.setbufsize(UFUNC_BUFSIZE)
    try:
        for v in (pool.map if pool else map)(job, segments):
            total += v
    finally:
        np.setbufsize(old)
        if pool:
            pool.shutdown()
    return total * 2.0 ** (1 - n)


def permanent_glynn(a: np.ndarray) -> complex:
    """Permanent by Glynn's 2^(n-1)-term formula, O(n 2^n)."""
    return complex(_glynn(_require_square(a), 1))


def permanent_glynn_parallel(a: np.ndarray, partitions: int) -> complex:
    """Glynn permanent with segments evaluated by a worker pool.

    The fixed segmentation makes the result bit-identical to permanent_glynn
    for every partition count; `partitions`, capped at the CPU count, only
    sets the pool width.
    """
    if partitions < 1:
        raise InvalidDimensionError(f"partitions must be >= 1, got {partitions}")
    return complex(_glynn(_require_square(a), partitions))


@dataclass
class TimingModel:
    """Fit of wall time t(n) = A * n * 2^(B n)."""

    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise InsufficientDataError(f"timing model needs A, B > 0, got {self.a}, {self.b}")

    def predict(self, n: int) -> float:
        return self.a * n * 2.0 ** (self.b * n)


def fit_timing_model(measurements) -> TimingModel:
    """Least squares of log(t/n) = log A + B n log 2 over (n, seconds) pairs."""
    pts = [(int(n), float(t)) for n, t in measurements]
    if len({n for n, _ in pts}) < 3:
        raise InsufficientDataError("timing fit needs at least 3 distinct n")
    ns = np.array([n for n, _ in pts], dtype=np.float64)
    ys = np.log(np.array([t for _, t in pts])) - np.log(ns)
    slope, intercept = np.polyfit(ns, ys, 1)
    return TimingModel(a=float(np.exp(intercept)), b=float(slope / np.log(2.0)))


def measure_glynn_times(ns, seed: int = 0, repeats: int = 3):
    """Best-of-`repeats` wall times of permanent_glynn on random matrices.

    Returns a list of (n, seconds). One small call and one untimed call per
    size come first, so first-call costs (imports, allocator growth, cold
    caches) stay out of the measurements. Each of the `repeats` rounds then
    times every size once, so a short burst of outside load spoils one
    sample of a few sizes rather than every sample of one size.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    warm = rng.random((4, 4)) + 1j * rng.random((4, 4))
    permanent_glynn(warm)
    ns = [int(n) for n in ns]
    mats = [rng.random((n, n)) + 1j * rng.random((n, n)) for n in ns]
    for a in mats:
        permanent_glynn(a)  # untimed pre-pass per size
    best = [math.inf] * len(ns)
    for _ in range(repeats):
        for i, a in enumerate(mats):
            t0 = time.perf_counter()
            permanent_glynn(a)
            best[i] = min(best[i], time.perf_counter() - t0)
    return list(zip(ns, best))
