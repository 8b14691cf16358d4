"""Fock-basis enumeration over m modes.

Both state families are listed in lexicographic order of the occupation
vector, e.g. (0,0,2) < (0,1,1) < (1,1,0), so every distribution and golden
file indexes states identically. The order is defined by the rank: a
collision-free state with occupied modes c_0 < ... < c_{n-1} sits at
sum_i C(m-1-c_i, n-i) (the combinatorial number system). A full-Fock state
with modes c_0 <= ... <= c_{n-1} is ranked as the collision-free state
c_i + i over m + n - 1 modes ("stars and bars"), which keeps the same
lexicographic order. One table of binomials serves both directions:
`state_ranks` ranks mode rows and `enumerate_states` unranks 0..K-1.

Both ranks split at the lowest mode c_0: the rank of a k-photon row is
C(d_0, k) plus the rank at k - 1 photons of the row without c_0, with
d_0 = m-1-c_0 (m+k-2-c_0 for full Fock). So each family is a run of blocks by
first mode (`first_mode_blocks`), and `expansion_index` builds every level
1..n from the one below by slice copies.
"""
from __future__ import annotations

from math import comb

import numpy as np

from .errors import InstanceTooLargeError, InvalidConfigurationError

COLLISION_FREE = "collision-free"
FULL_FOCK = "full-fock"

DEFAULT_STATE_CAP = 5_000_000

# rows per chunk of the distribution file codec: format_states and the cli readers
FORMAT_CHUNK = 4096
_DIGITS = np.array([str(i) for i in range(256)], dtype=object)


def count_states(m: int, n: int, family: str) -> int:
    if family == COLLISION_FREE:
        return comb(m, n)
    if family == FULL_FOCK:
        return comb(m + n - 1, n)
    raise InvalidConfigurationError(f"unknown state family {family!r}")


def _rank_table(m: int, n: int, family: str) -> tuple[np.ndarray, np.ndarray]:
    """(table, shift) of the rank: table[i, v] = min(C(v, n-i), K) over the
    m' = m (+ n - 1 for full Fock) shifted modes, and shift[i] the amount
    added to the i-th mode of a row (i for full Fock, else 0).

    Clipping at the family size K changes no valid rank (each of its terms is
    below K) and keeps every entry within int64.
    """
    total = count_states(m, n, family)
    shift = np.arange(n) if family == FULL_FOCK else np.zeros(n, dtype=np.int64)
    width = m + n - 1 if family == FULL_FOCK else m
    table = np.array(
        [[min(comb(v, n - i), total) for v in range(width)] for i in range(n)], dtype=np.int64
    )
    return table, shift


def _require_family(m: int, n: int, family: str) -> None:
    if n < 1 or m < 1:
        raise InvalidConfigurationError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    if family == COLLISION_FREE and n > m:
        raise InvalidConfigurationError(f"collision-free family needs n <= m, got n={n}, m={m}")


def enumerate_states(m: int, n: int, family: str):
    """Return (occupations, modes) for every n-photon state of the family.

    occupations: (K, m) uint8 array of occupation vectors, lexicographic.
    modes: (K, n) int32 array of the repeated mode index of each photon.
    """
    _require_family(m, n, family)
    total = count_states(m, n, family)
    if total > DEFAULT_STATE_CAP:
        raise InstanceTooLargeError(
            f"{family} family for m={m}, n={n} has {total} states, cap is {DEFAULT_STATE_CAP}"
        )
    table, shift = _rank_table(m, n, family)
    top = table.shape[1] - 1
    rest = np.arange(total, dtype=np.int64)
    modes = np.empty((total, n), dtype=np.int32)
    for i in range(n):
        # largest v with C(v, n-i) <= rest: the greedy digit of the number system
        v = np.searchsorted(table[i], rest, side="right") - 1
        rest -= table[i, v]
        modes[:, i] = top - shift[i] - v
    return occupations(modes.T, m), modes


def occupations(modes, m: int) -> np.ndarray:
    """(K, m) uint8 occupation vectors of K mode rows given photon by photon, (n, K)."""
    occ = np.zeros((modes.shape[1], m), dtype=np.uint8)
    rows = np.arange(modes.shape[1])
    for photon in modes:
        occ[rows, photon] += 1
    return occ


def state_ranks(modes, m: int, family: str) -> np.ndarray:
    """Position of each mode row in the enumerate_states order of the family.

    modes: (N, n) mode indices in [0, m), non-decreasing within each row. A
    collision-free row with a repeated mode gets -1.
    """
    modes = np.asarray(modes)
    n = modes.shape[1]
    table, shift = _rank_table(m, n, family)
    top = table.shape[1] - 1
    ranks = np.zeros(modes.shape[0], dtype=np.int64)
    for i in range(n):
        ranks += table[i, top - shift[i] - modes[:, i]]
    if family == COLLISION_FREE:
        ranks[np.any(modes[:, 1:] == modes[:, :-1], axis=1)] = -1
    return ranks


def first_mode_blocks(m: int, k: int, family: str) -> list[tuple[int, int, int]]:
    """(c0, start, count) of each run of k-photon rows by lowest mode c0, in rank order.

    The rows whose lowest mode is c0 hold ranks [start, start + count), with
    start = C(d0, k) and count = C(d0, k - 1). Row start + j without c0 is
    row j of level k - 1: the remainders are exactly the rows whose modes lie
    above c0 (at or above it for full Fock), and those rank first.
    """
    count_states(m, k, family)  # refuses an unknown family
    top = m - 1 if family == COLLISION_FREE else m + k - 2
    lowest = m - k if family == COLLISION_FREE else m - 1
    return [(c0, comb(top - c0, k), comb(top - c0, k - 1)) for c0 in range(lowest, -1, -1)]


def expansion_index(m: int, n: int, family: str) -> list[tuple[np.ndarray, np.ndarray]]:
    """(modes, parents) of every level k = 1..n of the family, rows in rank order.

    modes[t, r] is the mode of photon t of row r (non-decreasing in t), and
    parents[t, r] the rank at level k - 1 of row r without photon t; both are
    (k, K_k), modes of the smallest unsigned type that holds m - 1 and parents
    int32. Level k is copied block by block from level k - 1 (see
    first_mode_blocks). A family with a level of more than DEFAULT_STATE_CAP
    rows is refused before anything is allocated: collision-free levels peak
    at k = m/2, full-Fock levels at k = n.
    """
    _require_family(m, n, family)
    sizes = [count_states(m, k, family) for k in range(1, n + 1)]
    if max(sizes) > DEFAULT_STATE_CAP:
        raise InstanceTooLargeError(
            f"{family} expansion for m={m}, n={n} has a level of {max(sizes)} rows, "
            f"cap is {DEFAULT_STATE_CAP}"
        )
    mode_type = np.min_scalar_type(m - 1)
    modes = np.zeros((0, 1), dtype=mode_type)  # level 0: the empty row
    parents = np.zeros((0, 1), dtype=np.int32)
    starts = {}
    levels = []
    for k, size in enumerate(sizes, start=1):
        up_modes = np.empty((k, size), dtype=mode_type)
        up_parents = np.empty((k, size), dtype=np.int32)
        blocks = first_mode_blocks(m, k, family)
        for c0, start, count in blocks:
            rows = slice(start, start + count)
            up_modes[0, rows] = c0
            up_modes[1:, rows] = modes[:, :count]
            up_parents[0, rows] = np.arange(count)
            # without photon t >= 1 the row keeps c0: block c0 of level k - 1
            up_parents[1:, rows] = parents[:, :count] + starts.get(c0, 0)
        modes, parents = up_modes, up_parents
        starts = {c0: start for c0, start, _ in blocks}
        levels.append((modes, parents))
    return levels


def format_states(occ) -> list[str]:
    """'0:2:1'-style strings of the rows of a (K, m) occupation array.

    A chunk whose occupations are all single digits is laid out as one byte
    buffer of digit and ':' cells with '\\n' at each row end, and decoded and
    split once; occupations of 10 or more go through the per-cell digit table.
    """
    out = []
    for start in range(0, len(occ), FORMAT_CHUNK):
        chunk = occ[start:start + FORMAT_CHUNK]
        if chunk.max() < 10:
            cells = np.full((chunk.shape[0], 2 * chunk.shape[1]), ord(":"), dtype=np.uint8)
            cells[:, 0::2] = chunk + ord("0")
            cells[:, -1] = ord("\n")
            out.extend(cells.tobytes().decode("ascii").split("\n")[:-1])
        else:
            out.extend(":".join(row) for row in _DIGITS[chunk].tolist())
    return out


def state_from_string(text: str) -> np.ndarray:
    try:
        occ = np.array([int(tok) for tok in text.split(":")], dtype=np.int64)
    except ValueError as exc:
        raise InvalidConfigurationError(f"bad state string {text!r}") from exc
    if occ.size == 0 or np.any(occ < 0):
        raise InvalidConfigurationError(f"bad state string {text!r}")
    return occ
