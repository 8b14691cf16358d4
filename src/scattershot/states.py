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


def enumerate_states(m: int, n: int, family: str):
    """Return (occupations, modes) for every n-photon state of the family.

    occupations: (K, m) uint8 array of occupation vectors, lexicographic.
    modes: (K, n) int32 array of the repeated mode index of each photon.
    """
    if n < 1 or m < 1:
        raise InvalidConfigurationError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    if family == COLLISION_FREE and n > m:
        raise InvalidConfigurationError(f"collision-free family needs n <= m, got n={n}, m={m}")
    total = count_states(m, n, family)
    if total > DEFAULT_STATE_CAP:
        raise InstanceTooLargeError(
            f"{family} family for m={m}, n={n} has {total} states, cap is {DEFAULT_STATE_CAP}"
        )
    table, shift = _rank_table(m, n, family)
    top = table.shape[1] - 1
    rest = np.arange(total, dtype=np.int64)
    modes = np.empty((total, n), dtype=np.int32)
    occ = np.zeros((total, m), dtype=np.uint8)
    rows = np.arange(total)
    for i in range(n):
        # largest v with C(v, n-i) <= rest: the greedy digit of the number system
        v = np.searchsorted(table[i], rest, side="right") - 1
        rest -= table[i, v]
        modes[:, i] = top - shift[i] - v
        occ[rows, modes[:, i]] += 1
    return occ, modes


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
