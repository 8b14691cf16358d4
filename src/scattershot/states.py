"""Fock-basis enumeration over m modes.

Both state families are enumerated in lexicographic order of the occupation
vector, e.g. (0,0,2) < (0,1,1) < (1,1,0), so every distribution and golden
file indexes states identically.
"""
from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from math import comb

import numpy as np

from .errors import InstanceTooLargeError, InvalidConfigurationError

COLLISION_FREE = "collision-free"
FULL_FOCK = "full-fock"

DEFAULT_STATE_CAP = 5_000_000


def count_states(m: int, n: int, family: str) -> int:
    if family == COLLISION_FREE:
        return comb(m, n)
    if family == FULL_FOCK:
        return comb(m + n - 1, n)
    raise InvalidConfigurationError(f"unknown state family {family!r}")


def enumerate_states(m: int, n: int, family: str, cap: int = DEFAULT_STATE_CAP):
    """Return (occupations, modes) for every n-photon state of the family.

    occupations: (K, m) uint8 array of occupation vectors, lexicographic.
    modes: (K, n) int32 array of the repeated mode index of each photon.
    """
    if n < 1 or m < 1:
        raise InvalidConfigurationError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    if family == COLLISION_FREE and n > m:
        raise InvalidConfigurationError(f"collision-free family needs n <= m, got n={n}, m={m}")
    total = count_states(m, n, family)
    if total > cap:
        raise InstanceTooLargeError(
            f"{family} family for m={m}, n={n} has {total} states, cap is {cap}"
        )
    gen = combinations if family == COLLISION_FREE else combinations_with_replacement
    modes = np.fromiter(
        (i for tup in gen(range(m), n) for i in tup), dtype=np.int32, count=total * n
    ).reshape(total, n)
    # index-tuple lexicographic order is exactly reversed occupation-vector order
    modes = modes[::-1].copy()
    occ = np.zeros((total, m), dtype=np.uint8)
    np.add.at(occ, (np.repeat(np.arange(total), n), modes.ravel()), 1)
    return occ, modes


def collision_free_ranks(modes, m: int) -> np.ndarray:
    """Position of each mode row in the collision-free enumerate_states order.

    modes: (K, k) mode indices, ascending within each row. A row whose modes
    are c_0 < ... < c_{k-1} sits at sum_i C(m-1-c_i, k-i) (the combinatorial
    number system); a row with a repeated mode gets -1.
    """
    modes = np.asarray(modes)
    k = modes.shape[1]
    table = np.array([[comb(v, k - i) for v in range(m)] for i in range(k)], dtype=np.int64)
    ranks = np.zeros(modes.shape[0], dtype=np.int64)
    for i in range(k):
        ranks += table[i, m - 1 - modes[:, i]]
    ranks[np.any(modes[:, 1:] == modes[:, :-1], axis=1)] = -1
    return ranks


def state_to_string(state) -> str:
    return ":".join(str(int(k)) for k in state)


def state_from_string(text: str) -> np.ndarray:
    try:
        occ = np.array([int(tok) for tok in text.split(":")], dtype=np.int64)
    except ValueError as exc:
        raise InvalidConfigurationError(f"bad state string {text!r}") from exc
    if occ.size == 0 or np.any(occ < 0):
        raise InvalidConfigurationError(f"bad state string {text!r}")
    return occ
