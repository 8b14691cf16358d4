"""Fock-basis enumeration over m modes.

Both state families are listed in lexicographic order of the occupation
vector, e.g. (0,0,2) < (0,1,1) < (1,1,0), so every distribution and golden
file indexes states identically. Written as mode rows c_0 <= ... <= c_{n-1}
(strictly increasing for collision-free states), that order is a run of
blocks by lowest mode c_0, from the highest c_0 down to 0. Within the block
of c_0 the rows without c_0 are the (n-1)-photon rows whose modes all lie
above c_0 (at or above it for full Fock), in their own order; those rows open
the (n-1)-photon order, since their occupation vectors are zero up to c_0.
`first_mode_blocks` states this split and is the one definition of the order:
`expansion_index` builds every level 1..n from the one below by slice copies,
and `enumerate_states` reads the family's occupation vectors off its last
level, so a basis and its index are always built together.
"""
from __future__ import annotations

from math import comb

import numpy as np

from .errors import InstanceTooLargeError, InvalidConfigurationError

COLLISION_FREE = "collision-free"
FULL_FOCK = "full-fock"

DEFAULT_STATE_CAP = 5_000_000

# rows per chunk of the distribution file codec: format_states, the cli writers and readers
FORMAT_CHUNK = 4096
_DIGITS = np.array([str(i) for i in range(256)], dtype=object)


def count_states(m: int, n: int, family: str) -> int:
    if family == COLLISION_FREE:
        return comb(m, n)
    if family == FULL_FOCK:
        return comb(m + n - 1, n)
    raise InvalidConfigurationError(f"unknown state family {family!r}")


def _require_family(m: int, n: int, family: str) -> None:
    if n < 1 or m < 1:
        raise InvalidConfigurationError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    if family == COLLISION_FREE and n > m:
        raise InvalidConfigurationError(f"collision-free family needs n <= m, got n={n}, m={m}")


def enumerate_states(m: int, n: int, family: str):
    """Return (occupations, index), the basis a table over the family is built on.

    index is expansion_index(m, n, family), and occupations, the (K, m) uint8
    occupation vectors in lexicographic order, come from the mode rows of its
    last level. A family the index refuses (a level above DEFAULT_STATE_CAP
    rows) is refused here too.
    """
    index = expansion_index(m, n, family)
    modes = index[-1][0]
    occ = np.zeros((modes.shape[1], m), dtype=np.uint8)
    # each row's flat offset, moved to one photon's cell and back: the cells a
    # photon lands on are distinct, one per row
    flat = np.arange(0, occ.size, m)
    for photon in modes:
        flat += photon
        occ.reshape(-1)[flat] += 1
        flat -= photon
    return occ, index


def first_mode_blocks(m: int, k: int, family: str) -> list[tuple[int, int, int]]:
    """(c0, start, count) of each run of k-photon rows by lowest mode c0, in order.

    The rows whose lowest mode is c0 are rows [start, start + count), with
    start = C(top - c0, k) and count = C(top - c0, k - 1) for top = m - 1
    (m + k - 2 for full Fock): start counts the k-photon rows above c0, count
    the (k - 1)-photon rows above c0 (at or above it for full Fock). Row
    start + j without c0 is row j of level k - 1, as those rows come first.
    """
    count_states(m, k, family)  # refuses an unknown family
    top = m - 1 if family == COLLISION_FREE else m + k - 2
    lowest = m - k if family == COLLISION_FREE else m - 1
    return [(c0, comb(top - c0, k), comb(top - c0, k - 1)) for c0 in range(lowest, -1, -1)]


def expansion_index(m: int, n: int, family: str) -> list[tuple[np.ndarray, np.ndarray]]:
    """(modes, parents) of every level k = 1..n of the family, rows in canonical order.

    modes[t, r] is the mode of photon t of row r (non-decreasing in t), and
    parents[t, r] the row at level k - 1 of row r without photon t; both are
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


def state_cells(occ, end: str):
    """The rows of a (K, m) occupation array as '0:2:1' cells, each row ended
    by end: a (K, 2m) uint8 array, or None when an occupation has two digits."""
    if occ.max(initial=0) >= 10:
        return None
    cells = np.full((occ.shape[0], 2 * occ.shape[1]), ord(":"), dtype=np.uint8)
    cells[:, 0::2] = occ + ord("0")
    cells[:, -1] = ord(end)
    return cells


def format_states(occ) -> list[str]:
    """'0:2:1'-style strings of the rows of a (K, m) occupation array.

    A chunk whose occupations are all single digits is laid out by state_cells
    as one byte buffer, and decoded and split once; occupations of 10 or more
    go through the per-cell digit table.
    """
    out = []
    for start in range(0, len(occ), FORMAT_CHUNK):
        chunk = occ[start:start + FORMAT_CHUNK]
        cells = state_cells(chunk, "\n")
        if cells is not None:
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
