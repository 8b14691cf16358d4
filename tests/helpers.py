"""References shared by the test modules, built without the code under test."""
import json
from itertools import combinations, combinations_with_replacement

import numpy as np

from scattershot.distribution import sample_event_indices
from scattershot.states import COLLISION_FREE, count_states
from scattershot.supremacy import GENERALIZED


def reference_enumeration(m, n, family):
    """(occupations, modes) of the family from itertools, in the canonical order.

    modes is the (K, n) int32 array of each state's photon modes, ascending;
    itertools lists rows in reverse lexicographic order of their occupation
    vectors, so the rows are reversed.
    """
    gen = combinations if family == COLLISION_FREE else combinations_with_replacement
    total = count_states(m, n, family)
    modes = np.fromiter(
        (i for tup in gen(range(m), n) for i in tup), dtype=np.int32, count=total * n
    ).reshape(total, n)
    modes = modes[::-1].copy()
    occ = np.zeros((total, m), dtype=np.uint8)
    np.add.at(occ, (np.repeat(np.arange(total), n), modes.ravel()), 1)
    return occ, modes


def reference_rows(m, n, family):
    """{mode tuple: row} of the family in the canonical order."""
    _, modes = reference_enumeration(m, n, family)
    return {tuple(row): i for i, row in enumerate(modes.tolist())}


def matrix_json(a):
    """The {"m", "re", "im"} matrix document that `--unitary` and `--matrix` read."""
    a = np.asarray(a, dtype=np.complex128)
    return json.dumps({"m": a.shape[0], "re": a.real.tolist(), "im": a.imag.tolist()})


def sample_events(dist, seed, count):
    """I.i.d. sampled occupation vectors, (count, m), the rows of `sample_event_indices`."""
    return dist.states[sample_event_indices(dist, seed, count)]


def crossing_modes(points, event_class=GENERALIZED):
    """Smallest m where the class ratio first reaches 1, scanning ascending m."""
    rows = sorted((p for p in points if p.event_class == event_class), key=lambda p: p.m)
    return next((p.m for p in rows if p.ratio >= 1.0), None)
