"""The shortest-repr kernel and the distribution writers built on it."""
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from scattershot import __version__
from scattershot import states as st
from scattershot._shortest import format_rows
from scattershot.cli import (
    _meta_lines,
    _write_text,
    distribution_csv_parts,
    distribution_json_parts,
    distribution_to_csv,
    distribution_to_json,
)
from scattershot.distribution import OutputDistribution


def _reprs(values) -> str:
    return "".join(repr(float(v)) + "\n" for v in values)


def _format(values, block=st.FORMAT_CHUNK) -> str:
    return "".join(format_rows(values[i:i + block]) for i in range(0, len(values), block))


finite = hst.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=500, deadline=None)
@given(x=finite)
def test_kernel_text_is_repr_property(x):
    assert format_rows(np.array([x])) == repr(x) + "\n"


@settings(max_examples=200, deadline=None)
@given(xs=hst.lists(finite, min_size=1, max_size=40))
def test_kernel_block_of_mixed_values_is_repr_property(xs):
    # a block's slot widths follow its widest value; each row keeps its own text
    assert format_rows(np.array(xs)) == _reprs(xs)


def test_kernel_matches_repr_on_a_million_bit_patterns():
    rng = np.random.default_rng(20180618)
    bits = rng.integers(0, 2**64, size=1_000_000, dtype=np.uint64, endpoint=False)
    # a quarter subnormal: biased exponent 0
    bits[::4] &= np.uint64((1 << 63) | ((1 << 52) - 1))
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    assert _format(values) == _reprs(values)


BOUNDARIES = [
    1e-4, 1e-5, 1e16, 1e17, 9999999999999998.0, 1e16 - 2.0, 0.0001, 0.00001,
    5e-324, 1e-323, 2.2250738585072014e-308, 2.225073858507201e-308,
    1.7976931348623157e308, 1e308, 1e-300, 1e100, 1e-100, 123456789012345680.0,
    0.0, 1.0, 0.5, 0.1, 0.2, 0.3, 2.0 / 3.0, 100.0, 1e15, 123.456, 9.5, 2.0**53, 2.0**54 + 4,
]


def test_kernel_notation_boundaries():
    values = []
    for x in BOUNDARIES:
        values += [x, -x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)]
    values = np.array([v for v in values if math.isfinite(v)])
    assert _format(values) == _reprs(values)
    assert format_rows(np.array([1e-4, 1e-5, 1e16, 1e17])) == "0.0001\n1e-05\n1e+16\n1e+17\n"


def test_kernel_powers_and_short_decimals():
    values = np.array([2.0**k for k in range(-1074, 1024)] + [10.0**k for k in range(-323, 309)]
                      + [d * 10.0**k for d in range(1, 1000) for k in range(-25, 25)])
    assert _format(values) == _reprs(values)


def test_kernel_prefix_and_end():
    prefix = np.frombuffer(b"ab,cd,", dtype=np.uint8).reshape(2, 3)
    assert format_rows(np.array([0.25, -3e-7]), prefix, end=";") == "ab,0.25;cd,-3e-07;"


def test_kernel_refuses_non_finite_values():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            format_rows(np.array([1.0, bad]))


# ---------------------------------------------------- writers at block edges


def _parent_csv(dist, command, config):
    """The chunked CSV writer the block writer replaced: map(repr, ...) per chunk."""
    header = (f"# m={dist.m} n={dist.n_detected} family={dist.family} "
              f"renormalized={dist.renormalized} raw_mass={float(dist.raw_mass)!r}\n"
              "state,probability")
    chunks = []
    for start in range(0, len(dist), st.FORMAT_CHUNK):
        rows = slice(start, start + st.FORMAT_CHUNK)
        chunks.append("\n".join(map(",".join, zip(st.format_states(dist.states[rows]),
                                                  map(repr, dist.probs[rows].tolist())))))
    return "\n".join([*_meta_lines(command, config), header, *chunks]) + "\n"


def _parent_json(dist, command, config):
    doc = {
        "meta": {"version": __version__, "command": command, "config": config},
        "m": dist.m, "n": dist.n_detected, "family": dist.family,
        "renormalized": dist.renormalized, "raw_mass": dist.raw_mass,
        "states": st.format_states(dist.states), "probs": dist.probs.tolist(),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _table(m, n, family, size, seed):
    occ, _ = st.enumerate_states(m, n, family)
    assert len(occ) > size
    rng = np.random.default_rng(seed)
    # magnitudes from 1e-14 to 1, exact zeros, and a 1.0
    probs = rng.random(size) * 10.0 ** rng.integers(-14, 1, size)
    probs[::97] = 0.0
    probs[size // 2] = 1.0
    return OutputDistribution(m, n, family, occ[:size], probs, 0.123456789, False)


@pytest.mark.parametrize("size", [st.FORMAT_CHUNK - 1, st.FORMAT_CHUNK, st.FORMAT_CHUNK + 1])
@pytest.mark.parametrize("m,n,family", [(16, 5, st.COLLISION_FREE), (3, 90, st.FULL_FOCK)])
def test_writers_match_parent_writers_at_block_edges(size, m, n, family):
    dist = _table(m, n, family, size, seed=size)
    config = {"m": m, "input": "generated"}
    assert distribution_to_csv(dist, "distribution", config) == _parent_csv(
        dist, "distribution", config)
    assert distribution_to_json(dist, "distribution", config) == _parent_json(
        dist, "distribution", config)


# tracemalloc peak of writing the 77520-row m=20, n=7 table through the CLI
# path; the whole-file writers peaked at 14.5 MB (CSV) and 20.1 MB (JSON), the
# block writers stream about 2 MB
WRITE_PEAK_BYTES = 3_000_000


@pytest.mark.parametrize("parts", [distribution_csv_parts, distribution_json_parts])
def test_writing_a_large_table_is_memory_bounded(tmp_path, parts):
    occ, _ = st.enumerate_states(20, 7, st.COLLISION_FREE)
    probs = np.random.default_rng(0).random(len(occ))
    probs /= probs.sum()
    dist = OutputDistribution(20, 7, st.COLLISION_FREE, occ, probs, 1.0, True)
    tracemalloc.start()
    try:
        _write_text(str(tmp_path / "d"), parts(dist, "distribution", {}))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= WRITE_PEAK_BYTES
    assert (tmp_path / "d").read_text() == "".join(parts(dist, "distribution", {}))
