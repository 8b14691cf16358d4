"""The lean CSV distribution reader against the line-list reader it replaced."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from scattershot import states as st
from scattershot.cli import UsageError, _decode_states, _read_text, distribution_from_file
from scattershot.distribution import OutputDistribution
from scattershot.errors import ScattershotError


def _line_list_reader(text, path):
    """The reader before the lean pass: str.splitlines, two list filters, and a
    join, ',' count and split per chunk."""
    lines = text.splitlines()
    header = {}
    for line in [ln for ln in lines if ln[:1] == "#"]:
        for tok in line[1:].split():
            key, sep, value = tok.partition("=")
            if sep:
                header[key] = value
    required = {"m", "n", "family", "renormalized", "raw_mass"}
    if not required <= header.keys():
        raise UsageError(f"distribution CSV header missing {required - header.keys()}")
    try:
        m, n, raw_mass = int(header["m"]), int(header["n"]), float(header["raw_mass"])
    except ValueError as exc:
        raise UsageError(f"malformed distribution CSV header in {path}: {exc}") from exc
    if header["renormalized"] not in ("True", "False"):
        raise UsageError(f"distribution CSV header in {path}: renormalized must be True or "
                         f"False, got {header['renormalized']!r}")
    rows = [ln for ln in lines if ln and not ln.startswith(("#", "state,"))]
    if not rows:
        raise UsageError(f"distribution {path} lists no states")
    if m < 1 or 2 * m * len(rows) > len(text):
        raise UsageError(f"distribution {path} has a blank state or one whose length is not m={m}")
    occ = np.empty((len(rows), m), dtype=np.uint8)
    probs = np.empty(len(rows), dtype=np.float64)
    for start in range(0, len(rows), st.FORMAT_CHUNK):
        part = rows[start:start + st.FORMAT_CHUNK]
        bad = next((row for row in part if row.count(",") != 1), None)
        if bad is not None:
            raise UsageError(f"malformed distribution row {bad!r} in {path}: "
                             "it needs exactly one ','")
        cells = "\n".join(part).replace("\n", ",").split(",")
        for row, cell in zip(part, cells[1::2]):
            try:
                float(cell)
            except ValueError as exc:
                raise UsageError(f"malformed distribution row {row!r} in {path}") from exc
        probs[start:start + len(part)] = list(map(float, cells[1::2]))
        occ[start:start + len(part)] = _decode_states(cells[0::2], m, n, path)
    return OutputDistribution(
        m=m, n_detected=n, family=header["family"], states=occ, probs=probs,
        raw_mass=raw_mass, renormalized=header["renormalized"] == "True",
    )


def _outcome(read):
    try:
        dist = read()
    except (UsageError, ScattershotError) as exc:
        return type(exc).__name__, str(exc)
    return dist.m, dist.n_detected, dist.family, dist.raw_mass, dist.renormalized, \
        dist.states.tolist(), dist.probs.tolist()


def _assert_same_reading(tmp_path, text):
    path = tmp_path / "d.csv"
    path.write_text(text, newline="")
    want = _outcome(lambda: _line_list_reader(_read_text(str(path), "distribution"), str(path)))
    assert _outcome(lambda: distribution_from_file(str(path))) == want


def _rows(m, n, count, seed):
    occ, _ = st.enumerate_states(m, n, st.FULL_FOCK)
    occ = occ[:count]
    probs = np.random.default_rng(seed).random(len(occ))
    probs /= probs.sum()
    return [f"{s},{float(p)!r}" for s, p in zip(st.format_states(occ), probs)]


HEADER = ["# scattershot 0.1.0", "# m=3 n=2 family=full-fock renormalized=True raw_mass=1.0",
          "state,probability"]
# line ends str.splitlines knows
ENDS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
# lines the reader skips or reads into the header, and rows it refuses
EXTRAS = ["", "# a comment", "# raw_mass=0.5", "state,probability", "  ", "s", "0:2:0",
          "0:2:0,0.5,0.5", "0:x:2,0.5", "0:2:0,nan", "0:2:0, 0.5 ", "1:1:0,\u0661.5",
          "0:0:1:1,0.5", "0:2:0,1_0", "#m=3", "state,", "0:2:0,0x1p-2"]


@settings(max_examples=300, deadline=None)
@given(data=hst.data())
def test_reader_matches_line_list_reader_property(tmp_path_factory, data):
    rows = _rows(3, 2, 6, data.draw(hst.integers(0, 5)))
    lines = HEADER + rows
    for _ in range(data.draw(hst.integers(0, 3))):
        at = data.draw(hst.integers(0, len(lines)))
        lines.insert(at, data.draw(hst.sampled_from(EXTRAS)))
    ends = data.draw(hst.lists(hst.sampled_from(ENDS), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if data.draw(hst.booleans()):
        text = text.rstrip("".join(ENDS))
    _assert_same_reading(tmp_path_factory.mktemp("csv"), text)


@pytest.mark.parametrize("first,second", [("0:2:0,x", "0:2:0,0.5,0.5"),
                                          ("0:2:0,0.5,0.5", "0:2:0,x"),
                                          ("0:2:9,0.5", "0:2:0,x"),
                                          (None, "0:2:0"),
                                          (None, "# late,comment")])
def test_reader_reports_the_first_bad_chunk_like_the_line_list_reader(tmp_path, first, second):
    # rows in two chunks: which error wins depends on the chunk order
    rows = _rows(3, 90, st.FORMAT_CHUNK + 20, 7)
    if first is not None:
        rows[10] = first
    rows[st.FORMAT_CHUNK + 5] = second
    header = "# m=3 n=90 family=full-fock renormalized=True raw_mass=1.0\nstate,probability\n"
    _assert_same_reading(tmp_path, header + "\n".join(rows) + "\n")
