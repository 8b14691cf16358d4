import argparse
import dataclasses
import json
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from helpers import matrix_json, sample_events

from scattershot import __version__, sources
from scattershot import states as st
from scattershot.cli import (
    CONFIG_KEYS,
    SCHEDULE_KEYS,
    UsageError,
    _meta_lines,
    _parse_states,
    build_parser,
    distribution_from_file,
    distribution_to_csv,
    distribution_to_json,
    main,
)
from scattershot.distribution import (
    LossConfig,
    OutputDistribution,
    full_distribution,
    lossy_distribution,
)
from scattershot.linalg import haar_random_unitary
from scattershot.supremacy import (
    constant_eta_schedule,
    linear_eta_schedule,
    supremacy_sweep_spdc,
)


@pytest.fixture
def ones_matrix(tmp_path):
    path = tmp_path / "ones.json"
    path.write_text(matrix_json(np.ones((4, 4), dtype=complex)))
    return str(path)


@pytest.fixture
def spdc_config(tmp_path):
    path = tmp_path / "spdc.json"
    path.write_text(json.dumps(SPDC_CONFIG))
    return str(path)


@pytest.fixture
def qd_config(tmp_path):
    path = tmp_path / "qd.json"
    path.write_text(json.dumps(QD_CONFIG))
    return str(path)


@pytest.fixture
def mw_config(tmp_path):
    path = tmp_path / "mw.json"
    path.write_text(json.dumps(MW_CONFIG))
    return str(path)


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "scattershot" in capsys.readouterr().out


def test_permanent_all_ones(ones_matrix, capsys):
    assert main(["permanent", "--matrix", ones_matrix]) == 0
    out = capsys.readouterr().out.split()
    assert float(out[0]) == pytest.approx(24.0, rel=1e-12)
    assert float(out[1]) == pytest.approx(0.0, abs=1e-12)


def test_permanent_methods_agree(ones_matrix, capsys):
    main(["permanent", "--matrix", ones_matrix, "--method", "naive"])
    naive = capsys.readouterr().out
    main(["permanent", "--matrix", ones_matrix, "--partitions", "4"])
    glynn = capsys.readouterr().out
    assert naive == glynn


def test_permanent_nonsquare_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"m": 2, "re": [[1.0, 2.0]], "im": [[0.0, 0.0]]}')
    assert main(["permanent", "--matrix", str(bad)]) == 1
    assert "invalid-dimension" in capsys.readouterr().err


def test_distribution_csv_and_json_round_trip(tmp_path):
    csv_path = tmp_path / "d.csv"
    json_path = tmp_path / "d.json"
    base = ["distribution", "--m", "5", "--seed", "3", "--input", "1:1:0:0:0",
            "--renormalize"]
    assert main(base + ["--out", str(csv_path)]) == 0
    assert main(base + ["--format", "json", "--out", str(json_path)]) == 0
    from_csv = distribution_from_file(str(csv_path))
    from_json = distribution_from_file(str(json_path))
    assert np.allclose(from_csv.probs, from_json.probs, atol=1e-15)
    assert from_csv.m == 5 and from_csv.n_detected == 2
    assert from_csv.renormalized


def test_tvd_of_distribution_with_itself(tmp_path, capsys):
    path = tmp_path / "d.csv"
    main(["distribution", "--m", "4", "--seed", "2", "--input", "1:1:0:0",
          "--renormalize", "--out", str(path)])
    assert main(["tvd", "--p", str(path), "--q", str(path)]) == 0
    assert float(capsys.readouterr().out) == 0.0


def test_tvd_family_mismatch_exit(tmp_path, capsys):
    p1 = tmp_path / "p1.csv"
    p2 = tmp_path / "p2.csv"
    main(["distribution", "--m", "4", "--seed", "2", "--input", "1:1:0:0",
          "--renormalize", "--out", str(p1)])
    main(["distribution", "--m", "4", "--seed", "2", "--input", "1:1:1:0",
          "--renormalize", "--out", str(p2)])
    assert main(["tvd", "--p", str(p1), "--q", str(p2)]) == 1
    assert "invalid-comparison" in capsys.readouterr().err


def _distribution_csv(tmp_path, name="d.csv"):
    path = tmp_path / name
    main(["distribution", "--m", "4", "--seed", "2", "--input", "1:1:0:0",
          "--renormalize", "--out", str(path)])
    return path


def test_tvd_rejects_reordered_states(tmp_path, capsys):
    path = _distribution_csv(tmp_path)
    lines = path.read_text().splitlines()
    first = lines.index("state,probability") + 1
    lines[first], lines[first + 1] = lines[first + 1], lines[first]
    swapped = tmp_path / "swapped.csv"
    swapped.write_text("\n".join(lines) + "\n")
    assert main(["tvd", "--p", str(path), "--q", str(swapped)]) == 1
    assert "invalid-comparison" in capsys.readouterr().err


@pytest.mark.parametrize("bad_row", ["1:1:0:0", "1:1:0:0,not-a-number", "1:1:0,0.5"])
def test_tvd_malformed_row_is_usage_error(tmp_path, capsys, bad_row):
    path = _distribution_csv(tmp_path)
    lines = path.read_text().splitlines()
    lines[-1] = bad_row
    broken = tmp_path / "broken.csv"
    broken.write_text("\n".join(lines) + "\n")
    assert main(["tvd", "--p", str(path), "--q", str(broken)]) == 2
    assert "usage-error" in capsys.readouterr().err


def test_tvd_truncated_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "d.json"
    main(["distribution", "--m", "4", "--seed", "2", "--input", "1:1:0:0",
          "--renormalize", "--format", "json", "--out", str(path)])
    path.write_text(path.read_text()[:40])
    assert main(["tvd", "--p", str(path), "--q", str(path)]) == 2
    assert "usage-error" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["states", "probs", "m", "n", "family", "raw_mass", "renormalized"])
def test_tvd_json_missing_key_is_usage_error(tmp_path, capsys, key):
    path = tmp_path / "d.json"
    main(["distribution", "--m", "4", "--seed", "2", "--input", "1:1:0:0",
          "--renormalize", "--format", "json", "--out", str(path)])
    doc = json.loads(path.read_text())
    del doc[key]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    assert main(["tvd", "--p", str(path), "--q", str(broken)]) == 2
    assert "usage-error" in capsys.readouterr().err


# one state of the m=4, n=2 test distribution replaced by each of these
BAD_STATES = {
    "short": "1:1:0",
    "long": "1:1:0:0:0",
    "negative": "3:-1:0:0",
    "photon-number": "1:1:1:0",
    "wraps-uint8": "258:0:0:0",
    "not-an-integer": "1:1.0:0:0",
    "empty-token": "1::1:0",
}


def _corrupt_distribution(tmp_path, fmt, state):
    path = tmp_path / f"d.{fmt}"
    main(["distribution", "--m", "4", "--seed", "2", "--input", "1:1:0:0",
          "--renormalize", "--format", fmt, "--out", str(path)])
    broken = tmp_path / f"broken.{fmt}"
    if fmt == "json":
        doc = json.loads(path.read_text())
        doc["states"][-1] = state
        broken.write_text(json.dumps(doc))
    else:
        lines = path.read_text().splitlines()
        lines[-1] = f"{state},{lines[-1].rsplit(',', 1)[1]}"
        broken.write_text("\n".join(lines) + "\n")
    return broken


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(BAD_STATES))
def test_tvd_bad_state_is_usage_error(tmp_path, capsys, fmt, case):
    broken = _corrupt_distribution(tmp_path, fmt, BAD_STATES[case])
    assert main(["tvd", "--p", str(broken), "--q", str(broken)]) == 2
    assert "usage-error" in capsys.readouterr().err


def test_tvd_json_states_all_short_is_usage_error(tmp_path, capsys):
    path = tmp_path / "d.json"
    main(["distribution", "--m", "4", "--seed", "2", "--input", "1:1:0:0",
          "--renormalize", "--format", "json", "--out", str(path)])
    doc = json.loads(path.read_text())
    doc["states"] = [state.rsplit(":", 1)[0] for state in doc["states"]]
    path.write_text(json.dumps(doc))
    assert main(["tvd", "--p", str(path), "--q", str(path)]) == 2
    assert "usage-error" in capsys.readouterr().err


def test_tvd_occupation_beyond_uint8_is_usage_error(tmp_path, capsys):
    # 300 photons in one mode sum to n=300 but would wrap to 44 as uint8
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"m": 4, "n": 300, "family": "full-fock", "raw_mass": 1.0,
                                "renormalized": True, "states": ["300:0:0:0"],
                                "probs": [1.0]}))
    assert main(["tvd", "--p", str(path), "--q", str(path)]) == 2
    assert "usage-error" in capsys.readouterr().err


@pytest.mark.parametrize("states", [[], [1, 1], "1:1:0:0"])
def test_tvd_json_states_not_a_list_of_strings_is_usage_error(tmp_path, capsys, states):
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"m": 4, "n": 2, "family": "collision-free", "raw_mass": 1.0,
                                "renormalized": True, "states": states, "probs": [1.0]}))
    assert main(["tvd", "--p", str(path), "--q", str(path)]) == 2
    assert "usage-error" in capsys.readouterr().err


def test_tvd_json_probs_count_mismatch_exits_1(tmp_path, capsys):
    path = tmp_path / "d.json"
    main(["distribution", "--m", "4", "--seed", "2", "--input", "1:1:0:0",
          "--renormalize", "--format", "json", "--out", str(path)])
    doc = json.loads(path.read_text())
    doc["probs"].append(0.0)
    path.write_text(json.dumps(doc))
    assert main(["tvd", "--p", str(path), "--q", str(path)]) == 1
    assert "invalid-distribution" in capsys.readouterr().err


def test_tvd_malformed_csv_header_is_usage_error(tmp_path, capsys):
    path = _distribution_csv(tmp_path)
    path.write_text(path.read_text().replace(" m=4 ", " m=four "))
    assert main(["tvd", "--p", str(path), "--q", str(path)]) == 2
    assert "usage-error" in capsys.readouterr().err


def _same_distribution(got, want):
    assert (got.m, got.n_detected, got.family) == (want.m, want.n_detected, want.family)
    assert (got.raw_mass, got.renormalized) == (want.raw_mass, want.renormalized)
    assert np.array_equal(got.states, want.states) and got.states.dtype == np.uint8
    assert np.array_equal(got.probs, want.probs)


def test_tvd_reads_crlf_line_endings(tmp_path, capsys):
    path = _distribution_csv(tmp_path)
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    _same_distribution(distribution_from_file(str(crlf)), distribution_from_file(str(path)))
    assert main(["tvd", "--p", str(path), "--q", str(crlf)]) == 0
    assert float(capsys.readouterr().out) == 0.0


def test_tvd_reads_blank_and_comment_lines_between_rows(tmp_path, capsys):
    path = _distribution_csv(tmp_path)
    lines = path.read_text().splitlines()
    first = lines.index("state,probability") + 1
    spaced = tmp_path / "spaced.csv"
    spaced.write_text("\n".join(lines[:first + 1] + ["", "# a comment", ""] + lines[first + 1:-1]
                                + ["#", lines[-1], ""]) + "\n")
    _same_distribution(distribution_from_file(str(spaced)), distribution_from_file(str(path)))
    assert main(["tvd", "--p", str(path), "--q", str(spaced)]) == 0
    assert float(capsys.readouterr().out) == 0.0


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_two_digit_occupations_round_trip(tmp_path, fmt):
    # m=2, n=10 full Fock mixes one- and two-digit occupations in one file
    path = tmp_path / f"d.{fmt}"
    assert main(["distribution", "--m", "2", "--seed", "1", "--input", "6:4", "--family",
                 "full-fock", "--renormalize", "--format", fmt, "--out", str(path)]) == 0
    u = haar_random_unitary(2, np.random.SeedSequence(1).spawn(2)[0])
    want = full_distribution(u, [6, 4], family=st.FULL_FOCK, renormalize=True)
    got = distribution_from_file(str(path))
    _same_distribution(got, want)
    assert got.states.max() == 10


@pytest.mark.parametrize("bad_row", ["1:1:0:0", "1:1:0:0,not-a-number", "1:1:0:0,0.1,0.2"])
def test_tvd_malformed_row_in_the_middle_is_usage_error(tmp_path, capsys, bad_row):
    path = _distribution_csv(tmp_path)
    lines = path.read_text().splitlines()
    first = lines.index("state,probability") + 1
    middle = (first + len(lines)) // 2
    lines[middle] = bad_row
    broken = tmp_path / "broken.csv"
    broken.write_text("\n".join(lines) + "\n")
    assert main(["tvd", "--p", str(path), "--q", str(broken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage-error: ") and "Traceback" not in err


def test_tvd_names_a_row_with_two_commas(tmp_path, capsys):
    path = _distribution_csv(tmp_path)
    lines = path.read_text().splitlines()
    lines[-2] = "1:0:1:0,0.1,0.2"
    broken = tmp_path / "broken.csv"
    broken.write_text("\n".join(lines) + "\n")
    assert main(["tvd", "--p", str(path), "--q", str(broken)]) == 2
    assert "'1:0:1:0,0.1,0.2'" in capsys.readouterr().err


def _json_distribution(tmp_path):
    path = tmp_path / "d.json"
    main(["distribution", "--m", "4", "--seed", "2", "--input", "1:1:0:0",
          "--renormalize", "--format", "json", "--out", str(path)])
    return path


# JSON fields of the wrong type, each read by a coercion before they were checked
BAD_JSON_FIELDS = {
    "renormalized-string": ("renormalized", "False"),
    "m-float": ("m", 4.7),
    "n-float": ("n", 2.0),
    "m-bool": ("m", True),
    "raw-mass-bool": ("raw_mass", True),
    "raw-mass-string": ("raw_mass", "1.0"),
    "raw-mass-huge-int": ("raw_mass", 10**400),
    "family-list": ("family", ["collision-free"]),
    "probs-strings": ("probs", ["0.1"] * 6),
    "probs-bools": ("probs", [True] + [False] * 5),
    "probs-not-a-list": ("probs", 1.0),
}


@pytest.mark.parametrize("case", sorted(BAD_JSON_FIELDS))
def test_tvd_json_field_of_wrong_type_is_usage_error(tmp_path, capsys, case):
    key, value = BAD_JSON_FIELDS[case]
    path = _json_distribution(tmp_path)
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))
    assert main(["tvd", "--p", str(path), "--q", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage-error: ") and "Traceback" not in err


@pytest.mark.parametrize("value", ["yes", "true", "1", ""])
def test_tvd_csv_renormalized_other_than_true_or_false_is_usage_error(tmp_path, capsys, value):
    path = _distribution_csv(tmp_path)
    path.write_text(path.read_text().replace(" renormalized=True ", f" renormalized={value} "))
    assert main(["tvd", "--p", str(path), "--q", str(path)]) == 2
    assert capsys.readouterr().err.startswith("usage-error: ")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_tvd_non_finite_probability_exits_1(tmp_path, capsys, fmt, value):
    if fmt == "csv":
        path = _distribution_csv(tmp_path)
        lines = path.read_text().splitlines()
        lines[-1] = f"{lines[-1].rsplit(',', 1)[0]},{value}"
        path.write_text("\n".join(lines) + "\n")
    else:
        path = _json_distribution(tmp_path)
        doc = json.loads(path.read_text())
        doc["probs"][-1] = float(value)
        path.write_text(json.dumps(doc))
    assert main(["tvd", "--p", str(path), "--q", str(path)]) == 1
    assert capsys.readouterr().err.startswith("invalid-distribution: ")


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_tvd_non_finite_raw_mass_exits_1(tmp_path, capsys, fmt, value):
    if fmt == "csv":
        path = _distribution_csv(tmp_path)
        text = path.read_text()
        raw = text.split(" raw_mass=", 1)[1].split("\n", 1)[0]
        path.write_text(text.replace(f" raw_mass={raw}", f" raw_mass={value}"))
    else:
        path = _json_distribution(tmp_path)
        doc = json.loads(path.read_text())
        doc["raw_mass"] = float(value)
        path.write_text(json.dumps(doc))
    assert main(["tvd", "--p", str(path), "--q", str(path)]) == 1
    assert capsys.readouterr().err.startswith("invalid-distribution: ")


# tracemalloc peak of distribution_from_file on the 77520-row m=20, n=7 CSV
# below, as the row-by-row reader measured it (28.89 MB; the chunked reader
# peaks near 20 MB)
READ_PEAK_BYTES = 28_900_000


def test_reading_a_large_csv_is_memory_bounded(tmp_path):
    occ, _ = st.enumerate_states(20, 7, st.COLLISION_FREE)
    probs = np.random.default_rng(0).random(len(occ))
    probs /= probs.sum()
    dist = OutputDistribution(20, 7, st.COLLISION_FREE, occ, probs, 1.0, True)
    path = tmp_path / "d.csv"
    path.write_text(distribution_to_csv(dist, "distribution", {}))
    tracemalloc.start()
    try:
        back = distribution_from_file(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _same_distribution(back, dist)
    assert peak <= READ_PEAK_BYTES


@settings(max_examples=60, deadline=None)
@given(m=hst.integers(1, 6), n=hst.integers(1, 3),
       family=hst.sampled_from([st.COLLISION_FREE, st.FULL_FOCK]), data=hst.data())
def test_distribution_file_round_trip_property(m, n, family, data):
    if family == st.COLLISION_FREE and n > m:
        family = st.FULL_FOCK
    occ, _ = st.enumerate_states(m, n, family)
    weights = data.draw(hst.lists(hst.floats(0.0, 1.0), min_size=len(occ), max_size=len(occ)))
    probs = np.array(weights) + 1e-3
    probs /= probs.sum()
    dist = OutputDistribution(m, n, family, occ, probs, float(probs.sum()), False)
    with tempfile.TemporaryDirectory() as tmp:
        for name, write in (("d.csv", distribution_to_csv), ("d.json", distribution_to_json)):
            path = Path(tmp) / name
            path.write_text(write(dist, "distribution", {}))
            back = distribution_from_file(str(path))
            assert (back.m, back.n_detected, back.family) == (m, n, family)
            assert np.array_equal(back.states, occ)
            assert np.array_equal(back.probs, dist.probs)
            assert back.raw_mass == dist.raw_mass


@settings(max_examples=200, deadline=None)
@given(texts=hst.lists(hst.text(alphabet="0123456789:-+ .x", max_size=12), max_size=4),
       m=hst.integers(1, 4), n=hst.integers(1, 4))
def test_parse_states_accepts_only_valid_rows_property(texts, m, n):
    try:
        occ = _parse_states(texts, m, n, "generated")
    except UsageError:
        return
    assert occ.shape == (len(texts), m) and occ.dtype == np.uint8
    assert np.all(occ.sum(axis=1) == n)


def _reference_parse_states(texts, m, n):
    """The one-call np.loadtxt state reader the byte-buffer decoder replaced;
    None where it refused the rows."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            occ = np.loadtxt(texts, delimiter=":", dtype=np.int64, ndmin=2, comments=None)
    except (ValueError, TypeError):
        return None
    if (occ.shape != (len(texts), m) or occ.min() < 0 or occ.max() > 255
            or np.any(occ.sum(axis=1) != n)):
        return None
    return occ.astype(np.uint8)


@settings(max_examples=300, deadline=None)
@given(m=hst.integers(1, 4), data=hst.data())
def test_parse_states_matches_loadtxt_reference_property(m, data):
    occupations = hst.lists(hst.integers(0, 12), min_size=m, max_size=m)
    row = hst.one_of(occupations.map(lambda occ: ":".join(map(str, occ))),
                     hst.text(alphabet="0123456789: -+.x\n\u0661", max_size=10))
    texts = data.draw(hst.lists(row, min_size=1, max_size=6))
    first = texts[0].split(":")
    n = sum(map(int, first)) if all(t.isascii() and t.isdigit() for t in first) else 3
    want = _reference_parse_states(texts, m, n)
    try:
        got = _parse_states(texts, m, n, "generated")
    except UsageError:
        got = None
    assert (got is None) == (want is None)
    if want is not None:
        assert got.dtype == np.uint8 and np.array_equal(got, want)


def test_distribution_bunched_input_with_output_loss(tmp_path):
    out = tmp_path / "d.json"
    assert main(["distribution", "--m", "6", "--seed", "4", "--input", "2:1:1:0:0:0",
                 "--loss-out", "1", "--format", "json", "--out", str(out)]) == 0
    u = haar_random_unitary(6, np.random.SeedSequence(4).spawn(2)[0])
    want = lossy_distribution(u, [2, 1, 1, 0, 0, 0], LossConfig(0, 1))
    got = distribution_from_file(str(out))
    assert np.array_equal(got.states, want.states)
    assert np.array_equal(got.probs, want.probs)


def test_distribution_bunched_input_with_input_loss_equals_output_loss(tmp_path):
    # uniform loss commutes with the interferometer, so one photon lost at the
    # input and one at the output give the table of two lost at the output
    paths = {}
    for name, loss in (("mixed", ["--loss-in", "1", "--loss-out", "1"]),
                       ("out", ["--loss-out", "2"])):
        paths[name] = tmp_path / f"{name}.json"
        assert main(["distribution", "--m", "6", "--seed", "4", "--input", "2:1:1:0:0:0",
                     *loss, "--format", "json", "--out", str(paths[name])]) == 0
    got, want = (distribution_from_file(str(paths[k])) for k in ("mixed", "out"))
    assert np.array_equal(got.states, want.states)
    np.testing.assert_allclose(got.probs, want.probs, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("command", ["distribution", "sample"])
@pytest.mark.parametrize("loss", [["--loss-in", "1"], ["--loss-out", "1"]])
def test_full_fock_with_loss_is_usage_error(command, loss, capsys):
    args = [command, "--m", "5", "--seed", "1", "--input", "1:1:1:0:0",
            "--family", "full-fock", *loss]
    if command == "sample":
        args += ["--count", "10"]
    assert main(args) == 2
    assert "usage-error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["distribution", "sample"])
def test_renormalize_with_loss_is_accepted(tmp_path, command):
    """A lossy distribution is always renormalized, so the flag changes nothing."""
    args = [command, "--m", "5", "--seed", "1", "--input", "1:1:1:0:0", "--loss-out", "1"]
    if command == "sample":
        args += ["--count", "50"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--renormalize", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def _row_text(row):
    return ":".join(str(int(k)) for k in row)


def _reference_csv(dist, config):
    """The row-by-row CSV writer the chunked one replaced."""
    lines = _meta_lines("distribution", config)
    lines.append(f"# m={dist.m} n={dist.n_detected} family={dist.family} "
                 f"renormalized={dist.renormalized} raw_mass={float(dist.raw_mass)!r}")
    lines.append("state,probability")
    for row, p in zip(dist.states, dist.probs):
        lines.append(f"{_row_text(row)},{float(p)!r}")
    return "\n".join(lines) + "\n"


def _reference_json(dist, config):
    doc = {
        "meta": {"version": __version__, "command": "distribution", "config": config},
        "m": dist.m, "n": dist.n_detected, "family": dist.family,
        "renormalized": dist.renormalized, "raw_mass": dist.raw_mass,
        "states": [_row_text(row) for row in dist.states],
        "probs": [float(p) for p in dist.probs],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _writer_cases():
    u2, u8, u16 = haar_random_unitary(2, 1), haar_random_unitary(8, 2), haar_random_unitary(16, 3)
    return {
        # occupations of 10 and more
        "full-fock-m2-n10": full_distribution(u2, [6, 4], family=st.FULL_FOCK, renormalize=True),
        "collision-free": full_distribution(u8, [1, 1, 1, 0, 0, 0, 0, 0]),
        "lossy": lossy_distribution(u8, [1, 1, 1, 1, 0, 0, 0, 0], LossConfig(1, 1)),
        # 4368 rows: more than one formatting chunk
        "chunks": full_distribution(u16, [1] * 5 + [0] * 11),
    }


def test_distribution_writers_match_row_by_row_reference():
    config = {"m": 2, "haar_seed": 1, "input": "6:4"}
    for name, dist in _writer_cases().items():
        csv_text = distribution_to_csv(dist, "distribution", config)
        assert csv_text == _reference_csv(dist, config), name
        json_text = distribution_to_json(dist, "distribution", config)
        assert json_text == _reference_json(dist, config), name


@pytest.mark.parametrize("family,inp", [(st.FULL_FOCK, "6:4"), (st.COLLISION_FREE, "1:1")])
def test_sample_output_matches_row_by_row_reference(tmp_path, family, inp):
    out = tmp_path / "s.csv"
    assert main(["sample", "--m", "2", "--seed", "5", "--input", inp, "--family", family,
                 "--renormalize", "--count", "5000", "--out", str(out)]) == 0
    u = haar_random_unitary(2, np.random.SeedSequence(5).spawn(2)[0])
    dist = full_distribution(u, st.state_from_string(inp), family=family, renormalize=True)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(5).spawn(2)[1]))
    events = sample_events(dist, rng, 5000)
    body = out.read_text().split("\nevent\n", 1)[1]
    assert body == "".join(_row_text(row) + "\n" for row in events)


# per-draw bytes a `sample` call may hold beyond its build: the uniforms and
# the state indices take 16
SAMPLE_BYTES_PER_DRAW = 25
# what a few formatted FORMAT_CHUNKs of 20-mode events take
SAMPLE_CHUNK_BYTES = 4 * st.FORMAT_CHUNK * 128


def test_sample_memory_does_not_grow_with_its_output(tmp_path):
    inp = ":".join("1" * 6 + "0" * 14)

    def peak(count):
        tracemalloc.start()
        try:
            assert main(["sample", "--m", "20", "--seed", "3", "--input", inp, "--renormalize",
                         "--count", str(count), "--out", str(tmp_path / "s.csv")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    build = peak(0)
    count = 200_000
    assert peak(count) <= build + SAMPLE_BYTES_PER_DRAW * count + SAMPLE_CHUNK_BYTES


BAD_MATRIX_FILES = {
    "unparsable": '{"m": 2, "re": [[1.0, 0.0], [0.0, 1.0]], "im": ',
    "not-an-object": "[1, 2, 3]",
    "no-m": '{"re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}',
    "no-re": '{"m": 2, "im": [[0.0, 0.0], [0.0, 0.0]]}',
    "no-im": '{"m": 2, "re": [[1.0, 0.0], [0.0, 1.0]]}',
}


@pytest.mark.parametrize("case", sorted(BAD_MATRIX_FILES))
def test_permanent_bad_matrix_file_is_usage_error(tmp_path, capsys, case):
    bad = tmp_path / "bad.json"
    bad.write_text(BAD_MATRIX_FILES[case])
    assert main(["permanent", "--matrix", str(bad)]) == 2
    assert "usage-error" in capsys.readouterr().err


def test_permanent_missing_matrix_file_is_usage_error(tmp_path, capsys):
    assert main(["permanent", "--matrix", str(tmp_path / "missing.json")]) == 2
    assert "usage-error" in capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(BAD_MATRIX_FILES))
def test_distribution_bad_unitary_file_is_usage_error(tmp_path, capsys, case):
    bad = tmp_path / "bad.json"
    bad.write_text(BAD_MATRIX_FILES[case])
    assert main(["distribution", "--unitary", str(bad), "--input", "1:0"]) == 2
    assert "usage-error" in capsys.readouterr().err


def test_distribution_accepts_unitary_file(tmp_path):
    path = tmp_path / "u.json"
    path.write_text(matrix_json(haar_random_unitary(4, 5)))
    out = tmp_path / "d.csv"
    assert main(["distribution", "--unitary", str(path), "--input", "1:1:0:0",
                 "--out", str(out)]) == 0
    assert distribution_from_file(str(out)).m == 4


def test_distribution_renormalizing_zero_mass_exits_1(tmp_path, capsys):
    # two photons in one mode of the identity never reach a collision-free state
    path = tmp_path / "eye.json"
    path.write_text(matrix_json(np.eye(2, dtype=complex)))
    assert main(["distribution", "--unitary", str(path), "--input", "2:0",
                 "--renormalize"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("invalid-distribution: ")


@pytest.mark.parametrize("argv", [
    ["distribution", "--input", ":".join(["1"] * 14 + ["0"] * 11)],
    ["validate", "--m", "25", "--n", "14", "--ensemble", "2", "--trials", "50"],
])
def test_oversized_expansion_level_exits_1_before_allocating(tmp_path, capsys, argv):
    # the C(25, 14) detected patterns fit the state cap, but the levels
    # k = 12, 13 of their expansion do not
    if argv[0] == "distribution":
        path = tmp_path / "u.json"
        path.write_text(matrix_json(haar_random_unitary(25, 3)))
        argv = argv + ["--unitary", str(path)]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("instance-too-large: ") and "Traceback" not in captured.err
    assert peak < 2**20  # the refused 4.5M-state basis would take hundreds of MB


@pytest.mark.parametrize("argv", [
    ["validate", "--m", "6", "--n", "2", "--ensemble", "2", "--trials", "50",
     "--max-samples", "10000000000"],
    ["sample", "--m", "4", "--seed", "1", "--input", "1:1:0:0", "--renormalize",
     "--count", "100000000000"],
])
def test_oversized_draw_table_exits_1_before_allocating(capsys, argv):
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("instance-too-large: ") and "Traceback" not in captured.err
    assert peak < 2**24  # the refused uniforms alone would take 800 GB or more


def test_distribution_rejects_non_unitary_file(tmp_path, capsys):
    u = haar_random_unitary(4, 5)
    u[0, 0] += 1e-6
    path = tmp_path / "u.json"
    path.write_text(matrix_json(u))
    assert main(["distribution", "--unitary", str(path), "--input", "1:1:0:0"]) == 1
    assert "invalid-configuration" in capsys.readouterr().err


def test_sample_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["sample", "--m", "4", "--seed", "9", "--input", "1:1:0:0",
            "--renormalize", "--count", "25"]
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_validate_runs_and_is_thread_invariant(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["validate", "--m", "10", "--n", "3", "--ensemble", "3", "--trials", "100",
            "--seed", "4", "--max-samples", "200"]
    assert main(args + ["--threads", "1", "--out", str(a)]) == 0
    assert main(args + ["--threads", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert "min_samples_mean" in text
    assert "# command: validate" in text
    assert "--threads" not in text


def test_validate_detail_file(tmp_path):
    detail = tmp_path / "detail.csv"
    main(["validate", "--m", "10", "--n", "3", "--ensemble", "3", "--trials", "100",
          "--seed", "4", "--max-samples", "200", "--out", str(tmp_path / "o.csv"),
          "--detail", str(detail)])
    lines = [ln for ln in detail.read_text().splitlines() if not ln.startswith("#")]
    assert lines[0] == "unitary_index,min_samples"
    assert len(lines) == 4


# per-unitary minima and summary row written by the full-stream search (every
# column of every stream looked up and summed) at these arguments; reading the
# streams by prefixes must reproduce them byte for byte
VALIDATE_PINNED = {
    "0": ([16, 21, 5], "8,3,3,0,0,14.0,8.18535277187245,3,100,0.95"),
    "1": ([81, 168, 78], "8,3,2,0,1,109.0,51.11751167652823,3,100,0.95"),
}


# per-unitary minima and summary row at m=20, n=3, written before the Glynn
# driver gathered submatrices itself and before unitaries ran on threads
VALIDATE_M20_PINNED = {
    ("0", "0"): ([20, 13, 15, 13], "20,3,3,0,0,15.25,3.304037933599835,4,200,0.95"),
    ("1", "0"): ([46, 42, 45, 58], "20,3,3,1,0,47.75,7.041543391425869,4,200,0.95"),
    ("0", "1"): ([87, 69, 96, 81], "20,3,2,0,1,83.25,11.324751652906125,4,200,0.95"),
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("loss", sorted(VALIDATE_M20_PINNED))
def test_validate_values_are_pinned(tmp_path, loss, threads):
    minima, summary = VALIDATE_M20_PINNED[loss]
    out, detail = tmp_path / "o.csv", tmp_path / "detail.csv"
    assert main(["validate", "--m", "20", "--n", "3", "--loss-in", loss[0], "--loss-out", loss[1],
                 "--ensemble", "4", "--trials", "200", "--max-samples", "1500", "--seed", "6",
                 "--threads", threads, "--out", str(out), "--detail", str(detail)]) == 0
    lines = [ln for ln in detail.read_text().splitlines() if not ln.startswith("#")]
    assert lines == ["unitary_index,min_samples"] + [f"{i},{v}" for i, v in enumerate(minima)]
    assert out.read_text().splitlines()[-1] == summary


@pytest.mark.parametrize("loss_out", sorted(VALIDATE_PINNED))
def test_validate_detail_matches_pinned_minima(tmp_path, loss_out):
    minima, summary = VALIDATE_PINNED[loss_out]
    out, detail = tmp_path / "o.csv", tmp_path / "detail.csv"
    assert main(["validate", "--m", "8", "--n", "3", "--loss-out", loss_out,
                 "--ensemble", "3", "--trials", "100", "--max-samples", "400", "--seed", "4",
                 "--out", str(out), "--detail", str(detail)]) == 0
    lines = [ln for ln in detail.read_text().splitlines() if not ln.startswith("#")]
    assert lines == ["unitary_index,min_samples"] + [f"{i},{v}" for i, v in enumerate(minima)]
    assert out.read_text().splitlines()[-1] == summary


def test_sources_spdc_table(tmp_path, spdc_config, capsys):
    assert main(["sources", "--config", spdc_config, "--m", "6", "--n", "2",
                 "--trials", "50000", "--seed", "8"]) == 0
    out = capsys.readouterr().out
    assert "class,analytic,mc_estimate,mc_stderr,sigmas" in out
    assert "success," in out and "fake," in out and "lossy1," in out


def test_sources_threads_invariant(tmp_path, spdc_config, mw_config):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for config, shape in ((spdc_config, ["--m", "6", "--n", "2"]),
                          (mw_config, ["--m", "16", "--n", "3", "--n-lost", "2"])):
        args = ["sources", "--config", config, *shape, "--trials", "450000", "--seed", "8"]
        main(args + ["--threads", "1", "--out", str(a)])
        main(args + ["--threads", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


# mc_estimate, mc_stderr and sigmas of `sources` at seed 2026 and 2e5 trials,
# as the samplers drew them when this pin was written: a change to either
# sampler's stream must change this table on purpose
MC_STREAM_PIN = {
    ("spdc", "10", "2"): {
        "success": "0.001035,7.190023556985053e-05,0.4799159635531024",
        "fake": "8.5e-05,2.061465194952367e-05,0.9574609838369336",
        "lossy1": "0.00303,0.00012289872049781479,0.7195525270479752",
    },
    ("spdc", "10", "3"): {
        "success": "1.5e-05,8.660189085695532e-06,0.02252254353842364",
        "fake": "0.0,0.0,0.653538960749385",
        "lossy1": "5e-05,1.5810993011193194e-05,0.63393463168783",
        "lossy2": "0.000115,2.397777877535782e-05,1.5135589299609002",
    },
    ("mw", "16", "3"): {
        "lossy0": "0.293515,0.001018243450199902,1.0765823101004721",
        "lossy1": "0.21566,0.0009196487492515826,0.4735019343875622",
        "lossy2": "0.079505,0.0006049130308358384,1.4391115318702896",
        "lossy3": "0.01159,0.00023932897756017763,1.1126511035063658",
    },
}


@pytest.mark.parametrize("case", sorted(MC_STREAM_PIN), ids="-".join)
@pytest.mark.parametrize("threads", ["1", "2"])
def test_sources_monte_carlo_stream_is_pinned(case, threads, spdc_config, mw_config, capsys):
    platform, m, n = case
    extra = ["--n-lost", n] if platform == "mw" else []
    config = spdc_config if platform == "spdc" else mw_config
    assert main(["sources", "--config", config, "--m", m, "--n", n, *extra,
                 "--trials", "200000", "--seed", "2026", "--threads", threads]) == 0
    rows = [ln.split(",", 2) for ln in capsys.readouterr().out.splitlines()
            if not ln.startswith("#")][1:]
    assert {name: mc_columns for name, _analytic, mc_columns in rows} == MC_STREAM_PIN[case]


def test_supremacy_sweep_csv(tmp_path, spdc_config):
    out = tmp_path / "sweep.csv"
    assert main(["supremacy", "--config", spdc_config, "--m-min", "10", "--m-max", "30",
                 "--step", "10", "--out", str(out)]) == 0
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert lines[0] == "m,n_policy,event_class,t_c,t_q,ratio"
    rows = [ln.split(",") for ln in lines[1:]]
    assert {r[0] for r in rows} == {"10", "20", "30"}
    assert {r[2] for r in rows} == {"exact", "lossy1", "generalized"}
    for r in rows:
        assert float(r[5]) == pytest.approx(float(r[3]) / float(r[4]), rel=1e-12)


def test_supremacy_platform_missing_config(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["supremacy", "--config", str(missing),
                 "--m-min", "10", "--m-max", "20"]) == 2
    assert "usage-error" in capsys.readouterr().err


SPDC_CONFIG = {
    "platform": "spdc", "g": 0.02, "eta_T": 0.6, "p_in": 0.7,
    "eta_D_schedule": {"kind": "linear", "a": 0.6, "b": 0.25, "m0": 10, "span": 90},
    "pump_rate": 8.0e7,
}
QD_CONFIG = {
    "platform": "qd", "eta": 0.35, "eta_dm": 0.7, "p_in": 0.7,
    "eta_D_schedule": {"kind": "linear", "a": 0.6, "b": 0.25, "m0": 10, "span": 90},
    "rep_rate": 8.0e7,
}
MW_CONFIG = {"platform": "mw", "p_in": 0.9, "eta_D": 0.7, "p_dark": 0.1, "t_step": 3.0e-7}


def _sweep_rows(path):
    lines = [ln for ln in Path(path).read_text().splitlines() if not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


@pytest.mark.parametrize("doc", [QD_CONFIG, MW_CONFIG], ids=["qd", "mw"])
def test_supremacy_skips_single_photon_modes(doc, tmp_path):
    config = tmp_path / "platform.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "sweep.csv"
    assert main(["supremacy", "--config", str(config), "--m-min", "1", "--m-max", "6",
                 "--out", str(out)]) == 0
    assert sorted({r[0] for r in _sweep_rows(out)}) == ["5", "6"]


def test_supremacy_header_records_demux_for_qd_only(tmp_path, spdc_config, qd_config,
                                                    mw_config):
    configs = {}
    for name, path, extra in (("active", qd_config, []),
                              ("passive", qd_config, ["--demux", "passive"]),
                              ("spdc", spdc_config, []),
                              ("mw", mw_config, [])):
        out = tmp_path / f"{name}.csv"
        assert main(["supremacy", "--config", path, "--m-min", "10", "--m-max", "12",
                     "--out", str(out)] + extra) == 0
        header = [ln for ln in out.read_text().splitlines() if ln.startswith("# config: ")]
        configs[name] = json.loads(header[0][len("# config: "):])
    assert configs["active"]["demux"] == "active"
    assert configs["passive"]["demux"] == "passive"
    assert "demux" not in configs["spdc"] and "demux" not in configs["mw"]


def test_sources_class_without_hits_reads_finite_sigmas(spdc_config, capsys, monkeypatch):
    # a class with no hit has estimate and stderr 0; the z-test takes its
    # stderr from the tested closed form, sqrt(v (1 - v) / trials), so it
    # stays finite
    trials = 200000

    def no_fake_hit(m, n, params, trials, seed, workers=1):
        hit = sources.McEstimate(1e-5, math.sqrt(1e-5 * (1 - 1e-5) / trials), trials)
        return sources.SpdcMcResult(trials, hit, sources.McEstimate(0.0, 0.0, trials),
                                    {k: hit for k in range(1, n)})

    monkeypatch.setattr(sources, "monte_carlo_spdc", no_fake_hit)
    assert main(["sources", "--config", spdc_config, "--m", "10", "--n", "3",
                 "--trials", str(trials), "--seed", "7"]) == 0
    rows = {r[0]: r for r in (ln.split(",") for ln in capsys.readouterr().out.splitlines()
                              if not ln.startswith("#"))}
    analytic, estimate, stderr, sigmas = (float(x) for x in rows["fake"][1:])
    assert estimate == 0.0 and stderr == 0.0
    assert sigmas == pytest.approx(analytic / np.sqrt(analytic * (1 - analytic) / trials),
                                   rel=1e-12)
    assert sigmas < 1.0
    assert sources.McEstimate(0.0, 0.0, trials).sigmas_from(analytic) == sigmas


def test_bad_config_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"platform": "warp"}')
    assert main(["sources", "--config", str(bad), "--m", "5", "--n", "2"]) == 2
    assert "usage-error" in capsys.readouterr().err


BAD_NUMERIC_FLAGS = {
    "sample-count": (["sample", "--m", "4", "--seed", "1", "--input", "1:1:0:0",
                      "--renormalize", "--count", "-1"], 1, "invalid-configuration"),
    "validate-max-samples": (["validate", "--m", "6", "--n", "2", "--ensemble", "2",
                              "--trials", "50", "--max-samples", "-1"],
                             1, "invalid-configuration"),
    "validate-confidence": (["validate", "--m", "6", "--n", "2", "--ensemble", "2",
                             "--trials", "50", "--confidence", "1.5"],
                            1, "invalid-configuration"),
    "supremacy-step": (["supremacy", "--config", "SPDC", "--m-min", "10", "--m-max", "20",
                        "--step", "0"], 2, "usage-error"),
    "supremacy-inverted-range": (["supremacy", "--config", "SPDC", "--m-min", "30",
                                  "--m-max", "10"], 2, "usage-error"),
    "supremacy-include-lossy": (["supremacy", "--config", "SPDC", "--m-min", "10",
                                 "--m-max", "20", "--include-lossy", "3"], 2, "usage-error"),
    # quantum-dot and microwave sweeps list lossy1 only, whatever K is
    "supremacy-include-lossy-qd": (["supremacy", "--config", "QD", "--m-min", "10",
                                    "--m-max", "12", "--include-lossy", "0"], 2, "usage-error"),
    "supremacy-include-lossy-mw": (["supremacy", "--config", "MW", "--m-min", "10",
                                    "--m-max", "12", "--include-lossy", "2"], 2, "usage-error"),
    # only quantum-dot sources are demultiplexed
    "supremacy-demux-spdc": (["supremacy", "--config", "SPDC", "--m-min", "10",
                              "--m-max", "12", "--demux", "passive"], 2, "usage-error"),
    "supremacy-demux-mw": (["supremacy", "--config", "MW", "--m-min", "10",
                            "--m-max", "12", "--demux", "passive"], 2, "usage-error"),
    "permanent-partitions": (["permanent", "--matrix", "ONES", "--partitions", "0"],
                             1, "invalid-dimension"),
    **{f"supremacy-a-prime-{v}": (["supremacy", "--config", "SPDC", "--m-min", "10",
                                   "--m-max", "12", "--a-prime", v], 1, "invalid-configuration")
       for v in ("nan", "inf", "0", "-1")},
    # no SPDC event window below m=10: the sweep is empty, --a-prime is still checked
    "supremacy-a-prime-empty-sweep": (["supremacy", "--config", "SPDC", "--m-min", "1",
                                       "--m-max", "6", "--a-prime", "nan"],
                                      1, "invalid-configuration"),
    **{f"sources-threads-{v}": (["sources", "--config", "SPDC", "--m", "6", "--n", "2",
                                 "--trials", "20000", "--threads", v], 2, "usage-error")
       for v in ("0", "-3")},
    "validate-threads-0": (["validate", "--m", "6", "--n", "2", "--ensemble", "2",
                            "--trials", "50", "--threads", "0"], 2, "usage-error"),
    "validate-ensemble-too-large": (["validate", "--m", "6", "--n", "2", "--trials", "50",
                                     "--max-samples", "100", "--ensemble", "100000000"],
                                    1, "instance-too-large"),
    **{f"{cmd}-negative-seed": (argv, 2, "usage-error") for cmd, argv in (
        ("distribution", ["distribution", "--m", "4", "--seed", "-1", "--input", "1:1:0:0"]),
        ("sample", ["sample", "--m", "4", "--seed", "-2", "--input", "1:1:0:0",
                    "--renormalize", "--count", "5"]),
        ("validate", ["validate", "--m", "6", "--n", "2", "--ensemble", "2", "--trials", "50",
                      "--seed", "-1"]),
        ("sources", ["sources", "--config", "SPDC", "--m", "6", "--n", "2", "--trials", "20000",
                     "--seed", "-1"]),
    )},
    "sources-qd-n-above-m": (["sources", "--config", "QD", "--m", "3", "--n", "5"],
                             1, "invalid-configuration"),
    # 1e14 trials would spawn 5e8 chunk seeds before the first chunk ran
    "sources-trials-too-large": (["sources", "--config", "SPDC", "--m", "10", "--n", "2",
                                  "--trials", "100000000000000"], 1, "instance-too-large"),
    # SPDC lists lossy1..n-1 whatever --n-lost says
    "sources-n-lost-spdc": (["sources", "--config", "SPDC", "--m", "6", "--n", "3",
                             "--trials", "20000", "--n-lost", "2"], 2, "usage-error"),
    # more modes than sources.MAX_MODES, refused before any law table is built
    **{f"sources-m-too-large-{name}": (["sources", "--config", name.upper(), "--m", "100001",
                                        "--n", "2", "--trials", "20000"],
                                       1, "instance-too-large")
       for name in ("spdc", "mw")},
}


@pytest.mark.parametrize("case", sorted(BAD_NUMERIC_FLAGS))
def test_bad_numeric_flag_exits_with_category(case, ones_matrix, spdc_config, qd_config,
                                              mw_config, capsys):
    argv, code, category = BAD_NUMERIC_FLAGS[case]
    paths = {"SPDC": spdc_config, "QD": qd_config, "MW": mw_config, "ONES": ones_matrix}
    argv = [paths.get(a, a) for a in argv]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(f"{category}: ")
    assert "Traceback" not in err


_DIST_OPTIONS = ["--family", "--input", "--loss-in", "--loss-out", "--m", "--model", "--out",
                 "--renormalize", "--seed", "--unitary"]
CLI_SURFACE = {
    "permanent": ["--matrix", "--method", "--partitions", "--threads"],
    "distribution": _DIST_OPTIONS + ["--format", "--threads"],
    "sample": _DIST_OPTIONS + ["--count"],
    "tvd": ["--p", "--q", "--threads"],
    "validate": ["--confidence", "--detail", "--ensemble", "--loss-in", "--loss-out", "--m",
                 "--max-samples", "--n", "--out", "--seed", "--threads", "--trials"],
    "sources": ["--config", "--m", "--n", "--n-lost", "--out", "--seed", "--threads",
                "--trials"],
    "supremacy": ["--a-prime", "--config", "--demux", "--include-lossy", "--m-max", "--m-min",
                  "--out", "--step", "--threads"],
}


def test_cli_surface_is_pinned():
    # every flag change is a deliberate edit of CLI_SURFACE; each subcommand
    # also takes -h/--help
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {name: sorted(o for a in sp._actions for o in a.option_strings)
           for name, sp in sub.choices.items()}
    assert got == {name: sorted(opts + ["--help", "-h"]) for name, opts in CLI_SURFACE.items()}
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["supremacy", "--platform", "spdc", "--config", "c.json",
                           "--m-min", "10", "--m-max", "20"])
    assert exc.value.code == 2


def test_sample_threads_is_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--m", "4", "--seed", "9", "--input", "1:1:0:0", "--renormalize",
              "--count", "25", "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def test_sources_spdc_refuses_explicit_n_lost(spdc_config, capsys, monkeypatch):
    # SPDC always lists lossy1..n-1, so its header records no n_lost and an
    # explicit --n-lost is a usage error before the Monte-Carlo runs
    assert main(["sources", "--config", spdc_config, "--m", "6", "--n", "3",
                 "--trials", "20000", "--seed", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = next(ln for ln in lines if ln.startswith("# config: "))
    assert json.loads(header[len("# config: "):]) == {
        "platform": "spdc", "m": 6, "n": 3, "trials": 20000, "seed": 8}
    rows = [ln for ln in lines if not ln.startswith("#")]
    assert [r.split(",")[0] for r in rows[1:]] == ["success", "fake", "lossy1", "lossy2"]

    def no_monte_carlo(*args, **kwargs):
        raise AssertionError("the Monte-Carlo ran before --n-lost was checked")

    monkeypatch.setattr(sources, "monte_carlo_spdc", no_monte_carlo)
    for n_lost in ("0", "1", "2"):
        assert main(["sources", "--config", spdc_config, "--m", "6", "--n", "3",
                     "--n-lost", n_lost, "--trials", "20000", "--seed", "8"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage-error: --n-lost ") and f"got {n_lost}" in err


@pytest.mark.parametrize("n_lost", ["-1", "4"])
def test_sources_mw_n_lost_outside_range_is_usage_error(n_lost, tmp_path, capsys, monkeypatch):
    config = tmp_path / "mw.json"
    config.write_text(json.dumps(
        {"platform": "mw", "p_in": 0.9, "eta_D": 0.7, "p_dark": 0.1, "t_step": 3.0e-7}
    ))

    def no_monte_carlo(*args, **kwargs):
        raise AssertionError("the Monte-Carlo ran before --n-lost was checked")

    monkeypatch.setattr(sources, "monte_carlo_mw", no_monte_carlo)
    assert main(["sources", "--config", str(config), "--m", "16", "--n", "3",
                 "--n-lost", n_lost, "--trials", "20000", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage-error: ") and f"got {n_lost}" in err


def test_sources_mw_more_photons_than_modes_is_usage_error(tmp_path, capsys, monkeypatch):
    config = tmp_path / "mw.json"
    config.write_text(json.dumps(
        {"platform": "mw", "p_in": 0.9, "eta_D": 0.7, "p_dark": 0.1, "t_step": 3.0e-7}
    ))

    def no_monte_carlo(*args, **kwargs):
        raise AssertionError("the Monte-Carlo ran before --n was checked against --m")

    monkeypatch.setattr(sources, "monte_carlo_mw", no_monte_carlo)
    assert main(["sources", "--config", str(config), "--m", "2", "--n", "3",
                 "--trials", "20000", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage-error: ") and "Traceback" not in err


LINEAR = SPDC_CONFIG["eta_D_schedule"]
# name: (config, exit code, category, text the message must hold)
BAD_CONFIGS = {
    "both-eta-d": ({**SPDC_CONFIG, "eta_D": 0.6}, 2, "usage-error", "eta_D_schedule"),
    "mistyped-key": ({**SPDC_CONFIG, "eta_d": 0.95}, 2, "usage-error", "'eta_d'"),
    "g-string": ({**SPDC_CONFIG, "g": "abc"}, 2, "usage-error", "'g'"),
    "g-null": ({**SPDC_CONFIG, "g": None}, 2, "usage-error", "'g'"),
    "g-bool": ({**SPDC_CONFIG, "g": True}, 2, "usage-error", "'g'"),
    "g-nan": ({**SPDC_CONFIG, "g": float("nan")}, 2, "usage-error", "'g'"),
    "g-missing": ({k: v for k, v in SPDC_CONFIG.items() if k != "g"}, 2, "usage-error", "'g'"),
    "schedule-number": ({**SPDC_CONFIG, "eta_D_schedule": 5}, 2, "usage-error",
                        "eta_D_schedule"),
    "schedule-constant": ({**SPDC_CONFIG, "eta_D_schedule": {"kind": "constant", "value": 0.6}},
                          2, "usage-error", "eta_D_schedule"),
    "schedule-unknown-key": ({**SPDC_CONFIG, "eta_D_schedule": {**LINEAR, "slope": 0.1}},
                             2, "usage-error", "'slope'"),
    "schedule-string-value": ({**SPDC_CONFIG, "eta_D_schedule": {**LINEAR, "a": "0.6"}},
                              2, "usage-error", "'a'"),
    "qd-rep-rate": ({**QD_CONFIG, "rep_rate": -1}, 1, "invalid-configuration", "rep_rate"),
    "mw-schedule": ({**MW_CONFIG, "eta_D_schedule": LINEAR}, 2, "usage-error",
                    "'eta_D_schedule'"),
    "mw-missing-eta-d": ({k: v for k, v in MW_CONFIG.items() if k != "eta_D"}, 2,
                         "usage-error", "'eta_D'"),
    "platform-list": ({**MW_CONFIG, "platform": ["mw"]}, 2, "usage-error", "platform"),
}
COMMANDS = {
    "sources": ["--m", "6", "--n", "2", "--trials", "1000"],
    "supremacy": ["--m-min", "10", "--m-max", "12"],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_config_exits_with_category(case, command, tmp_path, capsys):
    doc, code, category, needle = BAD_CONFIGS[case]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main([command, "--config", str(config), *COMMANDS[command]]) == code
    captured = capsys.readouterr()
    assert captured.err.startswith(f"{category}: ") and needle in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_config_schema_is_pinned():
    # every config key change is a deliberate edit of this literal
    assert {p: (cls.__name__, keys) for p, (cls, keys) in CONFIG_KEYS.items()} == {
        "spdc": ("SpdcParams", {"g": "g", "eta_T": "eta_t", "p_in": "p_in", "eta_D": "eta_d",
                                "eta_D_schedule": "eta_d", "pump_rate": "pump_rate"}),
        "qd": ("QdParams", {"eta": "eta", "eta_dm": "eta_dm", "p_in": "p_in", "eta_D": "eta_d",
                            "eta_D_schedule": "eta_d", "rep_rate": "rep_rate"}),
        "mw": ("MwParams", {"p_in": "p_in", "eta_D": "eta_d", "p_dark": "p_dark",
                            "t_step": "t_step"}),
    }
    assert SCHEDULE_KEYS == ("a", "b", "m0", "span")
    # every params field can be set from a config
    for cls, keys in CONFIG_KEYS.values():
        assert set(keys.values()) == {f.name for f in dataclasses.fields(cls)}


@pytest.mark.parametrize("flag,value", [("--n-lost", "1"), ("--trials", "1000000"),
                                        ("--seed", "0")])
def test_sources_qd_refuses_monte_carlo_flags(qd_config, capsys, flag, value):
    # the quantum-dot rows are closed forms only, so even a flag given at its
    # Monte-Carlo default is a usage error
    assert main(["sources", "--config", qd_config, "--m", "16", "--n", "3", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage-error: {flag} does not apply to qd configs")
    assert f"got {value}" in captured.err


def test_sources_monte_carlo_defaults_are_recorded(spdc_config, mw_config, capsys):
    # without --trials and --seed, SPDC and microwave run 1000000 shots at seed 0
    for config in (spdc_config, mw_config):
        argv = ["sources", "--config", config, "--m", "6", "--n", "2"]
        assert main(argv) == 0
        implicit = capsys.readouterr().out
        assert main(argv + ["--trials", "1000000", "--seed", "0"]) == 0
        assert capsys.readouterr().out == implicit
        header = next(ln for ln in implicit.splitlines() if ln.startswith("# config: "))
        config = json.loads(header[len("# config: "):])
        assert (config["trials"], config["seed"]) == (1_000_000, 0)


def test_sources_qd_rows_equal_p_qd(qd_config, capsys):
    assert main(["sources", "--config", qd_config, "--m", "16", "--n", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    config = json.loads(next(ln for ln in lines if ln.startswith("# config: "))[10:])
    assert config == {"platform": "qd", "m": 16, "n": 3}
    rows = [ln for ln in lines if not ln.startswith("#")]
    params = sources.QdParams(eta=0.35, eta_dm=0.7, p_in=0.7,
                              eta_d=linear_eta_schedule(0.6, 0.25, 10, 90)(16))
    assert rows == ["class,analytic"] + [f"{d},{sources.p_qd(3, 3, params, d)!r}"
                                         for d in ("passive", "active")]


def test_supremacy_constant_eta_d_matches_library(tmp_path):
    doc = {k: v for k, v in SPDC_CONFIG.items() if k != "eta_D_schedule"}
    config = tmp_path / "spdc.json"
    config.write_text(json.dumps({**doc, "eta_D": 0.5}))
    out = tmp_path / "sweep.csv"
    assert main(["supremacy", "--config", str(config), "--m-min", "10", "--m-max", "60",
                 "--step", "5", "--include-lossy", "2", "--out", str(out)]) == 0
    params = sources.SpdcParams(g=0.02, eta_t=0.6, p_in=0.7, eta_d=0.5, pump_rate=8.0e7)
    points = supremacy_sweep_spdc(range(10, 61, 5), params, include_lossy_up_to=2,
                                  eta_schedule=constant_eta_schedule(0.5))
    assert _sweep_rows(out) == [[str(p.m), p.n_policy, p.event_class, repr(p.t_c),
                                 repr(p.t_q), repr(p.ratio)] for p in points]


@pytest.mark.parametrize("content", [None, b"\xff\xfe\x00\x81"], ids=["missing", "binary"])
def test_tvd_unreadable_file_is_usage_error(tmp_path, capsys, content):
    path = tmp_path / "p.csv"
    if content is not None:
        path.write_bytes(content)
    assert main(["tvd", "--p", str(path), "--q", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage-error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["distribution", "--m", "4", "--input", "1:1:0:0", "--out"],
    ["validate", "--m", "6", "--n", "2", "--ensemble", "2", "--trials", "50", "--out"],
    ["validate", "--m", "6", "--n", "2", "--ensemble", "2", "--trials", "50", "--detail"],
], ids=["distribution-out", "validate-out", "validate-detail"])
def test_unwritable_output_is_usage_error(tmp_path, capsys, argv):
    assert main(argv + [str(tmp_path / "missing" / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage-error: ") and "Traceback" not in err


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["frobnicate"])
    assert exc.value.code == 2
