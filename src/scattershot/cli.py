"""Command-line surface tying the modules together.

Artifacts are CSV for curves and tables, JSON for matrices and
distributions, each carrying a metadata header (version, command, seed and
the scientific config). Execution-only knobs such as --threads and output
paths stay out of the metadata so reruns produce byte-identical files.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from . import distribution as dstr
from . import sources as src
from . import states as st
from . import supremacy as sup
from . import validation as val
from .errors import InvalidConfigurationError, ScattershotError
from .linalg import haar_random_unitary, matrix_from_json, unitarity_defect
from .permanent import permanent_glynn, permanent_glynn_parallel, permanent_naive


class UsageError(Exception):
    pass


# largest entry of |U U^H - I| accepted for a --unitary file
UNITARY_TOL = 1e-9


def _meta_lines(command: str, config: dict) -> list[str]:
    cfg = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return [
        f"# scattershot {__version__}",
        f"# command: {command}",
        f"# config: {cfg}",
    ]


def _read_bytes(path: str, what: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise UsageError(f"cannot read {what} {path}: {exc}") from exc


def _decode(data: bytes, path: str, what: str) -> str:
    """data as open() reads a text file: the locale encoding, universal newlines."""
    try:
        return io.TextIOWrapper(io.BytesIO(data)).read()
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read {what} {path}: {exc}") from exc


def _read_text(path: str, what: str) -> str:
    return _decode(_read_bytes(path, what), path, what)


def _write_text(path: str | None, text) -> None:
    """Write text, a string or an iterable of strings written in turn, to path
    or to stdout when path is None."""
    parts = [text] if isinstance(text, str) else text
    if path is None:
        for part in parts:
            sys.stdout.write(part)
        return
    try:
        with open(path, "w") as fh:
            for part in parts:
                fh.write(part)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _table(command: str, config: dict, header: str, rows) -> str:
    """A CSV artifact: the metadata lines, the header line(s), then the rows."""
    return "\n".join([*_meta_lines(command, config), header, *rows]) + "\n"


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------- configs

# Per platform, its params dataclass and each config key's field. The
# dataclasses hold every default; eta_D_schedule, like eta_D, sets eta_d.
CONFIG_KEYS = {
    "spdc": (src.SpdcParams, {"g": "g", "eta_T": "eta_t", "p_in": "p_in", "eta_D": "eta_d",
                              "eta_D_schedule": "eta_d", "pump_rate": "pump_rate"}),
    "qd": (src.QdParams, {"eta": "eta", "eta_dm": "eta_dm", "p_in": "p_in", "eta_D": "eta_d",
                          "eta_D_schedule": "eta_d", "rep_rate": "rep_rate"}),
    "mw": (src.MwParams, {"p_in": "p_in", "eta_D": "eta_d", "p_dark": "p_dark",
                          "t_step": "t_step"}),
}
# keys of a {"kind": "linear", ...} eta_D_schedule, each a linear_eta_schedule argument
SCHEDULE_KEYS = ("a", "b", "m0", "span")


def _number(doc: dict, key: str) -> float:
    value = doc[key]
    finite = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max  # NaN fails
    if isinstance(value, bool) or not finite:
        raise UsageError(f"config key {key!r} must be a finite number, got {value!r}")
    return float(value)


def load_platform_config(path: str) -> dict:
    try:
        doc = json.loads(_read_text(path, "config"))
    except json.JSONDecodeError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict) or "platform" not in doc:
        raise UsageError("config must be a JSON object with a 'platform' key")
    if not isinstance(doc["platform"], str) or doc["platform"] not in CONFIG_KEYS:
        raise UsageError(f"unknown platform {doc['platform']!r}")
    return doc


def eta_schedule_from_config(doc: dict):
    """eta_D per mode count: constant for a number eta_D, else the linear
    eta_D_schedule, whose absent keys (or all of it) take linear_eta_schedule's defaults."""
    if "eta_D" in doc:
        if "eta_D_schedule" in doc:
            raise UsageError("config sets both eta_D and eta_D_schedule")
        return sup.constant_eta_schedule(_number(doc, "eta_D"))
    sched = doc.get("eta_D_schedule", {"kind": "linear"})
    if not isinstance(sched, dict) or sched.get("kind") != "linear":
        raise UsageError(f'eta_D_schedule must be {{"kind": "linear", ...}}, got {sched!r}')
    unknown = sorted(sched.keys() - {"kind", *SCHEDULE_KEYS})
    if unknown:
        raise UsageError(f"unknown eta_D_schedule key {unknown[0]!r}")
    return sup.linear_eta_schedule(**{k: _number(sched, k) for k in SCHEDULE_KEYS if k in sched})


def params_from_config(doc: dict, m: int):
    """The platform's params, with a scheduled eta_D resolved at m modes."""
    cls, keys = CONFIG_KEYS[doc["platform"]]
    unknown = sorted(doc.keys() - keys.keys() - {"platform"})
    if unknown:
        raise UsageError(f"unknown {doc['platform']} config key {unknown[0]!r}")
    fields = {keys[k]: _number(doc, k) for k in doc if k in keys and k != "eta_D_schedule"}
    if "eta_D_schedule" in keys:
        fields["eta_d"] = eta_schedule_from_config(doc)(m)
    required = {f.name for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING}
    missing = sorted(k for k, f in keys.items() if f in required - fields.keys())
    if missing:
        raise UsageError(f"config missing key {missing[0]!r}")
    return cls(**fields)


# ------------------------------------------------------- distribution io


def _blocks(dist: dstr.OutputDistribution):
    """The row slices of dist that the writers format at a time."""
    return (slice(start, start + st.FORMAT_CHUNK)
            for start in range(0, len(dist), st.FORMAT_CHUNK))


def distribution_json_parts(dist: dstr.OutputDistribution, command: str, config: dict):
    """The JSON artifact as text parts to write in turn: json.dumps of the whole
    document with sorted keys, its probs and states laid out a block at a time."""
    dumps = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))
    head = dumps({"meta": {"version": __version__, "command": command, "config": config},
                  "m": dist.m, "n": dist.n_detected, "family": dist.family})
    tail = dumps({"renormalized": dist.renormalized, "raw_mass": dist.raw_mass})
    from ._shortest import format_rows  # only distribution files need the kernel
    yield head[:-1] + ',"probs":['
    sep = ""
    for rows in _blocks(dist):
        yield sep + format_rows(dist.probs[rows], end=",")[:-1]
        sep = ","
    yield "]," + tail[1:-1] + ',"states":['
    sep = '"'
    for rows in _blocks(dist):
        yield sep + '","'.join(st.format_states(dist.states[rows])) + '"'
        sep = ',"'
    yield "]}\n"


def distribution_csv_parts(dist: dstr.OutputDistribution, command: str, config: dict):
    """The CSV artifact as text parts to write in turn: the metadata and header
    lines, then one part per block of rows."""
    header = (f"# m={dist.m} n={dist.n_detected} family={dist.family} "
              f"renormalized={dist.renormalized} raw_mass={_fmt(dist.raw_mass)}\n"
              "state,probability")
    from ._shortest import format_rows  # only distribution files need the kernel
    yield _table(command, config, header, [])
    for rows in _blocks(dist):
        cells = st.state_cells(dist.states[rows], ",")
        if cells is not None:
            yield format_rows(dist.probs[rows], cells)
        else:  # occupations of 10 or more
            probs = format_rows(dist.probs[rows]).split("\n")
            yield "".join(map("{},{}\n".format, st.format_states(dist.states[rows]), probs))


def _decode_states(texts: list, m: int, n: int, path: str) -> np.ndarray:
    """(len(texts), m) uint8 occupations of state strings, each m non-negative
    integers summing to n, else a usage error.

    When every row is m single-digit cells ('0:2:1'), the rows are read from
    one byte buffer, each ended by '\n'; otherwise np.loadtxt reads them all.
    """
    width = 2 * m  # a single-digit row and its '\n'
    cells = np.frombuffer(("\n".join(texts) + "\n").encode("ascii", "replace"), dtype=np.uint8)
    occ = None
    if cells.size == len(texts) * width:
        # a digit cell minus '0' is at most 9, a ':' or '\n' cell minus itself is 0;
        # as uint8, a character below its base wraps above the bound
        base = np.tile(np.array([ord("0"), ord(":")], dtype=np.uint8), m)
        base[-1] = ord("\n")
        offset = cells.reshape(-1, width) - base
        if not np.any(offset > np.tile(np.array([9, 0], dtype=np.uint8), m)):
            occ = offset[:, 0::2].copy()  # every '\n' is a row end
    if occ is None:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # loadtxt skips blank rows; the shape check won't
                occ = np.loadtxt(texts, delimiter=":", dtype=np.int64, ndmin=2, comments=None)
        except (ValueError, TypeError) as exc:
            raise UsageError(f"malformed state in distribution {path}: {exc}") from exc
        if occ.shape != (len(texts), m):
            raise UsageError(
                f"distribution {path} has a blank state or one whose length is not m={m}")
        if occ.min() < 0 or occ.max() > np.iinfo(np.uint8).max:
            raise UsageError(
                f"distribution {path} has a state with a negative or oversized occupation")
        occ = occ.astype(np.uint8)
    if np.any(occ.sum(axis=1) != n):
        raise UsageError(f"distribution {path} has a state with a photon number other than n={n}")
    return occ


def _parse_states(texts: list, m: int, n: int, path: str) -> np.ndarray:
    """All state strings of a JSON distribution file as (K, m) uint8 occupations.

    Decoded FORMAT_CHUNK rows at a time; a state that is not m non-negative
    integers summing to n is a usage error, as is an occupation beyond uint8.
    """
    if not texts:
        raise UsageError(f"distribution {path} lists no states")
    # m cells take at least 2m - 1 characters, so fewer in all means a short
    # row; this also bounds the occupation array by the size of the rows
    if m < 1 or sum(map(len, texts)) < len(texts) * (2 * m - 1):
        raise UsageError(f"distribution {path} has a blank state or one whose length is not m={m}")
    # filled in place: no chunk result outlives its chunk's temporaries
    occ = np.empty((len(texts), m), dtype=np.uint8)
    for start in range(0, len(texts), st.FORMAT_CHUNK):
        occ[start:start + st.FORMAT_CHUNK] = _decode_states(
            texts[start:start + st.FORMAT_CHUNK], m, n, path)
    return occ


# JSON types each scalar field of a distribution file must have; a bool is no number
JSON_FIELDS = {"m": (int,), "n": (int,), "family": (str,), "raw_mass": (int, float),
               "renormalized": (bool,)}


def _distribution_from_json(text: str, path: str) -> dstr.OutputDistribution:
    try:
        doc = json.loads(text)
        fields = {key: doc[key] for key in (*JSON_FIELDS, "states", "probs")}
    except (ValueError, KeyError, TypeError) as exc:  # JSONDecodeError is a ValueError
        raise UsageError(f"cannot read distribution {path}: {exc!r}") from exc
    for key, types in JSON_FIELDS.items():
        if type(fields[key]) not in types:
            raise UsageError(f"distribution {path}: {key!r} must be "
                             f"{' or '.join(t.__name__ for t in types)}, got {fields[key]!r}")
    texts, probs = fields["states"], fields["probs"]
    if not isinstance(texts, list) or not set(map(type, texts)) <= {str}:
        raise UsageError(f"distribution {path}: 'states' must be a list of strings")
    if not isinstance(probs, list) or not set(map(type, probs)) <= {int, float}:
        raise UsageError(f"distribution {path}: 'probs' must be a list of numbers")
    try:
        probs, raw_mass = np.array(probs, dtype=np.float64), float(fields["raw_mass"])
    except OverflowError as exc:  # an integer beyond the float range
        raise UsageError(f"cannot read distribution {path}: {exc}") from exc
    m, n = fields["m"], fields["n"]
    return dstr.OutputDistribution(
        m=m, n_detected=n, family=fields["family"], states=_parse_states(texts, m, n, path),
        probs=probs, raw_mass=raw_mass, renormalized=fields["renormalized"],
    )


# the line ends str.splitlines knows besides '\n', the ASCII ones first
_OTHER_LINE_ENDS = ("\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
# the ASCII characters str.isspace knows
_ASCII_SPACES = b" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"
# bytes of a distribution CSV searched at a time for its '\n' and ',' bytes:
# no temporary the size of the file
SCAN_BYTES = 1 << 16


def _positions(data: bytes, start: int, byte: int) -> np.ndarray:
    """The offsets of byte in data from start on, ascending."""
    buf = np.frombuffer(data, dtype=np.uint8)
    found = [np.flatnonzero(buf[i:i + SCAN_BYTES] == byte) + i
             for i in range(start, len(data), SCAN_BYTES)]
    return np.concatenate(found) if found else np.zeros(0, dtype=np.intp)


def _csv_rows(data: bytes) -> tuple[int, np.ndarray, np.ndarray]:
    """(body, starts, ends) of CSV bytes: where the rows begin, after the lines
    that start with '#' or 'state,', and the [start, end) byte range of each
    '\n'-ended row (the last one may lack its '\n')."""
    body = 0
    while data.startswith((b"#", b"state,"), body):
        body = data.find(b"\n", body) + 1 or len(data)
    ends = _positions(data, body, ord("\n"))
    if len(data) > body and not data.endswith(b"\n"):
        ends = np.append(ends, len(data))
    starts = np.concatenate(([body], ends[:-1] + 1)) if ends.size else ends
    return body, starts, ends


def _csv_layout(data: bytes, plain: bool) -> tuple[bytes, int, np.ndarray, np.ndarray]:
    """(data, body, starts, ends): the UTF-8 bytes of a distribution CSV and
    _csv_rows of them; plain says its only line end is '\n'.

    A plain file in the layout `distribution` writes ('#' and 'state,' lines,
    then rows that are neither, nor blank) is read as it is. Any other is
    first rewritten in that layout from its str.splitlines lines: its '#'
    lines, then the lines that are neither blank nor a 'state,' line.
    """
    body, starts, ends = _csv_rows(data)
    lead = np.frombuffer(data, dtype=np.uint8)[starts]
    laid_out = plain and not (
        np.any(starts == ends)  # a blank line among the rows
        or np.any(lead == ord("#"))
        or any(data.startswith(b"state,", i) for i in starts[lead == ord("s")]))
    if laid_out:
        return data, body, starts, ends
    lines = data.decode("utf-8").splitlines()
    data = "\n".join([ln for ln in lines if ln[:1] == "#"]
                     + [ln for ln in lines if ln and not ln.startswith(("#", "state,"))]
                     ).encode("utf-8")
    return (data, *_csv_rows(data))


def _distribution_from_csv(data: bytes, size: int, plain: bool,
                           path: str) -> dstr.OutputDistribution:
    """The distribution of a CSV file of size characters, given as its UTF-8
    bytes; plain says its only line end is '\n'."""
    data, body, starts, ends = _csv_layout(data, plain)
    header = {}
    for line in data[:body].decode("utf-8").splitlines():
        if line[:1] == "#":
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
    count = len(starts)
    if not count:
        raise UsageError(f"distribution {path} lists no states")
    # a row takes at least 2m characters (m cells, m - 1 ':' and its ','), so
    # the occupation array never outgrows the file
    if m < 1 or 2 * m * count > size:
        raise UsageError(f"distribution {path} has a blank state or one whose length is not m={m}")
    # every row holds one ',': the file's i-th ',' lies in row i
    commas = _positions(data, body, ord(","))
    one_comma = None
    if commas.size != count or np.any(commas < starts) or np.any(commas >= ends):
        one_comma = np.bincount(np.searchsorted(ends, commas), minlength=count + 1)[:count] == 1
    del commas

    def row(i):
        return data[starts[i]:ends[i]].decode("utf-8")

    # filled in place: no chunk result outlives its chunk's temporaries
    occ = np.empty((count, m), dtype=np.uint8)
    probs = np.empty(count, dtype=np.float64)
    for start in range(0, count, st.FORMAT_CHUNK):
        stop = min(start + st.FORMAT_CHUNK, count)
        if one_comma is not None and not one_comma[start:stop].all():
            bad = row(start + int(np.argmin(one_comma[start:stop])))
            raise UsageError(f"malformed distribution row {bad!r} in {path}: "
                             "it needs exactly one ','")
        # state, probability, state, ...
        cells = data[starts[start]:ends[stop - 1]].decode("utf-8").replace("\n", ",").split(",")
        try:
            probs[start:stop] = list(map(float, cells[1::2]))
        except ValueError:
            for i, cell in enumerate(cells[1::2], start):
                try:
                    float(cell)
                except ValueError as exc:
                    raise UsageError(f"malformed distribution row {row(i)!r} in {path}") from exc
        occ[start:stop] = _decode_states(cells[0::2], m, n, path)
    return dstr.OutputDistribution(
        m=m, n_detected=n, family=header["family"], states=occ, probs=probs,
        raw_mass=raw_mass, renormalized=header["renormalized"] == "True",
    )


def distribution_from_file(path: str) -> dstr.OutputDistribution:
    """A distribution file written by `distribution`, CSV or JSON.

    CSV rows are read FORMAT_CHUNK at a time. Blank lines and '#' lines may
    sit anywhere, and every str.splitlines line ending is accepted. Unreadable
    or malformed files are usage errors; a well-formed file whose values are
    not a distribution raises InvalidDistributionError.
    """
    data = _read_bytes(path, "distribution")
    if data.isascii() and b"\r" not in data:
        # the text is the bytes: str.lstrip would strip the ASCII spaces here
        if data.lstrip(_ASCII_SPACES).startswith(b"{"):
            return _distribution_from_json(data.decode("ascii"), path)
        plain = not any(end.encode("ascii") in data for end in _OTHER_LINE_ENDS[:6])
        return _distribution_from_csv(data, len(data), plain, path)
    text = _decode(data, path, "distribution")
    if text.lstrip().startswith("{"):
        return _distribution_from_json(text, path)
    # the CSV reader holds the file once, as UTF-8 bytes
    size, plain = len(text), not any(end in text for end in _OTHER_LINE_ENDS)
    data = text.encode("utf-8")
    del text
    return _distribution_from_csv(data, size, plain, path)


# ----------------------------------------------------------- subcommands


def _read_matrix(path: str) -> np.ndarray:
    """Matrix JSON from `path`; unreadable, unparsable or incomplete files exit 2."""
    text = _read_text(path, "matrix")
    try:
        return matrix_from_json(text)
    except ScattershotError:
        raise
    except (ValueError, KeyError, TypeError) as exc:  # JSONDecodeError is a ValueError
        raise UsageError(f"cannot read matrix {path}: {exc!r}") from exc


def _resolve_unitary(args) -> tuple[np.ndarray, dict]:
    if args.unitary is not None:
        u = _read_matrix(args.unitary)
        dev = unitarity_defect(u)
        if dev > UNITARY_TOL:
            raise InvalidConfigurationError(
                f"--unitary {args.unitary} is not unitary: "
                f"max|U U^H - I| = {dev:.3g} > {UNITARY_TOL:g}"
            )
        return u, {"unitary": "file"}
    if args.m is None:
        raise UsageError("need --unitary FILE or --m with --seed")
    u = haar_random_unitary(args.m, np.random.SeedSequence(args.seed).spawn(2)[0])
    return u, {"m": args.m, "haar_seed": args.seed}


def cmd_permanent(args) -> int:
    a = _read_matrix(args.matrix)
    if args.method == "naive":
        value = permanent_naive(a)
    elif args.partitions != 1:
        value = permanent_glynn_parallel(a, args.partitions)
    else:
        value = permanent_glynn(a)
    print(f"{value.real:.15g} {value.imag:.15g}")
    return 0


def _build_distribution(args, u):
    input_state = st.state_from_string(args.input)
    if input_state.size != u.shape[0]:
        raise InvalidConfigurationError(
            f"input state length {input_state.size} != unitary dimension {u.shape[0]}"
        )
    if args.loss_in or args.loss_out:
        if args.family == st.FULL_FOCK:
            raise UsageError("--family full-fock cannot be combined with --loss-in/--loss-out: "
                             "lossy distributions are over collision-free detected patterns")
        return dstr.lossy_distribution(
            u, input_state, dstr.LossConfig(args.loss_in, args.loss_out), model=args.model
        )
    return dstr.full_distribution(
        u, input_state, family=args.family, model=args.model, renormalize=args.renormalize
    )


def cmd_distribution(args) -> int:
    u, ucfg = _resolve_unitary(args)
    dist = _build_distribution(args, u)
    config = {
        **ucfg,
        "input": args.input,
        "family": dist.family,
        "model": args.model,
        "loss_in": args.loss_in,
        "loss_out": args.loss_out,
        "renormalized": dist.renormalized,
    }
    parts = distribution_json_parts if args.format == "json" else distribution_csv_parts
    _write_text(args.out, parts(dist, "distribution", config))
    return 0


def cmd_sample(args) -> int:
    u, ucfg = _resolve_unitary(args)
    dist = _build_distribution(args, u)
    if not dist.renormalized:
        raise InvalidConfigurationError("sampling needs --renormalize or a lossy distribution")
    sample_ss = np.random.SeedSequence(args.seed).spawn(2)[1]
    rng = np.random.Generator(np.random.PCG64(sample_ss))
    idx = dstr.sample_event_indices(dist, rng, args.count)
    config = {**ucfg, "input": args.input, "model": args.model, "count": args.count,
              "seed": args.seed, "loss_in": args.loss_in, "loss_out": args.loss_out}

    def parts():
        yield _table("sample", config, "event", [])
        # events are gathered and formatted FORMAT_CHUNK at a time, so no (count, m)
        # array and no count-long list of strings is held
        for lo in range(0, idx.size, st.FORMAT_CHUNK):
            yield "\n".join(st.format_states(dist.states[idx[lo:lo + st.FORMAT_CHUNK]])) + "\n"

    _write_text(args.out, parts())
    return 0


def cmd_tvd(args) -> int:
    p = distribution_from_file(args.p)
    q = distribution_from_file(args.q)
    print(_fmt(dstr.total_variation_distance(p, q)))
    return 0


def cmd_validate(args) -> int:
    loss = dstr.LossConfig(args.loss_in, args.loss_out)
    result = val.min_samples_to_validate(
        m=args.m,
        n=args.n,
        loss=loss,
        ensemble=args.ensemble,
        trials=args.trials,
        confidence=args.confidence,
        seed=args.seed,
        max_samples=args.max_samples,
        workers=args.threads,
    )
    config = {
        "m": args.m, "n": args.n, "loss_in": args.loss_in, "loss_out": args.loss_out,
        "ensemble": args.ensemble, "trials": args.trials,
        "confidence": args.confidence, "seed": args.seed,
    }
    header = ("m,n,n_detected,loss_in,loss_out,min_samples_mean,min_samples_std,"
              "unitaries,trials,confidence")
    row = (
        f"{result.m},{result.n},{result.n_detected},{loss.n_lost_in},{loss.n_lost_out},"
        f"{_fmt(result.min_samples_mean)},{_fmt(result.min_samples_std)},"
        f"{result.unitaries_used},{result.trials_per_unitary},{_fmt(result.confidence)}"
    )
    _write_text(args.out, _table("validate", config, header, [row]))
    if args.detail:
        _write_text(args.detail, _table("validate", config, "unitary_index,min_samples",
                                        (f"{i},{v}" for i, v in enumerate(result.per_unitary))))
    return 0


def cmd_sources(args) -> int:
    doc = load_platform_config(args.config)
    params = params_from_config(doc, m=args.m)
    config = {"platform": doc["platform"], "m": args.m, "n": args.n}
    if doc["platform"] == "qd":
        for flag, value in (("--n-lost", args.n_lost), ("--trials", args.trials),
                            ("--seed", args.seed)):
            if value is not None:
                raise UsageError(f"{flag} does not apply to qd configs, which run no "
                                 f"Monte-Carlo; got {value}")
        if not 1 <= args.n <= args.m:
            raise InvalidConfigurationError(f"need 1 <= n <= m, got n={args.n}, m={args.m}")
        header = "class,analytic"
        lines = [f"{demux},{_fmt(src.p_qd(args.n, args.n, params, demux))}"
                 for demux in ("passive", "active")]
    else:
        trials = 1_000_000 if args.trials is None else args.trials
        seed = 0 if args.seed is None else args.seed
        if doc["platform"] == "spdc":
            if args.n_lost is not None:
                raise UsageError(f"--n-lost does not apply to spdc configs, which list "
                                 f"lossy1..n-1; got {args.n_lost}")
            mc = src.monte_carlo_spdc(args.m, args.n, params, trials, seed)
            rows = [
                ("success", src.p_sbs(args.m, args.n, params), mc.success),
                ("fake", src.p_sbs_fake(args.m, args.n, params), mc.fake),
            ] + [(f"lossy{k}", src.p_sbs_lossy(args.m, args.n, k, params), est)
                 for k, est in mc.lossy.items()]
        else:
            if args.n > args.m:
                raise UsageError(f"--n must not exceed --m={args.m}, got {args.n}")
            n_lost = 1 if args.n_lost is None else args.n_lost
            if not 0 <= n_lost <= args.n:
                raise UsageError(f"--n-lost must lie in [0, --n={args.n}], got {n_lost}")
            mc = src.monte_carlo_mw(args.m, args.n, params, trials, seed)
            rows = [(f"lossy{k}", src.p_mw_lossy_dark(args.m, args.n, k, params), mc[k])
                    for k in range(0, n_lost + 1)]
            config["n_lost"] = n_lost
        header = "class,analytic,mc_estimate,mc_stderr,sigmas"
        lines = [f"{name},{_fmt(analytic)},{_fmt(est.probability)},{_fmt(est.stderr)},"
                 f"{_fmt(est.sigmas_from(analytic))}" for name, analytic, est in rows]
        config.update(trials=trials, seed=seed)
    _write_text(args.out, _table("sources", config, header, lines))
    return 0


def cmd_supremacy(args) -> int:
    doc = load_platform_config(args.config)
    platform = doc["platform"]
    if args.step < 1:
        raise UsageError(f"--step must be >= 1, got {args.step}")
    if args.m_min > args.m_max:
        raise UsageError(f"--m-min {args.m_min} exceeds --m-max {args.m_max}")
    if not 0 <= args.include_lossy <= 2:
        # every SPDC event window holds n=3, and a lossy class needs n_lost < n
        raise UsageError(f"--include-lossy must lie in [0, 2], got {args.include_lossy}")
    if platform != "spdc" and args.include_lossy != 1:
        # quantum-dot and microwave sweeps always list exactly one lossy class
        raise UsageError(f"--include-lossy applies to spdc configs only, got "
                         f"{args.include_lossy} for {platform!r}")
    if platform != "qd" and args.demux != "active":
        # only quantum-dot sources are demultiplexed
        raise UsageError(f"--demux applies to qd configs only, got {args.demux!r} "
                         f"for {platform!r}")
    m_range = range(args.m_min, args.m_max + 1, args.step)
    params = params_from_config(doc, m=args.m_min)
    if platform == "spdc":
        points = sup.supremacy_sweep_spdc(
            m_range, params, a_prime=args.a_prime,
            eta_schedule=eta_schedule_from_config(doc),
            include_lossy_up_to=args.include_lossy,
        )
    elif platform == "qd":
        points = sup.supremacy_sweep_qd(
            m_range, params, demux=args.demux, a_prime=args.a_prime,
            eta_schedule=eta_schedule_from_config(doc),
        )
    else:
        points = sup.supremacy_sweep_mw(m_range, params, a_prime=args.a_prime)
    config = {"platform": platform, "m_min": args.m_min, "m_max": args.m_max,
              "step": args.step, "a_prime": args.a_prime,
              "include_lossy": args.include_lossy}
    if platform == "qd":
        config["demux"] = args.demux
    rows = (f"{p.m},{p.n_policy},{p.event_class},{_fmt(p.t_c)},{_fmt(p.t_q)},{_fmt(p.ratio)}"
            for p in points)
    _write_text(args.out, _table("supremacy", config, "m,n_policy,event_class,t_c,t_q,ratio",
                                 rows))
    return 0


# ----------------------------------------------------------------- parser


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser. Every subcommand is listed with its help, but when
    `command` names one, only that one gets its arguments: a call parses no
    other, and on a Xeon core all of them took 1.6-2.0 ms against 0.7-1.0."""
    parser = argparse.ArgumentParser(
        prog="scattershot",
        description="Lossy scattershot boson sampling simulator and analysis toolkit",
    )
    parser.add_argument("--version", action="version", version=f"scattershot {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def at_least(flag: str, low: int):
        def parse(text: str) -> int:
            # a non-integer is argparse's own error; argparse lets UsageError through to main
            value = int(text)
            if value < low:
                raise UsageError(f"{flag} must be >= {low}, got {value}")
            return value
        parse.__name__ = flag.lstrip("-")  # argparse names the flag by it in its own errors
        return parse

    seed = at_least("--seed", 0)

    def add_threads(q, help="worker count for parallel chunks (default: all cores)"):
        q.add_argument("--threads", type=at_least("--threads", 1), default=os.cpu_count() or 1,
                       help=help + "; never changes results")

    def permanent(p):
        add_threads(p)
        p.add_argument("--matrix", required=True, help="matrix JSON file {m, re, im}")
        p.add_argument("--method", choices=("glynn", "naive"), default="glynn")
        p.add_argument("--partitions", type=int, default=1)

    def add_dist_args(q):
        q.add_argument("--unitary", help="unitary JSON file; otherwise Haar from --m/--seed")
        q.add_argument("--m", type=int, help="modes for a Haar-random unitary")
        q.add_argument("--seed", type=seed, default=0)
        q.add_argument("--input", required=True, help="input state, e.g. 1:1:1:0")
        q.add_argument("--family", choices=(st.COLLISION_FREE, st.FULL_FOCK),
                       default=st.COLLISION_FREE)
        q.add_argument("--model", choices=(dstr.INDISTINGUISHABLE, dstr.DISTINGUISHABLE),
                       default=dstr.INDISTINGUISHABLE)
        q.add_argument("--loss-in", type=int, default=0)
        q.add_argument("--loss-out", type=int, default=0)
        q.add_argument("--renormalize", action="store_true")
        q.add_argument("--out", help="output path (stdout if omitted)")

    def distribution(p):
        add_threads(p)
        add_dist_args(p)
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    def sample(p):
        add_dist_args(p)
        p.add_argument("--count", type=int, required=True)

    def tvd(p):
        add_threads(p)
        p.add_argument("--p", required=True)
        p.add_argument("--q", required=True)

    def validate(p):
        add_threads(p)
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--n", type=int, required=True,
                       help="photons propagated through the interferometer")
        p.add_argument("--loss-in", type=int, default=0)
        p.add_argument("--loss-out", type=int, default=0)
        p.add_argument("--ensemble", type=int, default=50)
        p.add_argument("--trials", type=int, default=500)
        p.add_argument("--confidence", type=float, default=0.95)
        p.add_argument("--seed", type=seed, default=0)
        p.add_argument("--max-samples", type=int, default=2000)
        p.add_argument("--out", help="CSV path (stdout if omitted)")
        p.add_argument("--detail", help="optional per-unitary CSV path")

    def sources(p):
        add_threads(p, "accepted and unused: the Monte-Carlo runs on one thread")
        p.add_argument("--config", required=True, help="platform config JSON")
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--n-lost", type=int,
                       help="microwave only: list lossy0..N-LOST (default 1); SPDC lists "
                            "lossy1..n-1")
        p.add_argument("--trials", type=int,
                       help="Monte-Carlo shots (default 1000000); not for qd configs")
        p.add_argument("--seed", type=seed,
                       help="Monte-Carlo seed (default 0); not for qd configs")
        p.add_argument("--out", help="CSV path (stdout if omitted)")

    def supremacy(p):
        add_threads(p)
        p.add_argument("--config", required=True)
        p.add_argument("--m-min", type=int, required=True)
        p.add_argument("--m-max", type=int, required=True)
        p.add_argument("--step", type=int, default=1)
        p.add_argument("--a-prime", type=float, default=sup.A_PRIME_TIANHE2)
        p.add_argument("--include-lossy", type=int, default=1)
        p.add_argument("--demux", choices=("passive", "active"), default="active")
        p.add_argument("--out", help="CSV path (stdout if omitted)")

    commands = {
        "permanent": ("permanent of a JSON matrix", permanent, cmd_permanent),
        "distribution": ("exact output distribution", distribution, cmd_distribution),
        "sample": ("draw events from a distribution", sample, cmd_sample),
        "tvd": ("total variation distance of two saved distributions", tvd, cmd_tvd),
        "validate": ("minimum samples to certify against distinguishable", validate,
                     cmd_validate),
        "sources": ("analytic source probabilities vs Monte-Carlo", sources, cmd_sources),
        "supremacy": ("classical vs quantum time sweep", supremacy, cmd_supremacy),
    }
    for name, (text, add_args, func) in commands.items():
        p = sub.add_parser(name, help=text)
        if command not in commands or command == name:
            add_args(p)
            p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage-error: {exc}", file=sys.stderr)
        return 2
    except ScattershotError as exc:
        print(f"{exc.category}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
