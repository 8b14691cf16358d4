"""The three benchmark workloads: generated inputs, CLI calls and output checks.

Every input is made here from the workload seed: matrix and unitary JSON
files, input states, `--seed` values, and copies of the platform configs.
The program only receives these files and flags. Thread and partition flags
are passed explicitly (THREADS), so the environment cannot change them.

Each check is seed-independent: it tests an identity or a band that a
correct program meets for any input the generator can make. Statistical
bands are sized so that a correct program fails fewer than 1 in 10^4 runs.
"""
from __future__ import annotations

import json
import math
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

THREADS = "2"

# Glynn on a block-diagonal matrix against the naive oracle, per block
PERMANENT_BLOCKS = (7, 7, 7)
PERMANENT_RTOL = 1e-9
PROB_RTOL = 1e-12
PROB_ATOL = 1e-15
MASS_TOL = 1e-9
# Monte-Carlo agreement, in standard errors; a correct program exceeds 5 sigma
# about once in 2e6 checks, and a run makes at most a few dozen
MC_SIGMAS = 5.0
# p_sbs_fake keeps a documented few-percent bias against the exact process
FAKE_BIAS = 0.08
# documented envelope of the approximate dark-count closed form
MW_DARK_ENVELOPE = (0.8, 1.4)


@dataclass
class Call:
    """One CLI invocation: its subcommand, argv, and the files it reads and writes."""

    sub: str
    argv: list
    reads: list = field(default_factory=list)
    writes: list = field(default_factory=list)


class Checker:
    """Counts attempted and failed output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return bool(ok)


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def _state_string(occ) -> str:
    return ":".join(str(int(k)) for k in occ)


def _occupation(text: str) -> np.ndarray:
    return np.array([int(tok) for tok in text.split(":")], dtype=np.int64)


def _write_matrix(path: str, a: np.ndarray) -> None:
    with open(path, "w") as fh:
        json.dump({"m": a.shape[0], "re": a.real.tolist(), "im": a.imag.tolist()}, fh)


def _haar(rng: np.random.Generator, m: int) -> np.ndarray:
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _input_state(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    occ = np.zeros(m, dtype=np.int64)
    occ[rng.choice(m, size=n, replace=False)] = 1
    return occ


def _seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(0, 2**31 - 1)))


def read_distribution(path: str) -> dict:
    """Parse a distribution artifact (CSV or JSON) without the program's reader."""
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        doc = json.loads(text)
        return {
            "m": int(doc["m"]), "n": int(doc["n"]), "family": doc["family"],
            "renormalized": bool(doc["renormalized"]), "raw_mass": float(doc["raw_mass"]),
            "states": list(doc["states"]), "probs": np.array(doc["probs"], dtype=np.float64),
        }
    header, states, probs = {}, [], []
    for line in text.splitlines():
        if line.startswith("#"):
            for tok in line[1:].split():
                key, sep, value = tok.partition("=")
                if sep:
                    header[key] = value
        elif line and not line.startswith("state,"):
            state, prob = line.rsplit(",", 1)
            states.append(state)
            probs.append(float(prob))
    return {
        "m": int(header["m"]), "n": int(header["n"]), "family": header["family"],
        "renormalized": header["renormalized"] == "True",
        "raw_mass": float(header["raw_mass"]),
        "states": states, "probs": np.array(probs, dtype=np.float64),
    }


def read_csv_rows(path: str) -> list[dict]:
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    keys = lines[0].split(",")
    return [dict(zip(keys, ln.split(","))) for ln in lines[1:]]


# ------------------------------------------------------------------ certify

# (m, n, loss_in, loss_out, ensemble, max_samples, per-unitary mean, per-unitary std)
# Mean and std of the per-unitary minimum sample size come from 60 Haar
# unitaries per case at trials=500; the band for an ensemble mean of k is
# mean - 6 s/sqrt(k) .. mean + 8 s/sqrt(k) with s = 1.25 std (the upper side
# is wider because the per-unitary distribution is right-skewed).
CERTIFY_CASES = [
    (20, 3, 0, 0, 10, 300, 16.0, 2.8),
    (20, 4, 0, 0, 10, 300, 12.1, 1.3),
    (20, 5, 0, 0, 10, 300, 10.6, 1.2),
    (20, 3, 1, 0, 10, 700, 51.4, 5.7),
    (20, 4, 1, 0, 10, 700, 40.1, 4.0),
    (20, 3, 0, 1, 10, 1500, 105.1, 25.2),
    (30, 5, 0, 0, 4, 200, 10.4, 1.2),
    (30, 4, 1, 0, 4, 700, 38.2, 4.6),
    (30, 4, 0, 1, 4, 1500, 50.7, 7.1),
]
CERTIFY_TRIALS = 500


def certify_band(mean: float, std: float, k: int) -> tuple[float, float]:
    s = 1.25 * std / math.sqrt(k)
    return max(1.0, mean - 6.0 * s), mean + 8.0 * s


def certify_warmup(work: str) -> list:
    return [["validate", "--m", "6", "--n", "2", "--ensemble", "2", "--trials", "50",
             "--max-samples", "100", "--seed", "0", "--threads", THREADS,
             "--out", os.path.join(work, "warm_validate.csv")]]


def certify_inputs(rng: np.random.Generator, work: str):
    calls = []
    for i, (m, n, li, lo, ens, max_s, _mean, _std) in enumerate(CERTIFY_CASES):
        out = os.path.join(work, f"validate{i}.csv")
        detail = os.path.join(work, f"validate{i}_detail.csv")
        calls.append(Call("validate", [
            "validate", "--m", str(m), "--n", str(n), "--loss-in", str(li),
            "--loss-out", str(lo), "--ensemble", str(ens), "--trials", str(CERTIFY_TRIALS),
            "--max-samples", str(max_s), "--seed", _seed(rng), "--threads", THREADS,
            "--out", out, "--detail", detail,
        ], writes=[out, detail]))
    return calls, {}


def certify_check(ctx, calls, results, chk: Checker) -> None:
    for call, case in zip(calls, CERTIFY_CASES):
        m, n, li, lo, ens, max_s, mean, std = case
        tag = f"validate m={m} n={n} loss=({li},{lo})"
        row = read_csv_rows(call.writes[0])[0]
        chk.check((int(row["m"]), int(row["n"]), int(row["n_detected"]),
                   int(row["loss_in"]), int(row["loss_out"])) == (m, n, n - lo, li, lo),
                  f"{tag}: echoed configuration")
        chk.check(int(row["unitaries"]) == ens and int(row["trials"]) == CERTIFY_TRIALS,
                  f"{tag}: ensemble and trials")
        lo_b, hi_b = certify_band(mean, std, ens)
        got = float(row["min_samples_mean"])
        chk.check(lo_b <= got <= hi_b, f"{tag}: mean {got} outside [{lo_b:.1f}, {hi_b:.1f}]")
        per = [int(r["min_samples"]) for r in read_csv_rows(call.writes[1])]
        chk.check(len(per) == ens and all(1 <= v <= max_s for v in per),
                  f"{tag}: per-unitary minima")
        chk.check(_close(float(np.mean(per)), got, 1e-12), f"{tag}: detail mean")


def certify_corrupt(ctx, calls, results) -> None:
    path = calls[0].writes[0]
    mean = read_csv_rows(path)[0]["min_samples_mean"]
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text.replace(f",{mean},", f",{float(mean) * 3.0!r},"))


# -------------------------------------------------------------------- exact

EXACT_M = 20


def exact_warmup(work: str) -> list:
    rng = np.random.default_rng(0)
    matrix = os.path.join(work, "warm_matrix.json")
    unitary = os.path.join(work, "warm_unitary.json")
    _write_matrix(matrix, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    _write_matrix(unitary, _haar(rng, 6))
    p, q = os.path.join(work, "warm_p.csv"), os.path.join(work, "warm_q.csv")
    dist = ["distribution", "--unitary", unitary, "--input", "1:1:0:0:0:0",
            "--renormalize", "--threads", THREADS, "--out"]
    return [
        ["permanent", "--matrix", matrix, "--threads", THREADS],
        dist + [p],
        dist + [q, "--model", "distinguishable"],
        ["tvd", "--p", p, "--q", q, "--threads", THREADS],
    ]


def exact_inputs(rng: np.random.Generator, work: str):
    size = sum(PERMANENT_BLOCKS)
    blocks = [(rng.standard_normal((b, b)) + 1j * rng.standard_normal((b, b))) / math.sqrt(2.0)
              for b in PERMANENT_BLOCKS]
    a = np.zeros((size, size), dtype=np.complex128)
    lo = 0
    for blk in blocks:
        a[lo:lo + blk.shape[0], lo:lo + blk.shape[0]] = blk
        lo += blk.shape[0]
    # row and column permutations keep the permanent and hide the block layout
    a = a[rng.permutation(size)][:, rng.permutation(size)]
    matrix = os.path.join(work, "matrix.json")
    _write_matrix(matrix, a)
    u = _haar(rng, EXACT_M)
    unitary = os.path.join(work, "unitary.json")
    _write_matrix(unitary, u)
    in7, in6, in4 = (_input_state(rng, EXACT_M, n) for n in (7, 6, 4))
    p, q = os.path.join(work, "p.csv"), os.path.join(work, "q.csv")
    lossy, fock = os.path.join(work, "loss_out.json"), os.path.join(work, "full_fock.csv")

    def dist(inp, *extra):
        return ["distribution", "--unitary", unitary, "--input", _state_string(inp),
                *extra, "--threads", THREADS]

    calls = [
        Call("permanent", ["permanent", "--matrix", matrix, "--threads", THREADS],
             reads=[matrix]),
        Call("permanent", ["permanent", "--matrix", matrix, "--partitions", THREADS,
                           "--threads", THREADS], reads=[matrix]),
        Call("distribution", dist(in7, "--renormalize", "--out", p),
             reads=[unitary], writes=[p]),
        Call("distribution", dist(in7, "--renormalize", "--model", "distinguishable",
                                  "--out", q), reads=[unitary], writes=[q]),
        Call("tvd", ["tvd", "--p", p, "--q", q, "--threads", THREADS], reads=[p, q]),
        Call("distribution", dist(in6, "--loss-out", "1", "--format", "json", "--out", lossy),
             reads=[unitary], writes=[lossy]),
        Call("distribution", dist(in4, "--family", "full-fock", "--out", fock),
             reads=[unitary], writes=[fock]),
    ]
    ctx = {"blocks": blocks, "u": u, "in7": in7, "in6": in6, "spot": rng.integers(0, 2**31 - 1)}
    return calls, ctx


def _parse_complex(text: str) -> complex:
    re_s, im_s = text.split()
    return complex(float(re_s), float(im_s))


def exact_check(ctx, calls, results, chk: Checker) -> None:
    from scattershot.distribution import bs_probability, distinguishable_probability
    from scattershot.permanent import permanent_naive

    u = ctx["u"]
    spot = np.random.default_rng(ctx["spot"])
    serial, parallel = results[0].stdout, results[1].stdout
    expect = complex(np.prod([permanent_naive(b) for b in ctx["blocks"]]))
    got = _parse_complex(serial)
    chk.check(abs(got - expect) <= PERMANENT_RTOL * abs(expect),
              f"permanent: glynn {got} vs block product {expect}")
    chk.check(serial == parallel, "permanent: serial and --partitions output differ")

    dists = {}
    for call, model in ((calls[2], "indistinguishable"), (calls[3], "distinguishable")):
        d = dists[model] = read_distribution(call.writes[0])
        tag = f"distribution n=7 {model}"
        chk.check(len(d["probs"]) == math.comb(EXACT_M, 7) and d["renormalized"],
                  f"{tag}: family size")
        chk.check(abs(float(d["probs"].sum()) - 1.0) <= MASS_TOL, f"{tag}: not normalized")
        chk.check(0.0 < d["raw_mass"] <= 1.0 + MASS_TOL, f"{tag}: raw mass")
        rule = bs_probability if model == "indistinguishable" else distinguishable_probability
        for idx in spot.choice(len(d["probs"]), size=6, replace=False):
            state = _occupation(d["states"][idx])
            want = float(rule(u, ctx["in7"], state)) / d["raw_mass"]
            chk.check(_close(float(d["probs"][idx]), want, PROB_RTOL, PROB_ATOL),
                      f"{tag}: state {d['states'][idx]} has {d['probs'][idx]!r}, expected {want!r}")
    p, q = dists["indistinguishable"], dists["distinguishable"]
    chk.check(p["states"] == q["states"], "tvd inputs list different states")
    want = 0.5 * float(np.sum(np.abs(p["probs"] - q["probs"])))
    chk.check(_close(float(results[4].stdout), want, 0.0, 1e-12),
              f"tvd: printed {results[4].stdout.strip()}, expected {want!r}")

    d = read_distribution(calls[5].writes[0])
    tag = "distribution n=6 loss-out 1"
    chk.check((d["m"], d["n"], d["renormalized"]) == (EXACT_M, 5, True), f"{tag}: header")
    chk.check(len(d["probs"]) == math.comb(EXACT_M, 5), f"{tag}: family size")
    chk.check(abs(float(d["probs"].sum()) - 1.0) <= MASS_TOL, f"{tag}: not normalized")
    chk.check(0.0 < d["raw_mass"] <= 1.0 + MASS_TOL, f"{tag}: raw mass")
    # one photon of six is lost uniformly: raw(T) = sum_j (T + e_j)_j p(T + e_j) / 6
    for idx in spot.choice(len(d["probs"]), size=3, replace=False):
        det = _occupation(d["states"][idx])
        want = 0.0
        for j in range(EXACT_M):
            parent = det.copy()
            parent[j] += 1
            want += int(parent[j]) * float(bs_probability(u, ctx["in6"], parent)) / 6.0
        got = float(d["probs"][idx]) * d["raw_mass"]
        chk.check(_close(got, want, PROB_RTOL, PROB_ATOL),
                  f"{tag}: state {d['states'][idx]} raw {got!r}, expected {want!r}")

    d = read_distribution(calls[6].writes[0])
    tag = "distribution n=4 full-fock"
    chk.check(len(d["probs"]) == math.comb(EXACT_M + 3, 4), f"{tag}: family size")
    chk.check(abs(d["raw_mass"] - 1.0) <= MASS_TOL, f"{tag}: mass {d['raw_mass']!r} != 1")
    chk.check(abs(float(d["probs"].sum()) - 1.0) <= MASS_TOL, f"{tag}: probabilities sum")


def exact_corrupt(ctx, calls, results) -> None:
    value = _parse_complex(results[0].stdout) * (1.0 + 1e-6)
    results[0].stdout = f"{value.real:.15g} {value.imag:.15g}\n"


# -------------------------------------------------------------------- sweep

SPDC_CROSSING = (60, 100)
MW_CROSSING = (40, 60)
SOURCES_M = 10
SPDC_TRIALS = "10000000"
MW_SOURCES = ("16", "3", "2", "2000000")  # m, n, n-lost, trials


def _copy_configs(work: str) -> dict:
    out = {}
    for name in ("spdc", "mw", "qd"):
        out[name] = os.path.join(work, f"{name}.json")
        shutil.copyfile(os.path.join("configs", f"{name}.json"), out[name])
    return out


def sweep_warmup(work: str) -> list:
    cfg = _copy_configs(work)
    return [
        ["supremacy", "--config", cfg["spdc"], "--m-min", "10", "--m-max", "20", "--step", "5",
         "--threads", THREADS, "--out", os.path.join(work, "warm_supremacy.csv")],
        ["sources", "--config", cfg["spdc"], "--m", "6", "--n", "2", "--trials", "20000",
         "--threads", THREADS, "--out", os.path.join(work, "warm_sources.csv")],
    ]


def sweep_inputs(rng: np.random.Generator, work: str):
    cfg = _copy_configs(work)
    out = {k: os.path.join(work, f"{k}.csv")
           for k in ("sup_spdc", "sup_mw", "sup_qd", "src_spdc2", "src_spdc3", "src_mw")}

    def sup(name, m_max, step, key):
        return Call("supremacy", ["supremacy", "--config", cfg[name], "--m-min", "10",
                                  "--m-max", m_max, "--step", step, "--threads", THREADS,
                                  "--out", out[key]], reads=[cfg[name]], writes=[out[key]])

    def spdc(n, key):
        return Call("sources", ["sources", "--config", cfg["spdc"], "--m", str(SOURCES_M),
                                "--n", n, "--trials", SPDC_TRIALS, "--seed", _seed(rng),
                                "--threads", THREADS, "--out", out[key]],
                    reads=[cfg["spdc"]], writes=[out[key]])

    m, n, n_lost, trials = MW_SOURCES
    calls = [
        sup("spdc", "120", "5", "sup_spdc"),
        sup("mw", "70", "1", "sup_mw"),
        sup("qd", "120", "5", "sup_qd"),
        spdc("2", "src_spdc2"),
        spdc("3", "src_spdc3"),
        Call("sources", ["sources", "--config", cfg["mw"], "--m", m, "--n", n,
                         "--n-lost", n_lost, "--trials", trials, "--seed", _seed(rng),
                         "--threads", THREADS, "--out", out["src_mw"]],
             reads=[cfg["mw"]], writes=[out["src_mw"]]),
    ]
    return calls, {"cfg": cfg}


def _crossing(rows) -> int | None:
    gen = sorted((int(r["m"]), float(r["ratio"])) for r in rows
                 if r["event_class"] == "generalized")
    return next((m for m, ratio in gen if ratio >= 1.0), None)


def _mw_exact_process(m: int, n: int, p: dict) -> np.ndarray:
    """P(apparent deficit = k): created ~ Bin(n, p_in), real clicks ~ Bin(created,
    eta_D), dark clicks ~ Bin(m - created, p_dark); deficit = n - real - dark."""
    def binom(k, j, q):
        return math.comb(k, j) * q**j * (1.0 - q) ** (k - j)

    out = np.zeros(n + 1)
    for c in range(n + 1):
        pc = binom(n, c, p["p_in"])
        for r in range(c + 1):
            pr = binom(c, r, p["eta_D"])
            for d in range(m - c + 1):
                lost = n - r - d
                if lost >= 0:
                    out[lost] += pc * pr * binom(m - c, d, p.get("p_dark", 0.0))
    return out


def sweep_check(ctx, calls, results, chk: Checker) -> None:
    from scattershot.cli import load_platform_config, params_from_config
    from scattershot.sources import p_sbs_lossy

    rows = read_csv_rows(calls[0].writes[0])
    chk.check(len(rows) == 3 * len(range(10, 121, 5)), "supremacy spdc: row count")
    cross = _crossing(rows)
    chk.check(cross is not None and SPDC_CROSSING[0] <= cross <= SPDC_CROSSING[1],
              f"supremacy spdc: crossing {cross} outside {SPDC_CROSSING}")
    rows = read_csv_rows(calls[1].writes[0])
    chk.check(len(rows) == 3 * len(range(10, 71)), "supremacy mw: row count")
    cross = _crossing(rows)
    chk.check(cross is not None and MW_CROSSING[0] <= cross <= MW_CROSSING[1],
              f"supremacy mw: crossing {cross} outside {MW_CROSSING}")
    rows = read_csv_rows(calls[2].writes[0])
    chk.check(len(rows) == 3 * len(range(10, 121, 5)), "supremacy qd: row count")
    chk.check(all(float(r["ratio"]) >= 0.0 and math.isfinite(float(r["t_c"])) for r in rows),
              "supremacy qd: ratios")

    params = params_from_config(load_platform_config(ctx["cfg"]["spdc"]), m=SOURCES_M)
    for call, n in ((calls[3], 2), (calls[4], 3)):
        rows = {r["class"]: r for r in read_csv_rows(call.writes[0])}
        tag = f"sources spdc n={n}"
        chk.check(set(rows) == {"success", "fake"} | {f"lossy{k}" for k in range(1, n)},
                  f"{tag}: event classes")
        for name, r in rows.items():
            a, est, se = float(r["analytic"]), float(r["mc_estimate"]), float(r["mc_stderr"])
            slack = FAKE_BIAS * a if name == "fake" else 0.0
            chk.check(abs(a - est) <= MC_SIGMAS * se + slack,
                      f"{tag}: {name} analytic {a!r} vs Monte-Carlo {est!r} +- {se!r}")
        identity = p_sbs_lossy(SOURCES_M, n, 0, params)
        success = float(rows["success"]["analytic"])
        chk.check(_close(identity, success, 1e-12),
                  f"{tag}: p_sbs_lossy(n_lost=0) {identity!r} != p_sbs {success!r}")

    m, n, _n_lost, _trials = (int(x) for x in MW_SOURCES)
    with open(ctx["cfg"]["mw"]) as fh:
        exact = _mw_exact_process(m, n, json.load(fh))
    rows = {r["class"]: r for r in read_csv_rows(calls[5].writes[0])}
    chk.check(set(rows) == {"lossy0", "lossy1", "lossy2"}, "sources mw: event classes")
    for name, r in rows.items():
        k = int(name[len("lossy"):])
        est, se = float(r["mc_estimate"]), float(r["mc_stderr"])
        chk.check(abs(est - exact[k]) <= MC_SIGMAS * se,
                  f"sources mw: {name} Monte-Carlo {est!r} +- {se!r} vs exact {exact[k]!r}")
    lo, hi = MW_DARK_ENVELOPE
    analytic = float(rows["lossy1"]["analytic"])
    chk.check(lo * exact[1] < analytic < hi * exact[1],
              f"sources mw: lossy1 closed form {analytic!r} outside its envelope")


def sweep_corrupt(ctx, calls, results) -> None:
    path = calls[0].writes[0]
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:  # every ratio below 1: the sweep never crosses
        for line in lines:
            fh.write((line.rsplit(",", 1)[0] + ",0.5" if line[:1].isdigit() else line) + "\n")


WORKLOADS = {
    "certify": (certify_warmup, certify_inputs, certify_check, certify_corrupt),
    "exact": (exact_warmup, exact_inputs, exact_check, exact_corrupt),
    "sweep": (sweep_warmup, sweep_inputs, sweep_check, sweep_corrupt),
}
