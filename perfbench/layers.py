"""Per-layer metrics from the spans of one traced iteration.

Every workload reports every metric; a layer the workload never reaches
reads 0. Self time is a span's duration minus the time its children cover,
so nested layers are not counted twice.
"""
from __future__ import annotations

from collections import defaultdict

from tracer import self_times

SUBCOMMANDS = ("validate", "permanent", "distribution", "tvd", "supremacy", "sources")
BATCH_NS = (3, 4, 5, 6, 7)

# (name, unit, better)
PER_LAYER = (
    [(f"cmd.{sub}_s", "s", "lower") for sub in SUBCOMMANDS]
    + [(f"cli.{sub}.self_s", "s", "lower") for sub in SUBCOMMANDS]
    + [
        ("cli.bytes_written", "bytes", "lower"),
        ("cli.bytes_read", "bytes", "lower"),
        ("permanent.glynn.self_s", "s", "lower"),
        ("permanent.glynn.calls", "count", "lower"),
        ("permanent.glynn.terms", "count", "lower"),
        ("permanent.glynn.terms_per_s", "1/s", "higher"),
        ("permanent.glynn_parallel.self_s", "s", "lower"),
        ("permanent.glynn_parallel.speedup", "ratio", "higher"),
        ("permanent.batch.self_s", "s", "lower"),
        ("permanent.batch.perms", "count", "lower"),
    ]
    + [(f"permanent.batch.us_per_perm.n{n}", "us", "lower") for n in BATCH_NS]
    + [
        ("permanent.batch.peak_mb", "MB", "lower"),
        ("states.enumerate.self_s", "s", "lower"),
        ("states.enumerate.calls", "count", "lower"),
        ("states.enumerate.states", "count", "lower"),
        ("states.enumerate.repeat_frac", "frac", "lower"),
        ("linalg.haar.self_s", "s", "lower"),
        ("linalg.haar.calls", "count", "lower"),
        ("distribution.build.self_s", "s", "lower"),
        ("distribution.build.calls", "count", "lower"),
        ("distribution.build.states_out", "count", "lower"),
        ("distribution.build.peak_mb", "MB", "lower"),
        ("distribution.sample.self_s", "s", "lower"),
        ("distribution.sample.draws", "count", "lower"),
        ("distribution.sample.ns_per_draw", "ns", "lower"),
        ("validation.self_s", "s", "lower"),
        ("validation.unitaries", "count", "higher"),
        ("sources.p_sbs.self_s", "s", "lower"),
        ("sources.p_sbs.calls", "count", "lower"),
        ("sources.p_sbs_lossy.self_s", "s", "lower"),
        ("sources.p_sbs_lossy.calls", "count", "lower"),
        ("sources.p_sbs_fake.self_s", "s", "lower"),
        ("sources.p_sbs_fake.calls", "count", "lower"),
        ("sources.mw.self_s", "s", "lower"),
        ("sources.mw.calls", "count", "lower"),
        ("sources.mc_spdc.self_s", "s", "lower"),
        ("sources.mc_spdc.trials_per_s", "1/s", "higher"),
        ("sources.mc_mw.self_s", "s", "lower"),
        ("supremacy.self_s", "s", "lower"),
        ("supremacy.points", "count", "higher"),
        ("trace.overhead_frac", "frac", "lower"),
    ]
)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans, mem_spans, cmd_s: dict, untraced_wall: float,
                  traced_wall: float) -> dict:
    """Every PER_LAYER metric from the traced and memory passes."""
    selfs = self_times(spans)
    by_name = defaultdict(list)  # name -> [(self seconds, attrs)]
    for sid, _parent, name, _start, _end, attrs in sorted(spans, key=lambda s: s[3]):
        by_name[name].append((selfs[sid], attrs))

    def total(name: str) -> float:
        return sum(s for s, _ in by_name[name])

    def count(name: str, key: str) -> int:
        return sum(a.get(key, 0) for _, a in by_name[name])

    def calls(name: str) -> int:
        return len(by_name[name])

    out = {f"cmd.{sub}_s": cmd_s.get(sub, 0.0) for sub in SUBCOMMANDS}
    for sub in SUBCOMMANDS:
        out[f"cli.{sub}.self_s"] = sum(s for s, a in by_name["cli"] if a["sub"] == sub)
    out["cli.bytes_written"] = count("cli", "bytes_written")
    out["cli.bytes_read"] = count("cli", "bytes_read")

    glynn = by_name["permanent.glynn"]
    out["permanent.glynn.self_s"] = total("permanent.glynn")
    out["permanent.glynn.calls"] = calls("permanent.glynn")
    out["permanent.glynn.terms"] = sum(2 ** (a["n"] - 1) for _, a in glynn if "n" in a)
    out["permanent.glynn.terms_per_s"] = _ratio(out["permanent.glynn.terms"],
                                                out["permanent.glynn.self_s"])
    parallel = by_name["permanent.glynn_parallel"]
    out["permanent.glynn_parallel.self_s"] = total("permanent.glynn_parallel")
    # serial over parallel seconds per call, at the largest n both ran
    shared = {a.get("n") for _, a in glynn} & {a.get("n") for _, a in parallel}
    speedup = 0.0
    if shared - {None}:
        n = max(shared - {None})
        ser = [s for s, a in glynn if a.get("n") == n]
        par = [s for s, a in parallel if a.get("n") == n]
        speedup = _ratio(sum(ser) / len(ser), sum(par) / len(par))
    out["permanent.glynn_parallel.speedup"] = speedup

    batch = by_name["permanent.batch"]
    out["permanent.batch.self_s"] = total("permanent.batch")
    out["permanent.batch.perms"] = count("permanent.batch", "k")
    for n in BATCH_NS:
        sec = sum(s for s, a in batch if a.get("n") == n)
        perms = sum(a["k"] for _, a in batch if a.get("n") == n)
        out[f"permanent.batch.us_per_perm.n{n}"] = _ratio(sec * 1e6, perms)

    enum = by_name["states.enumerate"]
    seen, repeats = set(), 0
    for _, a in enum:
        key = a.get("key")
        repeats += key in seen
        seen.add(key)
    out["states.enumerate.self_s"] = total("states.enumerate")
    out["states.enumerate.calls"] = len(enum)
    out["states.enumerate.states"] = count("states.enumerate", "states")
    out["states.enumerate.repeat_frac"] = _ratio(repeats, len(enum))

    out["linalg.haar.self_s"] = total("linalg.haar")
    out["linalg.haar.calls"] = calls("linalg.haar")
    out["distribution.build.self_s"] = total("distribution.build")
    out["distribution.build.calls"] = calls("distribution.build")
    out["distribution.build.states_out"] = count("distribution.build", "states_out")
    out["distribution.sample.self_s"] = total("distribution.sample")
    out["distribution.sample.draws"] = count("distribution.sample", "draws")
    out["distribution.sample.ns_per_draw"] = _ratio(out["distribution.sample.self_s"] * 1e9,
                                                    out["distribution.sample.draws"])
    out["validation.self_s"] = total("validation")
    out["validation.unitaries"] = count("validation", "unitaries")

    for name in ("p_sbs", "p_sbs_lossy", "p_sbs_fake", "mw"):
        out[f"sources.{name}.self_s"] = total(f"sources.{name}")
        out[f"sources.{name}.calls"] = calls(f"sources.{name}")
    out["sources.mc_spdc.self_s"] = total("sources.mc_spdc")
    out["sources.mc_spdc.trials_per_s"] = _ratio(count("sources.mc_spdc", "trials"),
                                                 out["sources.mc_spdc.self_s"])
    out["sources.mc_mw.self_s"] = total("sources.mc_mw")
    out["supremacy.self_s"] = total("supremacy")
    out["supremacy.points"] = count("supremacy", "points")

    peaks = defaultdict(int)
    for _sid, _parent, name, _start, _end, attrs in mem_spans:
        peaks[name] = max(peaks[name], attrs.get("peak_bytes", 0))
    out["permanent.batch.peak_mb"] = peaks["permanent.batch"] / 2**20
    out["distribution.build.peak_mb"] = peaks["distribution.build"] / 2**20
    out["trace.overhead_frac"] = _ratio(traced_wall - untraced_wall, untraced_wall)
    return out
