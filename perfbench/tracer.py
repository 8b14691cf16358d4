"""Outside-in span tracer for the scattershot layers.

The tracer never edits the program. It replaces public entry points with
timing wrappers in every namespace that binds them: the defining module
(which covers `module.f` calls and the module's own internal calls) and each
module that did `from module import f`. Private helpers are never wrapped,
so rewrites that delete or rename them keep the trace valid; an entry point
that no longer exists is skipped and reported as missing.

Spans (id, parent, name, start, end, attrs) are kept in memory. Counts are
taken from each call's arguments and result at the same boundary, so ratios
such as terms per second are measured where the work happens. With
`memory=True` every span also records the peak bytes allocated during the
call as seen by tracemalloc (numpy reports its buffers to it); that pass is
run separately because tracemalloc slows Python-heavy code.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager


def _n_of(a) -> int:
    return int(getattr(a, "shape", (len(a),))[0])


def _count_states(bound, result):
    m, n, family = bound["m"], bound["n"], bound["family"]
    return {"key": (int(m), int(n), str(family)), "states": int(result[0].shape[0])}


# (defining module, public function, span name, counts from (arguments, result))
TARGETS = [
    ("scattershot.permanent", "permanent_glynn", "permanent.glynn",
     lambda b, r: {"n": _n_of(b["a"])}),
    ("scattershot.permanent", "permanent_glynn_parallel", "permanent.glynn_parallel",
     lambda b, r: {"n": _n_of(b["a"])}),
    ("scattershot.permanent", "permanents_batch", "permanent.batch",
     lambda b, r: {"k": int(b["mats"].shape[0]), "n": int(b["mats"].shape[1])}),
    ("scattershot.states", "enumerate_states", "states.enumerate", _count_states),
    ("scattershot.linalg", "haar_random_unitary", "linalg.haar", None),
    ("scattershot.distribution", "full_distribution", "distribution.build",
     lambda b, r: {"states_out": len(r.probs)}),
    ("scattershot.distribution", "lossy_distribution", "distribution.build",
     lambda b, r: {"states_out": len(r.probs)}),
    ("scattershot.distribution", "detected_distribution", "distribution.build",
     lambda b, r: {"states_out": len(r.probs)}),
    ("scattershot.distribution", "sample_event_indices", "distribution.sample",
     lambda b, r: {"draws": int(b["count"])}),
    ("scattershot.validation", "min_samples_to_validate", "validation",
     lambda b, r: {"unitaries": int(r.unitaries_used)}),
    ("scattershot.sources", "p_sbs", "sources.p_sbs", None),
    ("scattershot.sources", "p_sbs_lossy", "sources.p_sbs_lossy", None),
    ("scattershot.sources", "p_sbs_fake", "sources.p_sbs_fake", None),
    ("scattershot.sources", "p_mw_lossy", "sources.mw", None),
    ("scattershot.sources", "p_mw_lossy_dark", "sources.mw", None),
    ("scattershot.sources", "monte_carlo_spdc", "sources.mc_spdc",
     lambda b, r: {"trials": int(b["trials"])}),
    ("scattershot.sources", "monte_carlo_mw", "sources.mc_mw",
     lambda b, r: {"trials": int(b["trials"])}),
    ("scattershot.supremacy", "supremacy_sweep_spdc", "supremacy",
     lambda b, r: {"points": len(r)}),
    ("scattershot.supremacy", "supremacy_sweep_qd", "supremacy",
     lambda b, r: {"points": len(r)}),
    ("scattershot.supremacy", "supremacy_sweep_mw", "supremacy",
     lambda b, r: {"points": len(r)}),
]


class Tracer:
    """Collects spans from wrapped entry points and from explicit `span()` blocks."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> list:
        """Open a frame: [id, parent, start, base bytes, peak bytes]."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        frame = [next(self._ids), parent[0] if parent else None, 0.0, 0, 0]
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent[4] = max(parent[4], peak)
            tracemalloc.reset_peak()
            frame[3] = frame[4] = current
        stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _exit(self, frame: list, name: str, attrs: dict) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if self.memory:
            peak = max(frame[4], tracemalloc.get_traced_memory()[1])
            attrs["peak_bytes"] = peak - frame[3]
            if stack:
                stack[-1][4] = max(stack[-1][4], peak)
            tracemalloc.reset_peak()
        self.spans.append((frame[0], frame[1], name, frame[2], end, attrs))

    @contextmanager
    def span(self, name: str, **attrs):
        """Explicit span around a block; the yielded dict takes extra counts."""
        frame = self._enter()
        try:
            yield attrs
        finally:
            self._exit(frame, name, attrs)

    def _wrap(self, func, name: str, counts):
        sig = inspect.signature(func)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            frame = self._enter()
            attrs: dict = {}
            try:
                result = func(*args, **kwargs)
            except BaseException:
                attrs["error"] = True
                self._exit(frame, name, attrs)
                raise
            self._exit(frame, name, attrs)
            if counts is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs.update(counts(bound.arguments, result))
            return result

        return wrapper

    def install(self) -> None:
        """Patch every binding of each target inside the loaded scattershot modules."""
        modules = [mod for key, mod in list(sys.modules.items())
                   if mod is not None and (key == "scattershot" or key.startswith("scattershot."))]
        for mod_name, func_name, span_name, counts in TARGETS:
            home = sys.modules.get(mod_name)
            func = getattr(home, func_name, None) if home is not None else None
            if not callable(func):
                self.missing.append(f"{mod_name}.{func_name}")
                continue
            wrapper = self._wrap(func, span_name, counts)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is func:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, func))

    def uninstall(self) -> None:
        for mod, key, func in reversed(self._patches):
            setattr(mod, key, func)
        self._patches.clear()


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that its children cover."""
    children: dict[int, list] = {}
    for sid, parent, _name, start, end, _attrs in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _parent, _name, start, end, _attrs in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out
