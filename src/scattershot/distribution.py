"""Exact boson-sampling output distributions and their lossy averages.

Indistinguishable photons follow the squared-permanent rule; the
distinguishable-particle alternative uses the permanent of the elementwise
|u|^2 matrix. One private builder, `_distributions`, makes every table, for
one or both particle models from one basis.

Loss here is uniform and mode-independent: every photon is equally likely to
be lost, wherever it is. Such loss commutes with a passive linear
interferometer (Aaronson and Brod, "BosonSampling with lost photons",
arXiv:1510.05245), so with l photons lost in all the detected distribution
does not depend on where they were lost: `LossConfig(a, b)` gives the table of
`LossConfig(a + b, 0)`. The builder therefore averages uniformly over the
injected subsets of the heralded photons that reach the detectors, and
evaluates each subset's permanents over the detected family only. A bunched
heralded state reaches some injected mode tuples several ways; each distinct
tuple is evaluated once and weighted by that multiplicity. A table with
output loss is renormalized over the collision-free detected family.
Mode-dependent loss would not commute and is not modelled.
`full_distribution` (lossless) and `lossy_distribution` are single calls into
the builder; certification calls it for both models at once, on one basis
shared by the whole ensemble.

The permanents come from one memoized Laplace recursion, not one Glynn sum
per pattern. Expanding along the injected modes in order, level k holds the
permanent of every k-photon output row set against a length-k prefix of an
injected tuple, each a k-term sum over level k - 1, so patterns that differ by
one photon share their minors. Its index (`states.expansion_index`, which
`states.enumerate_states` returns with the basis) depends only on
(m, n_det, family); a depth-first walk of the tuples' prefix tree keeps one
vector per level. The same pass serves lossless and lossy tables, bunched
heralded states and full-Fock outputs.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import states as st
from .errors import (
    InstanceTooLargeError,
    InvalidComparisonError,
    InvalidConfigurationError,
    InvalidDistributionError,
)
from .linalg import build_submatrix, mode_indices, occupation_factorial, photon_number
from .permanent import _glynn, permanent_glynn

INDISTINGUISHABLE = "indistinguishable"
DISTINGUISHABLE = "distinguishable"

NORMALIZATION_TOL = 1e-9
# rows per chunk of an expansion level: its temporaries are a few such chunks
EXPAND_ROWS = 1 << 14
# most uniforms one sample or one validate unitary draws (8 bytes each): ten
# times validate's defaults, 500 streams of 2000 events
MAX_DRAWS = 10_000_000
# keys sorted together by one inverse-CDF lookup chunk
LOOKUP_CHUNK = 1 << 14


@dataclass
class OutputDistribution:
    """Probability table over one n-photon state family.

    states holds the (K, m) occupation vectors in the canonical lexicographic
    order, probs the matching probabilities. raw_mass is the total probability
    mass before any renormalization.
    """

    m: int
    n_detected: int
    family: str
    states: np.ndarray
    probs: np.ndarray
    raw_mass: float
    renormalized: bool

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.shape != (len(self.states),):
            raise InvalidDistributionError(
                f"{self.probs.size} probabilities for {len(self.states)} states"
            )
        if np.any(self.probs < -1e-15):
            raise InvalidDistributionError("negative probability entry")
        self.probs = np.clip(self.probs, 0.0, None)
        # the sum of non-negative entries is finite only if every entry is
        total = float(self.probs.sum())
        if not (math.isfinite(total) and math.isfinite(self.raw_mass)):
            raise InvalidDistributionError("non-finite probability or raw_mass")
        if self.renormalized and abs(total - 1.0) > NORMALIZATION_TOL:
            raise InvalidDistributionError(f"renormalized distribution sums to {total!r}")

    def __len__(self) -> int:
        return self.probs.size


def bs_probability(u: np.ndarray, input_state, output_state) -> float:
    """|per(U_{S,T})|^2 / (prod s_i! prod t_j!) for indistinguishable photons.

    With distinguishable_probability, build_submatrix and occupation_factorial
    this is the independent per-pattern reference: one Glynn permanent per
    output pattern. The tests and perfbench's checks use it; no program path
    does.
    """
    sub = build_submatrix(u, input_state, output_state)
    per = permanent_glynn(sub)
    norm = occupation_factorial(input_state) * occupation_factorial(output_state)
    return float(abs(per) ** 2 / norm)


def distinguishable_probability(u: np.ndarray, input_state, output_state) -> float:
    """per(|U_{S,T}|^2) / prod t_j!, the classical-particle transition rule.

    Part of the independent per-pattern reference (see bs_probability): the
    tests and perfbench's checks use it; no program path does.
    """
    sub = build_submatrix(u, input_state, output_state)
    per = _glynn(np.abs(sub) ** 2, 1)
    return float(per / occupation_factorial(output_state))


def full_distribution(
    u: np.ndarray,
    input_state,
    family: str = st.COLLISION_FREE,
    model: str = INDISTINGUISHABLE,
    renormalize: bool = False,
) -> OutputDistribution:
    """Exact lossless output distribution of one input state over a whole family."""
    return _distributions(u, input_state, LossConfig(), (model,), family, renormalize)[0]


@dataclass(frozen=True)
class LossConfig:
    """Photon losses before injection and before output detection."""

    n_lost_in: int = 0
    n_lost_out: int = 0

    def __post_init__(self):
        if self.n_lost_in < 0 or self.n_lost_out < 0:
            raise InvalidConfigurationError("loss counts must be >= 0")

    @property
    def total(self) -> int:
        return self.n_lost_in + self.n_lost_out


def lossy_distribution(
    u: np.ndarray,
    heralded_state,
    loss: LossConfig,
    model: str = INDISTINGUISHABLE,
) -> OutputDistribution:
    """Detected-pattern distribution of a heralded input under known losses.

    n_her photons are heralded, loss.n_lost_in are lost before the
    interferometer and loss.n_lost_out of the propagated photons before
    detection, each uniformly at random. Since uniform loss commutes with the
    interferometer, this is the average over the injected subsets of
    n_her - loss.total heralded photons (see the module docstring); the
    heralded state may be bunched. The result is renormalized over the
    collision-free detected family.
    """
    return _distributions(u, heralded_state, loss, (model,))[0]


def _targets(her: np.ndarray, n_det: int) -> list:
    """(modes, multiplicity) of each distinct injected subset of n_det heralded photons.

    The mode tuples come in lexicographic order, so tuples that share a prefix
    are neighbours; a bunched heralded state reaches some tuples several ways.
    """
    return list(Counter(combinations(mode_indices(her).tolist(), n_det)).items())


def _expand(cols: np.ndarray, index: list, targets: list, squared: bool) -> np.ndarray:
    """Sum over targets of weight * |per|^2 / (input factorials), or of weight * per,
    for every row set of the index's last level.

    Level k holds per(cols[R, target[:k]]) for every k-row set R, by the
    Laplace expansion along the k-th injected mode: a k-term sum over level
    k - 1. `levels` is the stack of a depth-first walk of the targets' prefix
    tree, so a target recomputes only the levels below the prefix it shares
    with the one before, and one vector per level is alive. Rows are computed
    in chunks of EXPAND_ROWS, and the last level goes into the sum chunk by
    chunk, so the temporaries stay within a few chunks whatever the family.
    """
    n = len(index)
    acc = np.zeros(index[-1][0].shape[1])
    chunk = np.empty(EXPAND_ROWS, cols.dtype)
    term = np.empty(EXPAND_ROWS, cols.dtype)
    levels = [np.ones(1, cols.dtype)]  # level 0: the permanent of the empty minor
    prev = ()
    for target, weight in targets:
        keep = 0
        while keep < len(prev) and prev[keep] == target[keep]:
            keep += 1
        del levels[keep + 1:]
        if squared:
            weight /= math.prod(math.factorial(c) for c in Counter(target).values())
        for k in range(keep + 1, n + 1):
            modes, parents = index[k - 1]
            col, below = cols[:, target[k - 1]], levels[k - 1]
            size = modes.shape[1]
            level = np.empty(size, cols.dtype) if k < n else None
            for lo in range(0, size, EXPAND_ROWS):
                hi = min(lo + EXPAND_ROWS, size)
                per = chunk[: hi - lo] if level is None else level[lo:hi]
                # every index is in range, and mode "clip" skips the buffered
                # copy of `out` that "raise" makes
                np.take(col, modes[0, lo:hi], out=per, mode="clip")
                per *= np.take(below, parents[0, lo:hi], mode="clip")
                part = term[: hi - lo]
                for t in range(1, k):
                    np.take(col, modes[t, lo:hi], out=part, mode="clip")
                    part *= np.take(below, parents[t, lo:hi], mode="clip")
                    per += part
                if level is None:
                    if squared:
                        per = np.abs(per) ** 2
                    per *= weight
                    acc[lo:hi] += per
            if level is not None:
                levels.append(level)
        prev = target
    return acc


def _distributions(u, state, loss: LossConfig, models, family=st.COLLISION_FREE,
                   renormalize=True, basis=None) -> list:
    """The distribution of each model in turn, all from one basis.

    state holds the heralded photons; loss.total of them are lost, and as
    output loss is input loss (see the module docstring) the table averages
    uniformly over the injected subsets of the rest. Without output loss the
    result spans `family` and is renormalized if `renormalize`; with it, the
    result is always renormalized over the collision-free detected family.
    The detected basis (occ, index) comes from `basis`, as
    `states.enumerate_states` returns it, or is built here when it is None.
    Each model walks the index on its own column block, u or |u|^2, so each
    result equals a one-model call bit for bit.
    """
    her = np.asarray(state)
    m = u.shape[0]
    n_her = photon_number(her)
    if n_her < 1:
        raise InvalidConfigurationError("need at least one photon")
    if loss.total >= n_her:
        raise InvalidConfigurationError(
            f"losses ({loss.total}) must be fewer than heralded photons ({n_her})"
        )
    for model in models:
        if model not in (INDISTINGUISHABLE, DISTINGUISHABLE):
            raise InvalidConfigurationError(f"unknown particle model {model!r}")
    n_det = n_her - loss.total
    if loss.n_lost_out:
        family, renormalize = st.COLLISION_FREE, True
    occ, index = st.enumerate_states(m, n_det, family) if basis is None else basis
    targets = _targets(her, n_det)
    subsets = sum(weight for _, weight in targets)
    out_fact = None
    if family == st.FULL_FOCK:
        fact = np.array([math.factorial(i) for i in range(n_det + 1)], dtype=np.float64)
        out_fact = np.prod(fact[occ], axis=1)

    dists = []
    for model in models:
        squared = model == INDISTINGUISHABLE
        row = _expand(u if squared else np.abs(u) ** 2, index, targets, squared)
        if out_fact is not None:
            row /= out_fact
        row /= subsets
        mass = float(row.sum())
        if renormalize and mass == 0.0:
            raise InvalidDistributionError(
                "cannot renormalize: no state of the table is reachable (zero mass)")
        dists.append(OutputDistribution(
            m=m,
            n_detected=n_det,
            family=family,
            states=occ,
            probs=row / mass if renormalize else row,
            raw_mass=mass,
            renormalized=renormalize,
        ))
    return dists


def _require_comparable(p: OutputDistribution, q: OutputDistribution) -> None:
    """Refuse two distributions whose probabilities cannot be compared by position:
    another family, m or n, an unrenormalized table, or state lists that differ."""
    if (p.family, p.m, p.n_detected) != (q.family, q.m, q.n_detected):
        raise InvalidComparisonError(
            f"family mismatch: {(p.family, p.m, p.n_detected)} vs {(q.family, q.m, q.n_detected)}"
        )
    if not (p.renormalized and q.renormalized):
        raise InvalidComparisonError("comparison needs renormalized distributions")
    if not np.array_equal(p.states, q.states):
        raise InvalidComparisonError("state lists differ; probabilities are compared by position")


def total_variation_distance(p: OutputDistribution, q: OutputDistribution) -> float:
    """0.5 * sum |p_i - q_i| over a shared, renormalized family whose state
    lists match row for row."""
    _require_comparable(p, q)
    return float(0.5 * np.sum(np.abs(p.probs - q.probs)))


def _cdf(probs: np.ndarray) -> np.ndarray:
    """Cumulative probabilities for inverse-CDF draws, the last pinned to 1.0 so
    every uniform in [0, 1) lands on a state despite rounding in the sum."""
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    return cdf


def _lookup(cdf: np.ndarray, uniforms: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write np.searchsorted(cdf, uniforms, side="right") into out and return it.

    The 1-D uniforms, each in [0, 1), are looked up LOOKUP_CHUNK keys at a
    time: a chunk is put in order, searched in that order and the results are
    scattered back to the keys' positions. A key's result does not depend on
    the other keys or their order, so out is the unsorted search's bit for
    bit. In order, each binary search starts where the last one ended and its
    branches are predictable, which makes it several times faster on a large
    CDF. The order sorts the keys by their leading 16 bits only (a radix
    argsort of uint16, a third of the cost of a float argsort); keys that
    share those bits fall within 2**-16 of each other.
    """
    for lo in range(0, uniforms.size, LOOKUP_CHUNK):
        keys = uniforms[lo:lo + LOOKUP_CHUNK]
        order = np.argsort((keys * 65536.0).astype(np.uint16), kind="stable")
        out[lo:lo + keys.size][order] = np.searchsorted(cdf, keys[order], side="right")
    return out


def sample_event_indices(dist: OutputDistribution, seed, count: int) -> np.ndarray:
    """Inverse-CDF draws of state indices; deterministic for a fixed seed."""
    if count < 0:
        raise InvalidConfigurationError(f"sample count must be >= 0, got {count}")
    if count > MAX_DRAWS:
        raise InstanceTooLargeError(f"{count} draws exceed the cap of {MAX_DRAWS}")
    if not dist.renormalized:
        raise InvalidDistributionError("sampling needs a renormalized distribution")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed))
    )
    return _lookup(_cdf(dist.probs), rng.random(count), np.empty(count, np.int64))
