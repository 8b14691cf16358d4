"""Likelihood-ratio certification against the distinguishable-photon sampler.

For each Haar unitary the detected-pattern distribution is built under both
hypotheses from one basis with identical loss averaging, event streams are
drawn from the quantum side, and the running product of probability ratios is
tracked. The minimum sample size is the first stream length at which the
required fraction of independent streams exceeds ratio 1.

Every stream's uniforms are drawn up front, so the streams are fixed by the
seed, but they are read by doubling prefixes: events are looked up and their
log-ratios summed only for the columns of the next block, and reading stops at
the first block that holds the answer. The answer is 10-120 in practice
against a cap of hundreds to thousands, so most of each stream is never read.
A block is looked up a few rows at a time through `distribution._lookup`,
which orders each chunk of uniforms before its inverse-CDF search and
scatters the results back, so the indices are those of an unsorted search
bit for bit at a third of its cost on the larger bases.

The ensemble shares one basis, its states and their expansion index (see
distribution.py), and its unitaries may run on a thread pool; each one's
minimum depends only on its own seeds. A build walks the index with one
vector per level alive, so a unitary holds a few vectors of the basis size
and its (trials, max_samples) uniforms.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import states as st
from .distribution import (
    DISTINGUISHABLE,
    INDISTINGUISHABLE,
    LOOKUP_CHUNK,
    MAX_DRAWS,
    LossConfig,
    OutputDistribution,
    _cdf,
    _distributions,
    _lookup,
)
from .errors import (
    DegenerateHypothesisError,
    InstanceTooLargeError,
    InsufficientDataError,
    InvalidConfigurationError,
)
from .linalg import haar_random_unitary
from .sources import _pool_map

# length of the first stream prefix read; each further block doubles it
FIRST_PREFIX = 32
# most unitaries one validate runs: their SeedSequence children are spawned up
# front at about 400 bytes each (tracemalloc), so at most about 40 MB of seeds
MAX_ENSEMBLE = 100_000


def _log_ratios(p_bs: OutputDistribution, p_dist: OutputDistribution) -> np.ndarray:
    support = p_bs.probs > 0.0
    if np.any(support & (p_dist.probs == 0.0)):
        raise DegenerateHypothesisError(
            "alternative hypothesis assigns zero probability to a reachable event"
        )
    out = np.full(p_bs.probs.size, -np.inf)
    out[support] = np.log(p_bs.probs[support]) - np.log(p_dist.probs[support])
    return out


@dataclass
class ValidationResult:
    """Minimum-sample-size estimate for one (n, loss) configuration."""

    m: int
    n: int
    n_detected: int
    loss: LossConfig
    min_samples_mean: float
    min_samples_std: float
    unitaries_used: int
    trials_per_unitary: int
    confidence: float
    seed: int
    per_unitary: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.min_samples_mean < 1:
            raise InvalidConfigurationError("minimum sample size below 1")


def _min_samples_single(u, n, loss, trials, confidence, stream_seed, max_samples, basis):
    """Smallest N at which >= confidence of the trial streams have V_N > 1.

    Both hypotheses are built on the ensemble's `basis`, its collision-free
    detected family.

    The (trials, max_samples) uniforms come from one draw, as a full read
    would use them, and are read by doubling prefixes: columns [done, end)
    are looked up and summed, with end = 32, 64, ... capped at max_samples, and
    reading stops at the first block in which the fraction reaches
    confidence. A block's events are looked up LOOKUP_CHUNK uniforms' worth of
    rows at a time, straight into its `steps`. Each stream's running log-ratio
    is added into its block's first column before an in-place cumsum, so every
    partial sum associates exactly as in a cumsum over the whole stream and
    the answer is the one a full read gives.
    """
    m = u.shape[0]
    heralded = np.zeros(m, dtype=np.uint8)
    heralded[: n + loss.n_lost_in] = 1
    p_bs, p_cl = _distributions(u, heralded, loss, (INDISTINGUISHABLE, DISTINGUISHABLE),
                                basis=basis)
    log_r = _log_ratios(p_bs, p_cl)
    cdf = _cdf(p_bs.probs)
    rng = np.random.Generator(np.random.PCG64(stream_seed))
    draws = rng.random(trials * max_samples).reshape(trials, max_samples)
    carry = np.zeros(trials)
    done = 0
    while done < max_samples:
        end = min(max(2 * done, FIRST_PREFIX), max_samples)
        steps = np.empty((trials, end - done))
        rows = max(1, LOOKUP_CHUNK // (end - done))
        for lo in range(0, trials, rows):
            part = steps[lo:lo + rows].reshape(-1)  # a view: steps is C-contiguous
            idx = _lookup(cdf, draws[lo:lo + rows, done:end].ravel(), np.empty(part.size, np.intp))
            # every uniform is below cdf[-1] = 1.0, so every index is in range
            np.take(log_r, idx, out=part, mode="clip")
        steps[:, 0] += carry
        cums = np.cumsum(steps, axis=1, out=steps)
        hits = np.nonzero(np.mean(cums > 0.0, axis=0) >= confidence)[0]
        if hits.size:
            return done + int(hits[0]) + 1
        carry = cums[:, -1].copy()
        done = end
    raise InsufficientDataError(
        f"validation did not reach {confidence:.0%} within {max_samples} samples"
    )


def min_samples_to_validate(
    m: int,
    n: int,
    loss: LossConfig,
    ensemble: int = 50,
    trials: int = 500,
    confidence: float = 0.95,
    seed: int = 0,
    max_samples: int = 2000,
    workers: int = 1,
) -> ValidationResult:
    """Minimum data-set size to certify (lossy) sampling, Haar-ensemble averaged.

    n counts the photons propagated through the interferometer: n + n_lost_in
    are heralded and n - n_lost_out are detected. Per unitary, `trials`
    independent event streams are drawn from the lossy quantum distribution
    and the per-unitary minimum is the smallest N whose streams exceed V = 1
    at the confidence level. Seeds for unitaries and streams derive from the
    single seed, so results are reproducible and order-independent.

    The ensemble shares one basis. Unitaries run on up to `workers` threads
    (capped at the ensemble size and the CPU count) and their minima are
    assembled by index, so the result is the same for any worker count.
    """
    if ensemble < 2:
        raise InvalidConfigurationError("need an ensemble of at least 2 unitaries")
    if trials < 50:
        raise InvalidConfigurationError("need at least 50 trial streams per unitary")
    if not 0.0 < confidence < 1.0:
        raise InvalidConfigurationError(f"confidence must lie in (0, 1), got {confidence}")
    if max_samples < 1:
        raise InvalidConfigurationError(f"need max_samples >= 1, got {max_samples}")
    n_det = n - loss.n_lost_out
    if n_det < 1:
        raise InvalidConfigurationError("output losses leave no detected photons")
    if n + loss.n_lost_in > m:
        raise InvalidConfigurationError("heralded photons exceed mode count")
    if ensemble > MAX_ENSEMBLE:
        raise InstanceTooLargeError(
            f"an ensemble of {ensemble} unitaries exceeds the cap of {MAX_ENSEMBLE}")
    if trials * max_samples > MAX_DRAWS:
        raise InstanceTooLargeError(
            f"{trials} streams of {max_samples} events exceed the cap of {MAX_DRAWS} draws"
        )
    basis = st.enumerate_states(m, n_det, st.COLLISION_FREE)

    def single(child):
        u_ss, stream_ss = child.spawn(2)
        u = haar_random_unitary(m, u_ss)
        return _min_samples_single(u, n, loss, trials, confidence, stream_ss, max_samples, basis)

    children = np.random.SeedSequence(seed).spawn(ensemble)
    per_unitary = np.array(_pool_map(single, children, workers), dtype=np.int64)
    return ValidationResult(
        m=m,
        n=n,
        n_detected=n_det,
        loss=loss,
        min_samples_mean=float(per_unitary.mean()),
        min_samples_std=float(per_unitary.std(ddof=1)),
        unitaries_used=ensemble,
        trials_per_unitary=trials,
        confidence=confidence,
        seed=seed,
        per_unitary=per_unitary,
    )


def fit_sample_scaling(points) -> tuple[float, float]:
    """Least-squares fit of min_samples = A + B n^-3 over (n, samples) pairs."""
    pts = [(float(n), float(s)) for n, s in points]
    if len({n for n, _ in pts}) < 3:
        raise InsufficientDataError("scaling fit needs at least 3 distinct n")
    ns = np.array([n for n, _ in pts])
    ys = np.array([s for _, s in pts])
    design = np.column_stack([np.ones_like(ns), ns**-3.0])
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    return float(coef[0]), float(coef[1])
