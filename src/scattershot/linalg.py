"""Complex linear algebra and Fock-state bookkeeping.

Provides Haar-random unitary generation, occupation-vector helpers and the
row/column-repeated submatrix construction that turns an (input, output)
Fock-state pair into the square matrix whose permanent gives the transition
amplitude.
"""
from __future__ import annotations

import json
import math

import numpy as np

from .errors import InvalidConfigurationError, InvalidDimensionError

UNITARITY_TOL = 1e-12


def haar_random_unitary(m: int, seed) -> np.ndarray:
    """Draw an m x m unitary from the Haar measure, deterministically from seed.

    Uses QR of a complex Ginibre matrix with the R-diagonal phases folded back
    into Q, which makes the QR map measure-correct. The same (m, seed) pair
    always returns the same matrix; seed may be an integer or a SeedSequence.
    """
    if m < 1:
        raise InvalidDimensionError(f"unitary dimension must be >= 1, got {m}")
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rng = np.random.Generator(np.random.PCG64(ss))
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    defect = unitarity_defect(q)
    if defect > UNITARITY_TOL:
        raise InvalidDimensionError(f"QR produced non-unitary matrix, defect {defect:g}")
    return q


def unitarity_defect(u: np.ndarray) -> float:
    """Max-norm of U U^dagger - I."""
    m = u.shape[0]
    return float(np.max(np.abs(u @ u.conj().T - np.eye(m))))


def photon_number(state) -> int:
    return int(np.sum(state))


def mode_indices(state) -> np.ndarray:
    """Flatten an occupation vector into repeated mode indices, ascending.

    (0, 2, 1) -> [1, 1, 2]
    """
    occ = np.asarray(state, dtype=np.int64)
    if np.any(occ < 0):
        raise InvalidConfigurationError("occupations must be non-negative")
    return np.repeat(np.arange(occ.size), occ)


def build_submatrix(u: np.ndarray, input_state, output_state) -> np.ndarray:
    """Build U_{S,T}: column i repeated s_i times, row j repeated t_j times.

    Rows follow the output occupations, columns the input occupations, both in
    ascending mode order. Requires equal photon number on both sides.

    Part of the independent per-pattern reference (see
    distribution.bs_probability): the tests and perfbench's checks use it; no
    program path does.
    """
    s = np.asarray(input_state)
    t = np.asarray(output_state)
    if s.size != u.shape[1] or t.size != u.shape[0]:
        raise InvalidConfigurationError(
            f"state length ({s.size}, {t.size}) does not match unitary dimension {u.shape[0]}"
        )
    n_in, n_out = photon_number(s), photon_number(t)
    if n_in != n_out:
        raise InvalidConfigurationError(
            f"photon number mismatch: input {n_in}, output {n_out}"
        )
    if n_in < 1:
        raise InvalidConfigurationError("need at least one photon")
    rows = mode_indices(t)
    cols = mode_indices(s)
    return u[np.ix_(rows, cols)]


def occupation_factorial(state) -> float:
    """Product of occupation-number factorials, s_1! ... s_m!.

    Part of the independent per-pattern reference (see
    distribution.bs_probability): the tests and perfbench's checks use it; no
    program path does.
    """
    return float(math.prod(math.factorial(int(k)) for k in np.asarray(state)))


def matrix_from_json(text: str) -> np.ndarray:
    doc = json.loads(text)
    m = int(doc["m"])
    re = np.asarray(doc["re"], dtype=np.float64)
    im = np.asarray(doc["im"], dtype=np.float64)
    if re.shape != (m, m) or im.shape != (m, m):
        raise InvalidDimensionError(
            f"matrix JSON claims m={m} but arrays have shapes {re.shape}, {im.shape}"
        )
    a = re + 1j * im
    if not np.all(np.isfinite(re)) or not np.all(np.isfinite(im)):
        raise InvalidDimensionError("matrix entries must be finite")
    return a
