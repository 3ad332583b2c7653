"""Seeded Monte Carlo draws from a preparation's outcome weights.

Draws use the Philox counter-based generator keyed by the seed, so a record
is reproducible bit for bit from (seed, n_samples, state) alone, on any
platform. Outcomes come from one uniform stream through the inverse CDF,
drawn in blocks of ``DRAW_BLOCK``; the Philox stream does not depend on how
the draws are split, so neither does the record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import StateVector, UnitaryMatrix

DRAW_BLOCK = 2**20  # draws per block, so memory stays bounded for any n_samples
MAX_DRAWS = 10**9  # about 33 s of drawing, so time stays bounded too


@dataclass(frozen=True)
class MeasurementRecord:
    """Counts and diagnostics for one sampling run.

    ``z_scores[i]`` is the normal-approximation score of ``counts[i]``
    against the binomial with weight ``probabilities[i]``; outcomes with
    weight exactly 0 or 1 have no spread and score 0 by convention.
    All fields are plain tuples, so equality is bit-exact replay equality.
    """

    seed: int
    n_samples: int
    probabilities: tuple[float, ...]
    counts: tuple[int, ...]
    empirical_freq: tuple[float, ...]
    z_scores: tuple[float, ...]


def outcome_probabilities(
    s: StateVector, basis: UnitaryMatrix | None = None
) -> np.ndarray:
    """``|<k|s>|^2`` for every outcome ``k`` of the measurement basis."""
    if basis is None:
        return np.abs(s.amps) ** 2
    if basis.dim != s.dim:
        raise ValueError(f"basis dim {basis.dim} does not match state dim {s.dim}")
    return np.abs(basis.entries.conj().T @ s.amps) ** 2


def sample_ensemble(
    s: StateVector,
    n_samples: int,
    seed: int,
    basis: UnitaryMatrix | None = None,
) -> MeasurementRecord:
    """Draw ``n_samples`` outcomes from the preparation ``s``.

    The empirical frequencies estimate the outcome weights with binomial
    spread ``sqrt(p(1-p)/n)``; the returned z-scores measure each count
    against that. Identical arguments give an identical record.
    """
    if not 1 <= n_samples <= MAX_DRAWS:
        raise ValueError(f"n_samples must be in 1..{MAX_DRAWS}")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValueError("seed must be a non-negative integer")
    p = outcome_probabilities(s, basis)
    d = p.size
    rng = np.random.Generator(np.random.Philox(key=seed))
    edges = np.cumsum(p)
    counts = np.zeros(d, dtype=np.int64)
    for start in range(0, n_samples, DRAW_BLOCK):
        u = rng.random(min(DRAW_BLOCK, n_samples - start))
        idx = np.searchsorted(edges, u, side="right")
        np.minimum(idx, d - 1, out=idx)
        counts += np.bincount(idx, minlength=d)
    freq = counts / n_samples
    z = np.zeros(d)
    spread = p * (1.0 - p)
    live = spread > 0.0
    z[live] = (freq[live] - p[live]) * np.sqrt(n_samples / spread[live])
    return MeasurementRecord(
        seed=seed,
        n_samples=n_samples,
        probabilities=tuple(float(x) for x in p),
        counts=tuple(int(c) for c in counts),
        empirical_freq=tuple(float(f) for f in freq),
        z_scores=tuple(float(x) for x in z),
    )


def max_abs_z(record: MeasurementRecord) -> float:
    return max((abs(z) for z in record.z_scores), default=0.0)
