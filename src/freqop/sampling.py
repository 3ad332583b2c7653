"""Seeded Monte Carlo draws from a preparation's outcome weights.

Draws use the Philox counter-based generator keyed by the seed, so a record
is reproducible bit for bit from (seed, n_samples, state) alone, on any
platform. Outcomes come from one uniform stream through the inverse CDF,
drawn in blocks of ``DRAW_BLOCK``; the Philox stream does not depend on how
the draws are split, so neither does the record.

The inverse CDF is read through buckets (H.-C. Chen and Y. Asau, AIIE Trans.
6, 163, 1974): a draw ``u`` lands in bucket ``floor(u G)`` of ``G`` equal
buckets, and a bucket with no CDF edge inside it belongs to one outcome
whole, so only draws in the few buckets that an edge splits are compared
with the edges. ``G`` is a power of two and every uniform a multiple of
2**-53, so ``u G`` and the scaled edges are exact and every comparison is
the one a search of the unscaled edges would make.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import StateVector, UnitaryMatrix

DRAW_BLOCK = 2**20  # draws per block, so memory stays bounded for any n_samples
MAX_DRAWS = 10**9  # about 33 s of drawing, so time stays bounded too
MAX_BUCKETS = 2**16  # most buckets of the inverse CDF, so its tables stay small


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
    # an axis-0 sum in place of a BLAS product, so no bit depends on the threads
    return np.abs((basis.entries.conj() * s.amps[:, None]).sum(axis=0)) ** 2


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
    # a draw u is outcome #{i < d - 1 : edge_i <= u}: the last edge only caps
    # the index at d - 1, so it is dropped. Below the cap there are at least
    # 2**8 buckets per outcome, so few draws land in a split bucket.
    buckets = min(MAX_BUCKETS, 2 ** ((d - 1).bit_length() + 8))
    edges = np.cumsum(p)[:-1] * buckets
    first = np.floor(edges)
    split = np.zeros(buckets, dtype=bool)
    split[first[(edges != first) & (edges < buckets)].astype(np.intp)] = True
    per_bucket = np.zeros(buckets, dtype=np.int64)
    counts = np.zeros(d, dtype=np.int64)
    u = np.empty(min(DRAW_BLOCK, n_samples))
    idx = np.empty(u.size, dtype=np.intp)
    for start in range(0, n_samples, DRAW_BLOCK):
        m = min(DRAW_BLOCK, n_samples - start)
        v, b = u[:m], idx[:m]
        rng.random(out=v)
        v *= buckets
        b[...] = v  # truncation: the bucket of each draw
        per_bucket += np.bincount(b, minlength=buckets)
        near = np.searchsorted(edges, v[split[b]], side="right")
        counts += np.bincount(near, minlength=d)
    # a bucket no edge splits gives all its draws to the outcome of its lower end
    per_bucket[split] = 0
    np.add.at(counts, np.searchsorted(edges, np.arange(buckets), side="right"), per_bucket)
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
