"""Seeded Monte Carlo draws from a preparation's outcome weights.

Draws use the Philox counter-based generator keyed by the seed, so a record
is reproducible bit for bit from (seed, n_samples, state) alone, on any
platform. Outcomes come from one stream of raw 64-bit Philox words through
the inverse CDF, drawn in blocks of ``DRAW_BLOCK`` words that stay in cache;
the Philox stream does not depend on how the draws are split, so neither
does the record. Word ``w`` stands for the uniform ``u = (w >> 11) 2**-53``,
the double that ``Generator.random`` makes of it.

The inverse CDF is read through buckets (H.-C. Chen and Y. Asau, AIIE Trans.
6, 163, 1974): a draw ``u`` lands in bucket ``floor(u G)`` of ``G`` equal
buckets, and a bucket with no CDF edge inside it belongs to one outcome
whole, so only draws in the few buckets that an edge splits are compared
with the edges. ``G`` is a power of two, so the bucket is the integer
``w >> (64 - log2 G)``, and only draws in split buckets become floats,
``(w >> 11) G 2**-53``. That product and the scaled edges are exact, so
every comparison is the one a search of the unscaled edges would make.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import StateVector, UnitaryMatrix, _integer, _size

DRAW_BLOCK = 2**16  # draws per block: 512 KiB of words, so a block stays in cache
MAX_DRAWS = 10**9  # 10-30 s on 2 vCPUs (d = 2..5000), so time stays bounded too
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
    n_samples, seed = _size(n_samples, "n_samples", 1, MAX_DRAWS), _integer(seed)
    if seed is None or not 0 <= seed < 2**128:
        raise ValueError("seed must be an integer in 0..2**128 - 1")
    p = outcome_probabilities(s, basis)
    d = p.size
    philox = np.random.Philox(key=seed)
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
    # u = (word >> 11) 2**-53, so floor(u G) is the word's top log2(G) bits
    shift = 65 - buckets.bit_length()
    for start in range(0, n_samples, DRAW_BLOCK):
        words = philox.random_raw(min(DRAW_BLOCK, n_samples - start))
        b = (words >> shift).view(np.int64)
        per_bucket += np.bincount(b, minlength=buckets)
        v = (words[split[b]] >> 11) * (buckets * 2.0**-53)
        counts += np.bincount(np.searchsorted(edges, v, side="right"), minlength=d)
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
