import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from freqop import sampling
from freqop.hilbert import StateVector, random_state, random_unitary
from freqop.sampling import (
    max_abs_z,
    outcome_probabilities,
    sample_ensemble,
)

S68 = StateVector([0.6, 0.8])


def test_outcome_probabilities_standard_basis():
    npt.assert_allclose(outcome_probabilities(S68), [0.36, 0.64], atol=1e-15)


def test_outcome_probabilities_rotated_basis(rng):
    u = random_unitary(3, rng)
    s = random_state(3, rng)
    p = outcome_probabilities(s, u)
    manual = np.array(
        [abs(np.vdot(u.entries[:, k], s.amps)) ** 2 for k in range(3)]
    )
    npt.assert_allclose(p, manual, atol=1e-14)
    npt.assert_allclose(p.sum(), 1.0, atol=1e-12)


def _random_preparation(d, key):
    return random_state(d, np.random.Generator(np.random.Philox(key=key))), None


def _zero_weights():
    # zero weights give repeated CDF edges, also at both ends
    return StateVector([0.0, 0.6, 0.0, 0.0, 0.8, 0.0]), None


def _weight_sum(above):
    # a seeded basis whose weights add up to a float just above (below) 1
    rng = np.random.Generator(np.random.Philox(key=17))
    while True:
        s, u = random_state(3, rng), random_unitary(3, rng)
        total = np.cumsum(outcome_probabilities(s, u))[-1]
        if total != 1.0 and (total > 1.0) == above:
            return s, u


# id: (preparation, n, seed, DRAW_BLOCK or None for the default)
RECORD_CASES = {
    "s68": (lambda: (S68, None), 1000, 123, None),
    "d1": (lambda: (StateVector([1j]), None), 500, 1, None),
    "d2": (lambda: _random_preparation(2, 2), 3000, 2, None),
    "d3": (lambda: _random_preparation(3, 3), 3000, 3, None),
    "d4": (lambda: _random_preparation(4, 4), 3000, 4, None),
    "d17": (lambda: _random_preparation(17, 17), 20000, 17, None),
    "d1000": (lambda: _random_preparation(1000, 1000), 200000, 1000, None),
    "d5000": (lambda: _random_preparation(5000, 5000), 200000, 5000, None),
    "zero-weights": (_zero_weights, 5000, 6, None),
    # no amplitude has weight exactly 1/2: this edge lies an ulp above it
    "uniform-half": (lambda: (StateVector([0.5**0.5, 0.5**0.5]), None), 5000, 8, None),
    # edges at 1/4 and 1/2, and at 1/4, 1/2, 3/4, lie exactly on bucket boundaries
    "quarters-half": (lambda: (StateVector([0.5, 0.5j, 0.5**0.5]), None), 5000, 14, None),
    "uniform-quarter": (lambda: (StateVector([0.5, 0.5, 0.5j, -0.5]), None), 5000, 9, None),
    "sum-above-1": (lambda: _weight_sum(True), 5000, 10, None),
    "sum-below-1": (lambda: _weight_sum(False), 5000, 11, None),
    "block7": (lambda: _random_preparation(5, 12), 1000, 12, 7),
    "blocks": (lambda: _random_preparation(5, 13), 2 * sampling.DRAW_BLOCK + 5, 13, None),
}


@pytest.mark.parametrize("case", sorted(RECORD_CASES))
def test_record_matches_documented_algorithm(case, monkeypatch):
    # re-derive the counts from the documented recipe: Philox keyed by the
    # seed, one uniform stream, inverse CDF through cumsum + searchsorted
    make, n, seed, block = RECORD_CASES[case]
    s, basis = make()
    if block is not None:
        monkeypatch.setattr(sampling, "DRAW_BLOCK", block)
    record = sample_ensemble(s, n, seed, basis)
    p = outcome_probabilities(s, basis)
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = rng.random(n)
    idx = np.minimum(np.searchsorted(np.cumsum(p), u, side="right"), p.size - 1)
    counts = np.bincount(idx, minlength=p.size)
    assert record.counts == tuple(int(c) for c in counts)
    assert record.empirical_freq == tuple(c / n for c in counts)
    assert record.probabilities == tuple(float(x) for x in p)


def test_sampling_memory_stays_below_the_draw_block():
    # a block of 2**16 draws takes 512 KiB of raw words and 512 KiB of bucket
    # indices, made anew each block; the bucket tables and counts stay small
    s = random_state(1000, np.random.Generator(np.random.Philox(key=3)))
    tracemalloc.start()
    try:
        sample_ensemble(s, 3 * sampling.DRAW_BLOCK + 1, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sampling.DRAW_BLOCK == 2**16
    assert peak < 4 * 2**20


def test_replay_is_bit_exact():
    a = sample_ensemble(S68, 5000, seed=7)
    b = sample_ensemble(S68, 5000, seed=7)
    assert a == b


def test_record_does_not_depend_on_the_draw_block(monkeypatch):
    # the long run spans several default blocks, and d = 1000 fills all
    # MAX_BUCKETS buckets; blocks of one draw take a shorter run, to stay fast
    runs = {3 * 2**16 + 5: (7, 2**16, 2**20), 2**12 + 3: (1,)}
    for d in (4, 1000):
        s = random_state(d, np.random.Generator(np.random.Philox(key=d)))
        whole = {n: sample_ensemble(s, n, seed=11) for n in runs}
        for n, blocks in runs.items():
            for block in blocks:
                monkeypatch.setattr(sampling, "DRAW_BLOCK", block)
                assert sample_ensemble(s, n, seed=11) == whole[n], (d, n, block)
        monkeypatch.undo()


@pytest.mark.parametrize("key", [0, 11, 2**64 + 3, 2**128 - 1])
def test_uniforms_are_the_top_53_bits_of_raw_philox_words(key):
    # sample_ensemble reads buckets and uniforms off raw words on this rule
    u = np.random.Generator(np.random.Philox(key=key)).random(1000)
    words = np.random.Philox(key=key).random_raw(1000)
    assert np.array_equal(u, (words >> 11) * 2.0**-53)


def test_different_seeds_differ():
    a = sample_ensemble(S68, 5000, seed=7)
    b = sample_ensemble(S68, 5000, seed=8)
    assert a.counts != b.counts


def test_definite_preparation_concentrates_all_counts():
    record = sample_ensemble(StateVector.basis(3, 1), 1000, seed=1)
    assert record.counts == (0, 1000, 0)
    assert record.z_scores == (0.0, 0.0, 0.0)


def test_z_scores_match_their_definition():
    record = sample_ensemble(S68, 4000, seed=5)
    for p, f, z in zip(record.probabilities, record.empirical_freq, record.z_scores):
        expected = (f - p) * math.sqrt(4000 / (p * (1.0 - p)))
        npt.assert_allclose(z, expected, atol=1e-12)


def test_large_run_stays_within_five_sigma(rng):
    s = random_state(4, rng)
    record = sample_ensemble(s, 10**5, seed=2026)
    assert max_abs_z(record) <= 5.0


def test_input_validation():
    with pytest.raises(ValueError, match="n_samples"):
        sample_ensemble(S68, 0, seed=1)
    with pytest.raises(ValueError, match="n_samples"):
        sample_ensemble(S68, True, seed=1)
    # a numpy integer is an integer: the same record as the int seed
    record = sample_ensemble(S68, np.int64(10), seed=np.int64(3))
    assert record == sample_ensemble(S68, 10, seed=3)
    assert type(record.seed) is int and type(record.n_samples) is int
    with pytest.raises(ValueError, match="seed"):
        sample_ensemble(S68, 10, seed=-1)
    with pytest.raises(ValueError, match="seed"):
        sample_ensemble(S68, 10, seed=True)
    with pytest.raises(ValueError, match=r"0\.\.2\*\*128 - 1"):
        sample_ensemble(S68, 10, seed=2**128)
    assert sample_ensemble(S68, 10, seed=2**128 - 1).n_samples == 10
    with pytest.raises(ValueError, match="basis dim"):
        sample_ensemble(
            S68, 10, seed=1,
            basis=random_unitary(3, np.random.default_rng(0)),
        )


def test_draw_count_is_bounded():
    # the bound is checked before any draw, so a huge request fails at once
    assert sampling.MAX_DRAWS == 10**9
    with pytest.raises(ValueError, match="n_samples"):
        sample_ensemble(S68, sampling.MAX_DRAWS + 1, seed=1)
