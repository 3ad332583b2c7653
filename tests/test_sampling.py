import math

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


def test_record_matches_documented_algorithm():
    # re-derive the counts from the documented recipe: Philox keyed by the
    # seed, one uniform stream, inverse CDF through cumsum + searchsorted
    seed, n = 123, 1000
    record = sample_ensemble(S68, n, seed)
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = rng.random(n)
    edges = np.cumsum([0.36, 0.64])
    idx = np.minimum(np.searchsorted(edges, u, side="right"), 1)
    counts = np.bincount(idx, minlength=2)
    assert record.counts == tuple(int(c) for c in counts)
    assert record.empirical_freq == tuple(c / n for c in counts)


def test_replay_is_bit_exact():
    a = sample_ensemble(S68, 5000, seed=7)
    b = sample_ensemble(S68, 5000, seed=7)
    assert a == b


def test_record_does_not_depend_on_the_draw_block(rng, monkeypatch):
    s = random_state(4, rng)
    whole = sample_ensemble(s, 1000, seed=11)
    monkeypatch.setattr(sampling, "DRAW_BLOCK", 7)
    assert sample_ensemble(s, 1000, seed=11) == whole


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
    with pytest.raises(ValueError, match="seed"):
        sample_ensemble(S68, 10, seed=-1)
    with pytest.raises(ValueError, match="seed"):
        sample_ensemble(S68, 10, seed=True)
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
