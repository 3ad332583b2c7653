import math

import numpy as np
import numpy.testing as npt
import pytest

from freqop.hilbert import HermitianOperator, random_hermitian
from freqop.oracle import dense_deviation
from freqop.sequential import (
    SequentialSpec,
    propagator,
    succession_frequency,
    succession_probabilities,
)

X = HermitianOperator([[0.0, 1.0], [1.0, 0.0]])


def test_spec_validation():
    with pytest.raises(ValueError):
        SequentialSpec(X, 0.1, 2, 0, 5)
    with pytest.raises(ValueError):
        SequentialSpec(X, 0.1, 0, -1, 5)
    with pytest.raises(ValueError):
        SequentialSpec(X, 0.1, 0, 1, 0)
    with pytest.raises(ValueError):
        SequentialSpec(X, math.inf, 0, 1, 5)
    for m in (-1, 2):
        with pytest.raises(ValueError, match="out of range"):
            succession_probabilities(X, 0.1, m)


def test_quarter_turn_succession_weight():
    # U = cos(t) I - i sin(t) X at t = pi/4, so |<1|U|0>|^2 = sin^2 = 1/2
    spec = SequentialSpec(X, math.pi / 4, m=0, n=1, successions=8)
    rep = succession_frequency(spec)
    npt.assert_allclose(rep.p, 0.5, atol=1e-14)
    npt.assert_allclose(rep.deviation_closed, math.sqrt(0.25 / 8), atol=1e-14)
    assert abs(rep.deviation_exact**2 - rep.deviation_closed**2) <= 1e-12


def test_zero_time_makes_succession_definite():
    # exp(-iH*0) is rebuilt from an eigendecomposition, so p reaches 1 only
    # up to roundoff delta ~ 1e-16; the deviation sqrt(delta/N) is then ~1e-8
    spec = SequentialSpec(X, 0.0, m=0, n=0, successions=6)
    rep = succession_frequency(spec)
    npt.assert_allclose(rep.p, 1.0, atol=1e-14)
    assert rep.deviation_exact <= 1e-7
    other = succession_frequency(SequentialSpec(X, 0.0, m=0, n=1, successions=6))
    npt.assert_allclose(other.p, 0.0, atol=1e-14)
    assert other.deviation_exact <= 1e-7


def test_succession_probabilities_sum_to_one(rng):
    for d in (2, 3, 4):
        h = random_hermitian(d, rng)
        for dt in (0.0, 0.1, math.pi / 4):
            q = succession_probabilities(h, dt, m=0)
            npt.assert_allclose(q.sum(), 1.0, atol=1e-12)


def test_identity_across_ensemble_sizes(rng):
    h = random_hermitian(3, rng)
    spec_base = dict(hamiltonian=h, dt=0.37, m=1, n=2)
    for reps in (1, 2, 8, 1000, 10**5):
        rep = succession_frequency(SequentialSpec(successions=reps, **spec_base))
        closed = (rep.p - rep.p**2) / reps
        assert abs(rep.deviation_exact**2 - closed) <= 1e-12


def test_succession_with_oracle(rng):
    h = random_hermitian(2, rng)
    spec = SequentialSpec(h, 0.9, 0, 1, successions=6)
    rep = succession_frequency(spec)
    s = propagator(spec).column(0)
    assert abs(rep.deviation_exact**2 - dense_deviation(s, 1, 6) ** 2) <= 1e-12
