import cmath
import math

import numpy as np
import numpy.testing as npt
import pytest

from freqop.hilbert import Projector, TruthValue
from freqop.scenarios import (
    BipartiteState,
    ZeroBranchError,
    branch_probability,
    condition_on,
    epr_check,
    epr_pair,
    subsystem_truth_value,
    wigner_friend_check,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)
P_UP = Projector.onto_basis_state(2, 0)
P_DOWN = Projector.onto_basis_state(2, 1)


def _random_pair(rng):
    while True:
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v /= np.linalg.norm(v)
        if min(abs(v[0]), abs(v[1])) > 0.05:
            return complex(v[0]), complex(v[1])


def test_bipartite_validation():
    with pytest.raises(ValueError, match="norm"):
        BipartiteState([[1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        BipartiteState([[np.inf, 0.0], [0.0, 0.0]])
    s = BipartiteState([[1.0, 1.0], [0.0, 0.0]], normalize=True)
    npt.assert_allclose(np.linalg.norm(s.amps), 1.0, atol=1e-15)


def test_bipartite_normalizes_huge_amplitudes():
    # The norm of these finite amplitudes overflows a float.
    s = BipartiteState([[0.0, 1e308], [-1e308, 0.0]], normalize=True)
    npt.assert_allclose(s.amps, [[0.0, INV_SQRT2], [-INV_SQRT2, 0.0]], atol=1e-15)


def test_subsystem_truth_values_on_product_state():
    s = BipartiteState([[1.0, 0.0], [0.0, 0.0]])  # |up>|up>
    assert subsystem_truth_value(s, "first", P_UP) is TruthValue.TRUE
    assert subsystem_truth_value(s, "first", P_DOWN) is TruthValue.FALSE
    assert subsystem_truth_value(s, "second", P_UP) is TruthValue.TRUE


def test_subsystem_truth_value_side_validation():
    s = BipartiteState([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="side"):
        subsystem_truth_value(s, "third", P_UP)
    with pytest.raises(ValueError, match="dim"):
        subsystem_truth_value(s, "first", Projector.onto_basis_state(3, 0))


def test_branch_probability_and_conditioning():
    s = epr_pair(0.6, 0.8)
    npt.assert_allclose(branch_probability(s, "first", P_UP), 0.36, atol=1e-15)
    conditioned = condition_on(s, "first", P_UP)
    # only the alpha branch survives: |up down| amplitude 1 up to phase
    npt.assert_allclose(abs(conditioned.amps[0, 1]), 1.0, atol=1e-12)


def test_condition_on_zero_branch_raises():
    s = BipartiteState([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ZeroBranchError):
        condition_on(s, "first", P_DOWN)


def test_epr_check_symmetric_pair():
    rep = epr_check(INV_SQRT2, INV_SQRT2)
    assert rep.passed
    for tv in (rep.pre_first_up, rep.pre_first_down,
               rep.pre_second_up, rep.pre_second_down):
        assert tv is TruthValue.INDEFINITE
    assert rep.post_second_down is TruthValue.TRUE
    npt.assert_allclose(rep.branch_probability, 0.5, atol=1e-15)
    assert rep.product_residual <= 1e-12


def test_epr_check_random_pairs(rng):
    for _ in range(10):
        alpha, beta = _random_pair(rng)
        rep = epr_check(alpha, beta)
        assert rep.passed
        npt.assert_allclose(rep.branch_probability, abs(alpha) ** 2, atol=1e-14)


def test_epr_check_complex_phases_are_harmless():
    alpha = cmath.exp(0.7j) * 0.6
    beta = cmath.exp(-1.1j) * 0.8
    rep = epr_check(alpha, beta)
    assert rep.passed
    assert rep.product_residual <= 1e-12


def test_epr_check_rejects_definite_pair():
    with pytest.raises(ValueError, match="both branches"):
        epr_check(1.0, 0.0)


def test_epr_check_rejects_unnormalized():
    with pytest.raises(ValueError, match="not 1"):
        epr_check(1.0, 1.0)


def test_wigner_check_symmetric():
    rep = wigner_friend_check(INV_SQRT2, INV_SQRT2)
    assert rep.passed
    assert rep.pre_object_a is TruthValue.INDEFINITE
    assert rep.pre_object_b is TruthValue.INDEFINITE
    assert len(rep.branches) == 2
    for br, expected_p in zip(rep.branches, (0.5, 0.5)):
        npt.assert_allclose(br.probability, expected_p, atol=1e-14)
        assert br.product_residual <= 1e-12
        assert br.consistent
        assert br.composite_truth == br.object_truth


def test_wigner_branch_truth_values():
    rep = wigner_friend_check(0.6, 0.8)
    a, b = rep.branches
    assert a.composite_truth == (TruthValue.TRUE, TruthValue.FALSE)
    assert b.composite_truth == (TruthValue.FALSE, TruthValue.TRUE)
    npt.assert_allclose(a.probability, 0.36, atol=1e-14)
    npt.assert_allclose(b.probability, 0.64, atol=1e-14)


def test_wigner_check_random_pairs(rng):
    for _ in range(10):
        alpha, beta = _random_pair(rng)
        rep = wigner_friend_check(alpha, beta)
        assert rep.passed
        probs = [br.probability for br in rep.branches]
        npt.assert_allclose(probs, [abs(alpha) ** 2, abs(beta) ** 2], atol=1e-14)


def test_wigner_degenerate_pair_has_single_definite_branch():
    rep = wigner_friend_check(1.0, 0.0)
    assert rep.passed
    assert rep.pre_object_a is TruthValue.TRUE
    assert len(rep.branches) == 1
    br = rep.branches[0]
    assert br.reply == "a"
    npt.assert_allclose(br.probability, 1.0, atol=1e-14)


def test_wigner_rejects_unnormalized():
    with pytest.raises(ValueError, match="not 1"):
        wigner_friend_check(0.9, 0.9)
