import math

import numpy as np
import numpy.testing as npt
import pytest

from freqop.hilbert import (
    EIG_TOL,
    UNIT_EPS,
    HermitianOperator,
    Projector,
    StateVector,
    TruthValue,
    UnitaryMatrix,
    eig_hermitian,
    evolve,
    inner,
    random_hermitian,
    random_projector,
    random_state,
    random_unitary,
    truth_value,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_state_vector_accepts_unit_norm():
    s = StateVector([INV_SQRT2, INV_SQRT2])
    assert s.dim == 2
    npt.assert_allclose(np.linalg.norm(s.amps), 1.0, atol=1e-15)


def test_state_vector_rejects_bad_norm():
    with pytest.raises(ValueError, match="norm"):
        StateVector([1.0, 1.0])


def test_accepted_norms_are_rescaled_past_unit_eps():
    # a ten-digit sqrt(1/2) is accepted at NORM_TOL with |norm^2 - 1| = 2.5e-11;
    # amplitudes already within UNIT_EPS of unit keep their bits
    s = StateVector([0.7071067812, 0.7071067812])
    assert abs(np.vdot(s.amps, s.amps).real - 1.0) <= UNIT_EPS
    assert s.amps[0] != 0.7071067812
    for amps in ([0.6, 0.8], [INV_SQRT2, INV_SQRT2], [0.6, 0.8j]):
        assert StateVector(amps).amps.tobytes() == np.array(amps, dtype=complex).tobytes()


def test_state_vector_normalize_flag():
    s = StateVector([1.0, 1.0], normalize=True)
    npt.assert_allclose(s.amps, [INV_SQRT2, INV_SQRT2], atol=1e-15)
    with pytest.raises(ValueError, match="zero"):
        StateVector([0.0, 0.0], normalize=True)


def test_state_vector_normalizes_huge_amplitudes():
    # The norm of these finite amplitudes overflows a float.
    s = StateVector([1e308, 1e308j], normalize=True)
    npt.assert_allclose(s.amps, [INV_SQRT2, 1j * INV_SQRT2], atol=1e-15)


def test_state_vector_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        StateVector([np.nan, 0.0])
    with pytest.raises(ValueError, match="finite"):
        StateVector([complex(0, np.inf), 0.0])


def test_state_vector_rejects_empty_and_matrix():
    with pytest.raises(ValueError):
        StateVector([])
    with pytest.raises(ValueError):
        StateVector([[1.0, 0.0]])


def test_state_vector_is_immutable():
    s = StateVector.basis(3, 1)
    with pytest.raises(ValueError):
        s.amps[0] = 1.0


def test_basis_states_orthonormal():
    for i in range(3):
        for j in range(3):
            got = inner(StateVector.basis(3, i), StateVector.basis(3, j))
            assert got == (1.0 if i == j else 0.0)
    for index in (-1, 3):
        with pytest.raises(ValueError, match="out of range"):
            StateVector.basis(3, index)


def test_inner_fixed_value():
    # by hand: conj(0.6)*0.8j + conj(0.8)*0.6j = 0.48j + 0.48j = 0.96j
    a = StateVector([0.6, 0.8])
    b = StateVector([0.8j, 0.6j])
    npt.assert_allclose(inner(a, b), 0.96j, atol=1e-15)


def test_inner_conjugate_symmetry(rng):
    a = random_state(4, rng)
    b = random_state(4, rng)
    npt.assert_allclose(inner(a, b), np.conj(inner(b, a)), atol=1e-14)


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        inner(StateVector.basis(2, 0), StateVector.basis(3, 0))


def test_hermitian_rejects_asymmetric():
    with pytest.raises(ValueError, match="Hermitian"):
        HermitianOperator([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="square"):
        HermitianOperator([[1.0, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        HermitianOperator([[np.nan]])


def test_projector_rejects_non_idempotent():
    with pytest.raises(ValueError, match="idempotent"):
        Projector([[2.0, 0.0], [0.0, 0.0]])
    # the index is checked before the d x d matrix is allocated
    with pytest.raises(ValueError, match="out of range"):
        Projector.onto_basis_state(2**40, -1)
    with pytest.raises(ValueError, match="out of range"):
        Projector.onto_basis_state(2, 2)


def test_unitary_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        UnitaryMatrix([[1.0, 0.0], [0.0, 2.0]])
    with pytest.raises(ValueError, match="out of range"):
        UnitaryMatrix(np.eye(2)).column(2)


def test_eig_hermitian_fixed_matrix():
    # det([[1-l, 2], [2, 1-l]]) = (1-l)^2 - 4 = 0, so l = 1 -+ 2.
    w, v = eig_hermitian(HermitianOperator([[1.0, 2.0], [2.0, 1.0]]))
    npt.assert_allclose(w, [-1.0, 3.0], atol=1e-12)
    m = np.array([[1.0, 2.0], [2.0, 1.0]])
    npt.assert_allclose((v.entries * w) @ v.entries.conj().T, m, atol=EIG_TOL)


def test_eig_hermitian_ascending_and_orthonormal(rng):
    h = random_hermitian(5, rng)
    w, v = eig_hermitian(h)
    assert np.all(np.diff(w) >= 0)
    npt.assert_allclose(v.entries.conj().T @ v.entries, np.eye(5), atol=1e-12)


def test_evolve_spin_flip_quarter_turn():
    # exp(-i t X) = cos(t) I - i sin(t) X for X = [[0,1],[1,0]], since X^2 = I.
    t = math.pi / 4
    u = evolve(HermitianOperator([[0.0, 1.0], [1.0, 0.0]]), t)
    expected = np.array(
        [[math.cos(t), -1j * math.sin(t)], [-1j * math.sin(t), math.cos(t)]]
    )
    npt.assert_allclose(u.entries, expected, atol=1e-14)


def test_evolve_zero_time_is_identity(rng):
    h = random_hermitian(4, rng)
    npt.assert_allclose(evolve(h, 0.0).entries, np.eye(4), atol=1e-14)
    for dt in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            evolve(h, dt)


def test_evolve_composes(rng):
    h = random_hermitian(3, rng)
    u1 = evolve(h, 0.3)
    u2 = evolve(h, 0.5)
    u12 = evolve(h, 0.8)
    npt.assert_allclose(u1.entries @ u2.entries, u12.entries, atol=1e-12)


def test_truth_value_trichotomy():
    p = Projector.onto_basis_state(2, 0)
    assert truth_value(StateVector.basis(2, 0), p) is TruthValue.TRUE
    assert truth_value(StateVector.basis(2, 1), p) is TruthValue.FALSE
    mixed = StateVector([INV_SQRT2, INV_SQRT2])
    assert truth_value(mixed, p) is TruthValue.INDEFINITE
    with pytest.raises(ValueError, match="mismatch"):
        truth_value(StateVector.basis(3, 0), p)


def test_truth_value_on_superposition_inside_range(rng):
    # A state inside a rank-2 subspace is TRUE for that subspace's projector.
    p = random_projector(4, 2, rng)
    w, v = eig_hermitian(p)
    s = StateVector(
        (v.entries[:, 2] + v.entries[:, 3]) * INV_SQRT2
    )  # eigenvalue-1 eigenvectors sit last in ascending order
    assert truth_value(s, p) is TruthValue.TRUE


def test_random_unitary_is_unitary(rng):
    u = random_unitary(6, rng)
    npt.assert_allclose(u.entries.conj().T @ u.entries, np.eye(6), atol=1e-12)


def test_random_projector_rank(rng):
    p = random_projector(5, 3, rng)
    npt.assert_allclose(np.trace(p.entries).real, 3.0, atol=1e-12)
    for rank in (0, 6):
        with pytest.raises(ValueError, match="rank"):
            random_projector(5, rank, rng)
