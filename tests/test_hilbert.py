import math

import numpy as np
import numpy.testing as npt
import pytest

from freqop import hilbert
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
from freqop.frequency import (
    MAX_SLOTS,
    FrequencyReport,
    FrequencySpec,
    cauchy_gap,
    cauchy_gap_grid,
    cross_orthogonality,
    deviation_norm,
)
from freqop.oracle import (
    MATRIX_CAP,
    DenseVector,
    dense_deviation,
    dense_frequency_matrix,
    dense_spectrum,
    eigencheck_standard_basis,
    kron_power,
)
from freqop.product import ProductState
from freqop.sampling import MAX_DRAWS, sample_ensemble
from freqop.sequential import SequentialSpec, succession_frequency, succession_probabilities

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


S68 = StateVector([0.6, 0.8])
S_PLUS = StateVector([INV_SQRT2, INV_SQRT2])
H_X = HermitianOperator([[0.0, 1.0], [1.0, 0.0]])


def _bits(x) -> bytes:
    """The bytes of every number a result holds, so results compare bit for bit."""
    if isinstance(x, FrequencyReport):
        x = (x.p, x.deviation_exact, x.deviation_closed, x.applied_norm)
    if isinstance(x, tuple):
        return b"".join(_bits(e) for e in x)
    if isinstance(x, StateVector):
        return x.amps.tobytes()
    if isinstance(x, (HermitianOperator, UnitaryMatrix)):
        return x.entries.tobytes()
    return np.asarray(x, dtype=np.complex128).tobytes()


# every route that reads an index a caller passes, and the name its refusal gives
INDEX_CALLS = {
    "gram": (lambda k: deviation_norm(FrequencySpec(k, 4), S68, method="gram"), "outcome"),
    "counted": (
        lambda k: deviation_norm(FrequencySpec(k, 4), S68, method="counted"),
        "outcome",
    ),
    "dense_deviation": (lambda k: dense_deviation(S68, k, 4), "outcome"),
    "eigencheck": (lambda k: eigencheck_standard_basis(k, 2, 2), "outcome"),
    "dense_spectrum": (lambda k: dense_spectrum(k, 2, 2), "outcome"),
    "dense_matrix": (lambda k: dense_frequency_matrix(k, 2, 2), "outcome"),
    "cauchy_gap_grid": (lambda k: cauchy_gap_grid(k, S68, 2), "outcome"),
    "succession_probabilities": (
        lambda k: succession_probabilities(H_X, 0.3, k),
        "prepared record",
    ),
    "prepared_record": (
        lambda k: succession_frequency(SequentialSpec(H_X, 0.1, k, 1, 3)),
        "prepared record",
    ),
    "succeeding_record": (
        lambda k: succession_frequency(SequentialSpec(H_X, 0.1, 0, k, 3)),
        "succeeding record",
    ),
    "basis_state": (lambda k: StateVector.basis(2, k), "basis index"),
    "basis_projector": (lambda k: Projector.onto_basis_state(2, k), "basis index"),
    "column": (lambda k: UnitaryMatrix(H_X.entries).column(k), "column"),
}


@pytest.mark.parametrize("k", [True, np.True_, 0.5, 1.5, "x", None], ids=repr)
@pytest.mark.parametrize("route", INDEX_CALLS)
def test_an_index_is_an_integer_and_not_a_bool(route, k):
    # a bool indexed the vector as a mask, (0.6, 0.8) read p = 1.96 on every
    # route, and a float crashed with IndexError; now each refuses and names it
    call, name = INDEX_CALLS[route]
    with pytest.raises(ValueError, match=f"^{name} {k} out of range for dim 2$"):
        call(k)
    assert _bits(call(np.int64(1))) == _bits(call(1))


def test_basis_projector_is_the_outer_product_of_the_basis_state():
    for i in range(3):
        m = np.zeros((3, 3), dtype=np.complex128)
        m[i, i] = 1.0
        assert Projector.onto_basis_state(3, i).entries.tobytes() == m.tobytes()


# every size a caller passes, and the name its refusal gives
SIZE_CALLS = {
    "n_slots": (lambda n: FrequencySpec(0, n), "n_slots"),
    "n_max": (lambda n: cauchy_gap_grid(0, S68, n), "n_max"),
    "cauchy_m": (lambda n: cauchy_gap(0, n, 4, S68), "m"),
    "cauchy_n": (lambda n: cauchy_gap(0, 1, n, S68), "n"),
    "cross_n": (lambda n: cross_orthogonality(0, n, 1, S68, S_PLUS), "n"),
    "cross_m": (lambda n: cross_orthogonality(0, 4, n, S68, S_PLUS), "m"),
    "dense_deviation": (lambda n: dense_deviation(S68, 0, n), "n_slots"),
    "kron_power": (lambda n: kron_power(S68, n), "n_slots"),
    "dense_d": (lambda n: DenseVector(n, 1, [1.0]), "d"),
    "successions": (lambda n: SequentialSpec(H_X, 0.1, 0, 1, n), "successions"),
    "basis_dim": (lambda n: StateVector.basis(n, 0), "dim"),
    "projector_dim": (lambda n: Projector.onto_basis_state(n, 0), "dim"),
    "product_dim": (lambda n: ProductState([], dim=n), "dim"),
    "random_state": (lambda n: random_state(n, np.random.default_rng(0)), "dim"),
    "random_hermitian": (lambda n: random_hermitian(n, np.random.default_rng(0)), "dim"),
    "random_unitary": (lambda n: random_unitary(n, np.random.default_rng(0)), "dim"),
    "projector_rank": (lambda n: random_projector(2, n, np.random.default_rng(0)), "rank"),
}


@pytest.mark.parametrize("size", [True, np.True_, 2.0, np.float64(2.0), "2"], ids=repr)
@pytest.mark.parametrize("route", SIZE_CALLS)
def test_a_size_is_an_integer_and_not_a_bool(route, size):
    # a float size crashed the gram route with TypeError, and a bool ran as 1
    call, name = SIZE_CALLS[route]
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        call(size)


def test_numpy_integer_sizes_give_the_bits_of_int():
    # a numpy n_slots overflowed the counted route's n * n into a NaN norm
    for n, method in ((4, "gram"), (2**40, "counted"), (2**53, "counted")):
        got = deviation_norm(FrequencySpec(0, np.int64(n)), S68, method=method)
        assert type(got.n_slots) is int
        assert _bits(got) == _bits(deviation_norm(FrequencySpec(0, n), S68, method=method))
    assert _bits(cauchy_gap_grid(0, S68, np.int64(5))) == _bits(cauchy_gap_grid(0, S68, 5))
    assert cauchy_gap(0, np.int64(2), np.int64(7), S68) == cauchy_gap(0, 2, 7, S68)
    assert dense_deviation(S68, 1, np.int64(6)) == dense_deviation(S68, 1, 6)


# every bounded size, one step past each bound, and the refusal that names it
BOUND_CALLS = [
    (lambda: FrequencySpec(0, 0), "n_slots must be at least 1"),
    (lambda: FrequencySpec(0, MAX_SLOTS + 1), f"n_slots must be at most {MAX_SLOTS}"),
    (lambda: cauchy_gap_grid(0, S68, 0), "n_max must be at least 1"),
    (lambda: SequentialSpec(H_X, 0.1, 0, 1, 0), "successions must be at least 1"),
    (lambda: SequentialSpec(H_X, 0.1, 0, 1, MAX_SLOTS + 1), f"successions must be at most {MAX_SLOTS}"),
    (lambda: cauchy_gap(0, 0, 4, S68), "m must be at least 1"),
    (lambda: cauchy_gap(0, 5, 4, S68), "n must be at least 5"),
    (lambda: cross_orthogonality(0, 4, 0, S68, S_PLUS), "m must be at least 1"),
    (lambda: cross_orthogonality(0, 2, 3, S68, S_PLUS), "n must be at least 3"),
    (lambda: sample_ensemble(S68, 0, seed=1), "n_samples must be at least 1"),
    (lambda: sample_ensemble(S68, MAX_DRAWS + 1, seed=1), f"n_samples must be at most {MAX_DRAWS}"),
    (lambda: random_projector(5, 0, np.random.default_rng(0)), "rank must be at least 1"),
    (lambda: random_projector(5, 6, np.random.default_rng(0)), "rank must be at most 5"),
    (lambda: random_state(0, np.random.default_rng(0)), "dim must be at least 1"),
    (lambda: eigencheck_standard_basis(0, 1, MATRIX_CAP + 1), f"d must be at most {MATRIX_CAP}"),
]


@pytest.mark.parametrize("call, message", BOUND_CALLS, ids=[m for _, m in BOUND_CALLS])
def test_a_size_past_its_bound_is_refused_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_a_size_at_its_bound_is_accepted():
    assert FrequencySpec(0, 1).n_slots == 1
    assert FrequencySpec(0, MAX_SLOTS).n_slots == MAX_SLOTS
    assert cauchy_gap_grid(0, S68, 1).shape == (1, 1)
    assert succession_frequency(SequentialSpec(H_X, 0.1, 0, 1, 1)).n_slots == 1
    assert SequentialSpec(H_X, 0.1, 0, 1, MAX_SLOTS).successions == MAX_SLOTS
    assert cauchy_gap(0, 1, 1, S68) == 0.0
    assert cauchy_gap(0, 4, 4, S68) == 0.0
    assert cross_orthogonality(0, 1, 1, S68, S_PLUS) == 0.0
    assert sample_ensemble(S68, 1, seed=1).n_samples == 1
    for rank in (1, 5):
        p = random_projector(5, rank, np.random.default_rng(0))
        npt.assert_allclose(np.trace(p.entries).real, rank, atol=1e-12)
    assert random_state(1, np.random.default_rng(0)).dim == 1


def test_a_refused_rank_draws_nothing():
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    for rank in (0, 3, True, 1.5):
        with pytest.raises(ValueError, match="^rank must be"):
            random_projector(2, rank, rng)
    assert rng.bit_generator.state == before


def test_an_outcome_past_the_basis_has_the_wording_of_the_standard_basis():
    # one rule for k with or without a basis; a negative k without one keeps
    # its own message
    u = random_unitary(2, np.random.default_rng(0))
    for k in (2, -1):
        with pytest.raises(ValueError, match=f"^outcome {k} out of range for dim 2$"):
            FrequencySpec(k, 4, u)
    with pytest.raises(ValueError, match="^outcome index must be non-negative$"):
        FrequencySpec(-1, 4)


def test_eig_hermitian_refuses_a_decomposition_that_does_not_reconstruct(monkeypatch):
    # LAPACK is not trusted blindly: an eigenvalue off by 1e-6 leaves a
    # reconstruction residual of 1e-6, far past EIG_TOL
    eigh = np.linalg.eigh

    def off(m):
        w, v = eigh(m)
        return w + np.array([1e-6, 0.0]), v

    monkeypatch.setattr(hilbert.np.linalg, "eigh", off)
    with pytest.raises(ArithmeticError, match="^eigendecomposition residual 1e-06$"):
        eig_hermitian(HermitianOperator([[1.0, 0.0], [0.0, 2.0]]))
