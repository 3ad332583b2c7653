import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqop import oracle
from freqop.frequency import FrequencySpec, apply_frequency
from freqop.hilbert import (
    StateVector,
    UnitaryMatrix,
    _measurement_vector,
    random_state,
    random_unitary,
)
from freqop.oracle import (
    DENSE_CAP,
    DenseVector,
    dense_apply_frequency,
    dense_deviation,
    dense_embed,
    dense_frequency_matrix,
    dense_inner,
    dense_spectrum,
    eigencheck_standard_basis,
    kron_power,
)
from freqop.product import (
    ProductState,
    ProductTerm,
    _edited,
    _TailClass,
    add,
    inner_infinite,
)


def test_dense_vector_validation():
    with pytest.raises(ValueError, match="expected 4"):
        DenseVector(2, 2, [1.0, 0.0])
    with pytest.raises(ValueError, match="cap"):
        DenseVector(2, 21, np.zeros(2**21))
    with pytest.raises(ValueError, match="d >= 1"):
        DenseVector(0, 2, [])
    with pytest.raises(ValueError, match="non-finite"):
        DenseVector(2, 1, [np.nan, 0.0])
    assert DENSE_CAP == 2**20


def test_kron_power_slot_major_indexing():
    v = kron_power(StateVector.basis(2, 1), 3)
    # |1 1 1> sits at flat index 1*4 + 1*2 + 1 = 7; slot 1 varies slowest
    assert v.amps[7] == 1.0
    assert v.amps.reshape((2,) * 3)[1, 1, 1] == 1.0
    assert np.linalg.norm(v.amps) == pytest.approx(1.0)


def test_dense_embed_matches_kron_power():
    s = StateVector([0.6, 0.8j])
    a = dense_embed(ProductState([ProductTerm(1.0, (), s)]), 4)
    b = kron_power(s, 4)
    npt.assert_allclose(a.amps, b.amps, atol=0)


def test_dense_embed_prefix_placement():
    # coeff * |e1>|e0> lands on flat index 1*2 + 0 = 2
    t = ProductTerm(0.5j, ([0.0, 1.0],), np.array([1.0, 0.0], dtype=complex))
    v = dense_embed(ProductState([t]), 2)
    expected = np.zeros(4, dtype=complex)
    expected[2] = 0.5j
    npt.assert_allclose(v.amps, expected, atol=0)


def test_dense_embed_rejects_long_prefix():
    t = ProductTerm(1.0, ([1.0, 0.0],) * 3, np.array([1.0, 0.0], dtype=complex))
    with pytest.raises(ValueError, match="prefix length"):
        dense_embed(ProductState([t]), 2)


def test_dense_apply_frequency_fixed_vector():
    # two slots, outcome 0: the operator is (P x I + I x P)/2, which scales
    # amplitude (i1, i2) by (number of zeros among i1, i2)/2
    r = math.sqrt(0.21)
    v = DenseVector(2, 2, [0.3, r, r, 0.7])
    out = dense_apply_frequency(0, v)
    npt.assert_allclose(out.amps, [0.3, r / 2, r / 2, 0.0], atol=1e-15)


def test_dense_matrix_agrees_with_action(rng):
    m = dense_frequency_matrix(1, 3, 2)
    npt.assert_allclose(m, m.conj().T, atol=1e-14)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    v /= np.linalg.norm(v)
    direct = dense_apply_frequency(1, DenseVector(2, 3, v)).amps
    npt.assert_allclose(m @ v, direct, atol=1e-14)


def test_dense_spectrum_with_multiplicities():
    # eigenvalue j/4 appears once per basis string with j zeros: C(4, j)
    eigs = dense_spectrum(0, 4, 2)
    expected = np.repeat([0.0, 0.25, 0.5, 0.75, 1.0], [1, 4, 6, 4, 1])
    npt.assert_allclose(eigs, expected, atol=1e-12)


def test_dense_spectrum_invariant_under_basis_rotation(rng):
    u = random_unitary(2, rng)
    npt.assert_allclose(
        dense_spectrum(0, 3, 2, basis=u), dense_spectrum(0, 3, 2), atol=1e-12
    )


def test_dense_completeness():
    for d, n in ((2, 3), (3, 2)):
        total = sum(dense_frequency_matrix(k, n, d) for k in range(d))
        npt.assert_allclose(total, np.eye(d**n), atol=1e-14)


def test_dense_operators_commute():
    a = dense_frequency_matrix(0, 3, 2)
    b = dense_frequency_matrix(1, 3, 2)
    npt.assert_allclose(a @ b, b @ a, atol=1e-14)


def test_eigencheck_matches_eigensolve():
    eigs, worst = eigencheck_standard_basis(0, 4, 2)
    npt.assert_allclose(np.sort(eigs), dense_spectrum(0, 4, 2), atol=1e-12)
    assert worst <= 1e-13


def test_eigencheck_multiplicities_larger_case():
    # d=3, k=0: strings with j zeros among 5 slots number C(5, j) * 2**(5-j)
    eigs, worst = eigencheck_standard_basis(0, 5, 3)
    assert worst <= 1e-13
    for j in range(6):
        count = int(np.sum(np.abs(eigs - j / 5) < 1e-12))
        assert count == math.comb(5, j) * 2 ** (5 - j)


@pytest.mark.parametrize("d, n", [(2, 3), (3, 2), (2, 5), (4, 2)])
def test_matrix_columns_are_the_action_on_basis_vectors(d, n, rng, monkeypatch):
    # the matrix is read off the operator's definition entry by entry, the
    # action applies it slot by slot: two independent computations; tiles
    # of d amplitudes put every slot but the last in the cross-tile walk
    size = d**n
    u = random_unitary(d, rng)
    for tile in (oracle.APPLY_TILE, d):
        monkeypatch.setattr(oracle, "APPLY_TILE", tile)
        for k in range(d):
            m = dense_frequency_matrix(k, n, d)
            mu = dense_frequency_matrix(k, n, d, basis=u)
            for j in range(size):
                e = DenseVector(d, n, np.eye(size)[j])
                assert m[:, j].tobytes() == dense_apply_frequency(k, e).amps.tobytes()
                rotated = dense_apply_frequency(k, e, u).amps
                npt.assert_allclose(mu[:, j], rotated, rtol=0, atol=1e-15)


@pytest.mark.parametrize("d, n", [(2, 3), (3, 2), (2, 5), (4, 2), (3, 4)])
def test_permutation_basis_columns_are_the_action_bit_for_bit(d, n, rng, monkeypatch):
    # a permuted measurement vector is exact, and its one live index is not
    # always k: the action must skip the other indices without moving a bit,
    # in a tile's own slots and across tiles alike
    perm = rng.permutation(d)
    while np.all(perm == np.arange(d)):
        perm = rng.permutation(d)
    basis = UnitaryMatrix(np.eye(d)[:, perm])
    size = d**n
    for tile in (oracle.APPLY_TILE, d):
        monkeypatch.setattr(oracle, "APPLY_TILE", tile)
        for k in range(d):
            m = dense_frequency_matrix(k, n, d, basis=basis)
            for j in range(size):
                e = DenseVector(d, n, np.eye(size)[j])
                assert m[:, j].tobytes() == dense_apply_frequency(k, e, basis).amps.tobytes()


@pytest.mark.parametrize("d, n", [(2, 20), (4, 10), (3, 12)])
def test_dense_deviation_at_the_cap_matches_the_closed_form(d, n, rng):
    s = random_state(d, rng)
    k = int(rng.integers(d))
    p = abs(s.amps[k]) ** 2
    closed_sq = (p - p * p) / n
    dev = dense_deviation(s, k, n)
    assert abs(dev**2 - closed_sq) <= 1e-12 * closed_sq


@pytest.mark.parametrize("d, n", [(2, 4), (3, 3)])
def test_eigencheck_agrees_with_the_action(d, n):
    size = d**n
    for k in range(d):
        eigs, worst = eigencheck_standard_basis(k, n, d)
        residuals = []
        for j in range(size):
            e = DenseVector(d, n, np.eye(size)[j])
            col = dense_apply_frequency(k, e).amps.copy()
            assert eigs[j] == col[j].real
            col[j] -= col[j].real
            residuals.append(np.linalg.norm(col))
        assert worst == max(residuals)


def test_eigencheck_does_not_depend_on_the_slice_size(monkeypatch):
    whole = [eigencheck_standard_basis(k, n, d) for d, n in ((2, 5), (3, 4)) for k in range(d)]
    monkeypatch.setattr(oracle, "EIGEN_COLUMNS", 7)
    sliced = [eigencheck_standard_basis(k, n, d) for d, n in ((2, 5), (3, 4)) for k in range(d)]
    for (eigs, worst), (eigs7, worst7) in zip(whole, sliced):
        assert eigs7.tobytes() == eigs.tobytes()
        assert worst7 == worst


def test_dense_apply_does_not_depend_on_the_tile_size(rng, monkeypatch):
    # one tile of d**N amplitudes walks every slot in place; smaller tiles
    # reach the leading slots across tiles, down to one amplitude a tile.
    # From N = 3d on, a standard or permuted basis over several tiles adds
    # count-sorted runs instead of slot views: (2, 6) and (2, 9) take that
    # walk at every tile but the whole vector, and compare it with the views
    cases = []
    for d, n in ((2, 5), (3, 4), (5, 3), (2, 6), (2, 9)):
        perm = UnitaryMatrix(np.eye(d)[:, np.roll(np.arange(d), 1)])
        for basis in (None, perm, random_unitary(d, rng)):
            a = rng.standard_normal(d**n) + 1j * rng.standard_normal(d**n)
            cases.append((d, n, DenseVector(d, n, a), basis))
    assert all(d**n <= oracle.APPLY_TILE for d, n, _, _ in cases)
    whole = [
        dense_apply_frequency(k, v, basis).amps.tobytes()
        for d, n, v, basis in cases for k in range(d)
    ]
    for tile in (1, 2, 3, 4, 5, 9, 25, 32, 81, 125, DENSE_CAP):
        monkeypatch.setattr(oracle, "APPLY_TILE", tile)
        tiled = [
            dense_apply_frequency(k, v, basis).amps.tobytes()
            for d, n, v, basis in cases for k in range(d)
        ]
        assert tiled == whole, tile


def test_adding_at_an_exact_one_has_the_bits_of_multiplying(rng, monkeypatch):
    # the standard basis adds the slot views without multiplying them by its
    # exact 1; a diagonal basis of phases 1, -1, i, -i takes the multiplying
    # walk, and its products by the phase and back are exact, so both must
    # give the same bits, zero parts of either sign included; (2, 6), (2, 9)
    # and (2, 12) add count-sorted runs at tiles smaller than the vector
    phases = ([1j, -1, -1j, 1, 1j], [-1, -1j, 1j, -1, 1])
    default = oracle.APPLY_TILE
    for d, n in ((2, 5), (3, 4), (5, 3), (2, 6), (2, 9), (2, 12)):
        bases = [UnitaryMatrix(np.diag(ph[:d])) for ph in phases]
        a = rng.standard_normal(d**n) + 1j * rng.standard_normal(d**n)
        signed = a.copy()
        signed[::3] = complex(-0.0, 1)
        signed[1::5] = complex(-0.5, -0.0)
        signed[2::7] = complex(-0.0, -0.0)
        vectors = [DenseVector(d, n, x) for x in (a, signed)]
        s = random_state(d, rng)
        for tile in (1, d, 32, default):
            monkeypatch.setattr(oracle, "APPLY_TILE", tile)
            for k in range(d):
                for v in vectors:
                    added = dense_apply_frequency(k, v).amps.tobytes()
                    for basis in bases:
                        assert dense_apply_frequency(k, v, basis).amps.tobytes() == added
                dev = dense_deviation(s, k, n)
                for basis in bases:
                    assert dense_deviation(s, k, n, basis) == dev, (tile, d, n, k)


@pytest.mark.parametrize("d, n", [(2, 7), (3, 5), (5, 3)])
def test_standard_basis_apply_adds_each_amplitude_once_per_live_slot(d, n, rng, monkeypatch):
    # f_N is diagonal in the standard basis: entry x of N f_N v is v[x] times
    # c(x), the number of slots of x that read k. The walk forms it as +0
    # plus v[x] added c(x) times, each float part then divided by N; here
    # that sum is built entry by entry, with the digits read by a plain loop.
    # (2, 7) adds count-sorted runs at tiles 1 and d, the others slot views
    size = d**n
    a = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    a[::3] = complex(-0.0, 1)
    a[1::5] = complex(-0.5, -0.0)
    a[2::7] = complex(-0.0, -0.0)
    a[3::11] = complex(0.0, -2.5)
    v = DenseVector(d, n, a)
    for tile in (1, d, oracle.APPLY_TILE):
        monkeypatch.setattr(oracle, "APPLY_TILE", tile)
        for k in range(d):
            want = []
            for x in range(size):
                c, rest = 0, x
                for _ in range(n):
                    c += rest % d == k
                    rest //= d
                z = 0j
                for _ in range(c):
                    z += complex(a[x])
                want.append(complex(z.real / n, z.imag / n))
            got = dense_apply_frequency(k, v).amps
            assert got.tobytes() == np.array(want).tobytes(), (tile, k)


def test_a_live_index_beside_an_exact_one_is_walked(monkeypatch):
    # column 0 holds an exact 1 and a live 1e-10: the walk must not take the
    # add-only path, which would drop the 1e-10 part of every slot
    basis = UnitaryMatrix([[1, -1e-10], [1e-10, 1]])
    assert basis.entries[:, 0].tolist() == [1, 1e-10]
    m = dense_frequency_matrix(0, 5, 2, basis)
    for tile in (oracle.APPLY_TILE, 2):
        monkeypatch.setattr(oracle, "APPLY_TILE", tile)
        for j in range(2**5):
            e = DenseVector(2, 5, np.eye(2**5)[j])
            npt.assert_allclose(
                dense_apply_frequency(0, e, basis).amps, m[:, j], rtol=0, atol=1e-15
            )


def test_dense_deviation_is_within_4_ulps_of_the_exactly_rounded_sum(rng, monkeypatch):
    # the reference builds f|s^N> and the squared difference in full and
    # sums it exactly rounded, so its bits do not depend on the tile; the
    # deviation adds numpy's tile sums exactly rounded. A vector of one tile
    # keeps the bits of one np.sum over the whole vector. Tiles of a few
    # amplitudes split the vector into many sums
    cases = []
    for d, n in ((2, 7), (3, 5), (5, 3)):
        perm = UnitaryMatrix(np.eye(d)[:, np.roll(np.arange(d), 1)])
        s = random_state(d, rng)
        cases += [(s, n, basis) for basis in (None, perm, random_unitary(d, rng))]
    s = random_state(2, rng)
    perm = UnitaryMatrix(np.eye(2)[:, ::-1])
    big = [(s, 16, basis) for basis in (None, perm, random_unitary(2, rng))]
    runs = [(tile, cases) for tile in (1, 2, 3, 4, 9, 25, 32, 81, 125)]
    runs += [(oracle.APPLY_TILE, big), (DENSE_CAP, cases + big)]
    for tile, shapes in runs:
        monkeypatch.setattr(oracle, "APPLY_TILE", tile)
        for s, n, basis in shapes:
            v = kron_power(s, n)
            for k in range(s.dim):
                kvec = _measurement_vector(k, s.dim, basis)
                p = abs(complex(np.vdot(kvec, s.amps))) ** 2
                diff = dense_apply_frequency(k, v, basis).amps - p * v.amps
                sq = diff.view(np.float64) ** 2
                want = math.sqrt(math.fsum(sq))
                got = dense_deviation(s, k, n, basis)
                where = (tile, s.dim, n, k)
                assert abs(got - want) <= 4 * math.ulp(want), where
                if v.amps.size <= tile:
                    assert got == math.sqrt(sq.sum()), where


def test_dense_deviation_refuses_a_non_finite_tile(monkeypatch):
    nan_vector = np.array([np.nan, 1.0])
    monkeypatch.setattr(oracle, "_measurement_vector", lambda k, d, basis: nan_vector)
    for n in (3, 16):  # one tile, then four
        with pytest.raises(ValueError, match="non-finite"):
            dense_deviation(StateVector.basis(2, 0), 0, n)


def test_eigencheck_reports_a_nan_residual(monkeypatch):
    # max(0.0, nan) is 0.0: a NaN entry must be the worst residual instead
    nan_vector = np.array([np.nan, 1.0])
    monkeypatch.setattr(oracle, "_measurement_vector", lambda k, d, basis: nan_vector)
    _, worst = eigencheck_standard_basis(0, 3, 2)
    assert math.isnan(worst)
    # with one index nothing lies off the diagonal, and a NaN shows only in
    # the imaginary part of f_jj, which the residual holds as well
    nan_diagonal = np.array([complex(1.0, np.nan)])
    monkeypatch.setattr(oracle, "_measurement_vector", lambda k, d, basis: nan_diagonal)
    _, worst = eigencheck_standard_basis(0, 3, 1)
    assert math.isnan(worst)


def test_eigencheck_memory_does_not_grow_with_the_operator():
    # all 2**14 * 14 * 2 entries at once take about 34 MB; a slice of
    # EIGEN_COLUMNS columns and the 128 KB of eigenvalues stay far below.
    # The 51 KiB of eigenvalues at (3, 8) and the 8 MiB at (32, 4) are all
    # but the whole peak: a slice's digits and sums are small, and the table
    # of off-diagonal entries has d**2 of them, not d**N * N * d
    assert _traced_peak(lambda: eigencheck_standard_basis(0, 14, 2)) < 8 * 2**20
    assert _traced_peak(lambda: eigencheck_standard_basis(1, 8, 3)) <= 2**20
    assert _traced_peak(lambda: eigencheck_standard_basis(5, 4, 32)) <= 9 * 2**20


def test_eigencheck_table_is_held_to_the_matrix_cap():
    # at N = 1 the d x d table of off-diagonal entries is the whole matrix,
    # 16 MiB at d = 1024, so one index past the cap is refused before any
    # array is made
    def past_the_cap():
        with pytest.raises(ValueError, match=f"^d must be at most {oracle.MATRIX_CAP}$"):
            eigencheck_standard_basis(0, 1, oracle.MATRIX_CAP + 1)

    assert _traced_peak(past_the_cap) < 2**20
    assert _traced_peak(lambda: eigencheck_standard_basis(0, 1, oracle.MATRIX_CAP)) <= 17 * 2**20


@pytest.mark.parametrize("d, n", [(2, 10), (2, 7), (3, 5), (2, 3)])
def test_operator_entries_are_fractions_rounded_once(d, n):
    # the diagonal holds j/N rounded once; j * fl(1/N) is an ulp off at
    # 3/10, 5/7 or 3/5 and puts the spectrum off its own grid
    digits = np.arange(d**n)[:, None] // d ** np.arange(n) % d
    for k in range(d):
        expected = np.count_nonzero(digits == k, axis=1) / n
        m = dense_frequency_matrix(k, n, d)
        assert m.diagonal().real.tobytes() == expected.tobytes()
        assert eigencheck_standard_basis(k, n, d)[0].tobytes() == expected.tobytes()
        assert dense_spectrum(k, n, d).tobytes() == np.sort(expected).tobytes()
        e = DenseVector(d, n, np.eye(d**n)[-1])
        assert dense_apply_frequency(k, e).amps[-1] == expected[-1]


def _reference_matrix(k, n, d, basis=None):
    # the operator's definition, entry by entry: column c gets
    # kvec[i] conj(kvec[digit]) at the row that is c with one slot's digit
    # set to i, added into a matrix of +0, and every entry is then divided by
    # N part by part; the diagonal receives one add per slot, in slot order
    kvec = _measurement_vector(k, d, basis)
    size = d**n
    cols = np.arange(size)
    place = d ** np.arange(n - 1, -1, -1)[:, None]
    digits = cols[:, None, None] // place % d
    rows = cols[:, None, None] + (np.arange(d) - digits) * place
    m = np.zeros((size, size), dtype=np.complex128)
    np.add.at(m, (rows, cols[:, None, None]), kvec * kvec.conj()[digits])
    parts = m.view(np.float64)
    parts /= n
    return m


def test_matrix_has_the_bits_of_adding_each_entry_into_zeros(rng, monkeypatch):
    # the matrix writes each entry once from a d x d table; the reference
    # adds every one of the N d values per column, zeros included, so -0
    # parts, the diagonal's slot order and the division must all agree. A
    # real orthogonal basis with negative entries gives entries whose
    # imaginary part is -0 beside a nonzero real part
    slice_sizes = (oracle.EIGEN_COLUMNS, 7)
    for d, n in ((2, 3), (3, 2), (1, 4), (5, 1), (2, 5), (3, 4), (2, 10), (4, 5), (3, 6), (32, 2)):
        shift = np.roll(np.eye(d), 1, axis=1)
        phases = np.exp(2j * np.pi * rng.random(d))
        real = np.linalg.qr(rng.standard_normal((d, d)))[0]
        bases = (None, shift, np.diag(phases), shift * phases, real, random_unitary(d, rng).entries)
        ks = range(d) if d**n <= 81 else (0, d - 1)
        for b in bases:
            basis = None if b is None else UnitaryMatrix(b)
            for k in ks:
                want = _reference_matrix(k, n, d, basis).tobytes()
                for columns in slice_sizes:
                    monkeypatch.setattr(oracle, "EIGEN_COLUMNS", columns)
                    got = dense_frequency_matrix(k, n, d, basis).tobytes()
                    assert got == want, (d, n, k, columns)


@pytest.mark.parametrize("d, n", [(2, 4), (3, 3), (4, 2)])
def test_eigencheck_residual_holds_every_off_diagonal_entry(d, n, rng, monkeypatch):
    # a Haar measurement vector puts entries off the diagonal of every
    # column: the residual must be each column's norm once the real part of
    # its diagonal entry is taken out, and the eigenvalues that real part
    u = random_unitary(d, rng)
    for k in range(d):
        m = _reference_matrix(k, n, d, u)
        lambdas = m.diagonal().real.copy()
        m[np.diag_indices(d**n)] -= lambdas
        want = np.linalg.norm(m, axis=0).max()
        kvec = _measurement_vector(k, d, u)
        monkeypatch.setattr(oracle, "_measurement_vector", lambda k, d, basis: kvec)
        eigs, worst = eigencheck_standard_basis(k, n, d)
        assert abs(worst - want) <= 4 * np.spacing(want)
        assert eigs.tobytes() == lambdas.tobytes()


# every standard-basis (d, N, k) up to side 64, and three of the largest sides
_DIAGONAL_CASES = [
    (d, n, k) for d in range(1, 65) for n in range(1, 21) if d**n <= 64 for k in range(d)
] + [(2, 10, 1), (3, 6, 2), (32, 2, 31)]


def test_dense_spectrum_is_eigvalsh_bit_for_bit(rng, monkeypatch):
    # a diagonal matrix (standard or permutation basis, either with phases,
    # whose diagonal entries are |phase|^2 added N times) is not solved; a
    # Haar basis gives off-diagonal entries, so its matrix is
    cases = [(d, n, k, None, False) for d, n, k in _DIAGONAL_CASES]
    for d, n, ks in ((2, 5, range(2)), (3, 4, range(3)), (5, 3, range(5)), (2, 10, (1,)), (32, 2, (7,))):
        shift = np.roll(np.eye(d), 1, axis=1)
        phases = np.exp(2j * np.pi * rng.random(d))
        for b in (shift, np.diag(phases), shift * phases):
            cases += [(d, n, k, UnitaryMatrix(b), False) for k in ks]
    cases.append((2, 5, 1, random_unitary(2, rng), True))
    eigvalsh = np.linalg.eigvalsh
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or eigvalsh(m))
    for d, n, k, basis, solves in cases:
        want = eigvalsh(dense_frequency_matrix(k, n, d, basis))
        calls.clear()
        assert dense_spectrum(k, n, d, basis).tobytes() == want.tobytes(), (d, n, k)
        assert bool(calls) == solves, (d, n, k)


def _traced_peak(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dense_results_are_not_copied():
    # at 2**20 amplitudes a result is 16 MiB: the apply adds a few tile-sized
    # buffers and the 1 MiB finiteness mask of its check, the Kronecker
    # power one tile-sized copy and the mask, and the deviation holds the
    # power and tile-sized buffers only
    s = StateVector([0.6, 0.8])
    v = kron_power(s, 20)
    assert _traced_peak(lambda: dense_apply_frequency(0, v)) <= 18 * 2**20
    assert _traced_peak(lambda: kron_power(s, 20)) <= 18 * 2**20
    assert _traced_peak(lambda: dense_deviation(s, 0, 20)) <= 18 * 2**20


def test_diagonal_spectrum_builds_no_matrix():
    # the 1024 x 1024 matrix alone is 16 MiB; the standard-basis spectrum
    # reads EIGEN_COLUMNS columns at a time and keeps the 8 KiB diagonal
    for k in (0, 1):
        assert _traced_peak(lambda: dense_spectrum(k, 10, 2)) <= 2 * 2**20


def test_matrix_cap():
    with pytest.raises(ValueError, match="cap"):
        dense_frequency_matrix(0, 11, 2)
    # numpy integers are refused as Python ints are: in int64, d**n_slots
    # wraps to 0 at (2**32)**2 and to a negative size at 9**20
    for d, n in ((2**32, 2), (9, 20), (2**22, 3)):
        with pytest.raises(ValueError, match="cap"):
            oracle._dense_size(np.int64(d), np.int64(n))
        with pytest.raises(ValueError, match="cap"):
            eigencheck_standard_basis(0, np.int64(n), np.int64(d))
        with pytest.raises(ValueError, match="cap"):
            dense_spectrum(0, np.int64(n), np.int64(d))


def test_dense_deviation_against_matrix_route(rng):
    for d, n in ((2, 4), (3, 3)):
        s = random_state(d, rng)
        k = int(rng.integers(d))
        p = abs(s.amps[k]) ** 2
        v = kron_power(s, n).amps
        m = dense_frequency_matrix(k, n, d)
        expected = float(np.linalg.norm(m @ v - p * v))
        npt.assert_allclose(dense_deviation(s, k, n), expected, atol=1e-13)


def test_dense_inner_shape_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        dense_inner(
            kron_power(StateVector.basis(2, 0), 2),
            kron_power(StateVector.basis(2, 0), 3),
        )


def test_embedding_preserves_products_for_shared_tails(rng):
    # all tails equal: the dense product over the embedded slots matches the
    # full infinite product
    tail = StateVector.basis(2, 0)
    terms_a, terms_b = [], []
    for _ in range(3):
        pref = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(2)]
        terms_a.append(ProductTerm(complex(rng.standard_normal()), pref, tail))
        pref = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)]
        terms_b.append(ProductTerm(complex(rng.standard_normal()), pref, tail))
    a = ProductState(terms_a)
    b = ProductState(terms_b)
    from freqop.product import inner_infinite

    dense = dense_inner(dense_embed(a, 4), dense_embed(b, 4))
    npt.assert_allclose(dense, inner_infinite(a, b), atol=1e-12)


# ---------------------------------------------------------------------------
# property tests: terms with several edited slots, not contiguous and shared
# between terms, over two tail classes, against the dense route

_WINDOW = 6  # every edit lies within the first _WINDOW slots
_TAILS = (np.array([0.6, 0.8], dtype=complex),
          np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0))
_BASIS = random_unitary(2, np.random.default_rng(3))
_entry = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def edited_states(draw, tail_class):
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        t = ProductTerm(complex(draw(_entry), draw(_entry)), (), _TAILS[tail_class])
        for alpha in draw(st.sets(st.integers(1, _WINDOW), max_size=4)):
            v = np.array([complex(draw(_entry), draw(_entry)) for _ in range(2)])
            t = _edited(t, t.coeff, alpha, v)
        terms.append(t)
    return ProductState(terms)


def _dense_product(a, b):
    return dense_inner(dense_embed(a, _WINDOW), dense_embed(b, _WINDOW))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(edited_states(0), edited_states(1), edited_states(0), edited_states(1))
def test_property_edited_terms_products_match_dense(a0, a1, b0, b1):
    for a, b in ((a0, b0), (a1, b1)):
        npt.assert_allclose(
            inner_infinite(a, b), _dense_product(a, b), rtol=1e-10, atol=1e-12
        )
    assert inner_infinite(a0, b1) == 0j
    assert inner_infinite(a1, b0) == 0j
    npt.assert_allclose(
        inner_infinite(add(a0, a1), add(b0, b1)),
        _dense_product(a0, b0) + _dense_product(a1, b1),
        rtol=1e-10, atol=1e-12,
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(edited_states(0), edited_states(1), st.integers(0, 1), st.booleans())
def test_property_frequency_image_of_edited_terms_matches_dense(a0, a1, k, rotated):
    basis = _BASIS if rotated else None
    a = add(a0, a1)
    image = apply_frequency(FrequencySpec(k, _WINDOW, basis), a)
    direct = dense_apply_frequency(k, dense_embed(a, _WINDOW), basis)
    npt.assert_allclose(dense_embed(image, _WINDOW).amps, direct.amps, atol=1e-12)


def _freqop_imports(module):
    """The names of the freqop modules that ``module`` imports."""
    tree = ast.parse(Path(oracle.__file__).with_name(f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0:
                package, _, base = base.partition(".")
                if package != "freqop":
                    continue
            # "from .oracle import x" names the module, "from . import oracle" its names
            found.update([base] if base else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.partition(".")[2]
                for alias in node.names
                if alias.name.startswith("freqop.")
            )
    return found


def test_routes_are_independent_by_import():
    # the dense oracle is a route of its own: the structured routes never
    # call it, and it never calls them
    for module in ("frequency", "product", "sequential"):
        assert "oracle" not in _freqop_imports(module), module
    assert not _freqop_imports("oracle") & {"frequency", "sequential"}


def test_only_product_reads_the_tail_class_record():
    # frequency works on states through product's helpers: it imports none
    # of the record-level ones and reads no record, field or constructor
    tree = ast.parse(Path(oracle.__file__).with_name("frequency.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not imported & {"_class_factors", "_with_slot", "_cmul", "_dot"}
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not read & {"_classes", "_of", *_TailClass.__slots__}
