"""Finite-dimensional Hilbert space primitives: states, operators, spectra.

Everything here is a thin, validated layer over numpy arrays. Objects are
immutable once constructed; the wrapped arrays are flagged read-only.
"""

from __future__ import annotations

import enum

import numpy as np

# Absolute tolerances used by constructors and predicates throughout.
NORM_TOL = 1e-9       # unit-norm / unitarity deviation
HERMITIAN_TOL = 1e-10  # hermiticity / idempotence deviation
EIG_TOL = 1e-9        # eigendecomposition reconstruction residual


class TruthValue(enum.Enum):
    """Trichotomy for a projective proposition evaluated on a pure state."""

    TRUE = "true"
    FALSE = "false"
    INDEFINITE = "indefinite"


def _as_complex_vector(amps, what: str) -> np.ndarray:
    a = np.asarray(amps, dtype=np.complex128)
    if a.ndim != 1 or a.size == 0:
        raise ValueError(f"{what} must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} contains non-finite entries")
    return a


def _as_complex_matrix(entries, what: str) -> np.ndarray:
    m = np.asarray(entries, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValueError(f"{what} must be a square 2-D array")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{what} contains non-finite entries")
    return m


def _unit_amplitudes(a: np.ndarray, normalize: bool) -> np.ndarray:
    """A read-only copy of the finite amplitudes ``a``, checked for unit norm.

    With ``normalize`` the copy is rescaled to unit norm instead. A norm that
    overflows is taken again after dividing by the largest component, so huge
    but finite amplitudes still normalize.
    """
    with np.errstate(over="ignore"):
        n = float(np.linalg.norm(a))
    if normalize:
        if not np.isfinite(n):
            a = a / max(np.max(np.abs(a.real)), np.max(np.abs(a.imag)))
            n = float(np.linalg.norm(a))
        if n <= NORM_TOL:
            raise ValueError("cannot normalize a near-zero vector")
        a = a / n
    elif abs(n - 1.0) > NORM_TOL:
        raise ValueError(f"state norm {n:.12g} deviates from 1 beyond {NORM_TOL}")
    a = a.copy()
    a.setflags(write=False)
    return a


class StateVector:
    """A normalized pure state.

    Parameters
    ----------
    amps : sequence of complex
        Amplitudes in the standard basis.
    normalize : bool, optional
        If True, rescale to unit norm (error on a near-zero vector).
        If False (default), reject input whose norm deviates from 1 by
        more than ``NORM_TOL``.
    """

    __slots__ = ("_amps",)

    def __init__(self, amps, *, normalize: bool = False):
        a = _as_complex_vector(amps, "state amplitudes")
        self._amps = _unit_amplitudes(a, normalize)

    @property
    def amps(self) -> np.ndarray:
        return self._amps

    @property
    def dim(self) -> int:
        return self._amps.size

    @classmethod
    def basis(cls, dim: int, index: int) -> "StateVector":
        """The standard basis vector ``|index>`` in ``dim`` dimensions."""
        if not 0 <= index < dim:
            raise ValueError(f"basis index {index} out of range for dim {dim}")
        a = np.zeros(dim, dtype=np.complex128)
        a[index] = 1.0
        return cls(a)

    def __repr__(self) -> str:
        return f"StateVector(dim={self.dim})"


class _SquareMatrix:
    __slots__ = ("_entries",)

    def __init__(self, entries):
        m = _as_complex_matrix(entries, type(self).__name__ + " entries")
        self._check(m)
        m = m.copy()
        m.setflags(write=False)
        self._entries = m

    def _check(self, m: np.ndarray) -> None:
        pass

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def dim(self) -> int:
        return self._entries.shape[0]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"


class HermitianOperator(_SquareMatrix):
    """A Hermitian matrix, checked to ``HERMITIAN_TOL`` at construction."""

    def _check(self, m: np.ndarray) -> None:
        dev = float(np.max(np.abs(m - m.conj().T)))
        if dev > HERMITIAN_TOL:
            raise ValueError(f"matrix deviates from Hermitian by {dev:.3g}")


class Projector(HermitianOperator):
    """A Hermitian idempotent (P*P = P within ``HERMITIAN_TOL``)."""

    def _check(self, m: np.ndarray) -> None:
        super()._check(m)
        dev = float(np.max(np.abs(m @ m - m)))
        if dev > HERMITIAN_TOL:
            raise ValueError(f"matrix deviates from idempotent by {dev:.3g}")

    @classmethod
    def onto_basis_state(cls, dim: int, index: int) -> "Projector":
        """Rank-one projector ``|index><index|`` in the standard basis."""
        m = np.zeros((dim, dim), dtype=np.complex128)
        if not 0 <= index < dim:
            raise ValueError(f"basis index {index} out of range for dim {dim}")
        m[index, index] = 1.0
        return cls(m)

    @classmethod
    def onto_state(cls, s: StateVector) -> "Projector":
        """Rank-one projector ``|s><s|``."""
        return cls(np.outer(s.amps, s.amps.conj()))


class UnitaryMatrix(_SquareMatrix):
    """A unitary matrix (U^dagger U = I within ``NORM_TOL``)."""

    def _check(self, m: np.ndarray) -> None:
        dev = float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))
        if dev > NORM_TOL:
            raise ValueError(f"matrix deviates from unitary by {dev:.3g}")

    @classmethod
    def identity(cls, dim: int) -> "UnitaryMatrix":
        return cls(np.eye(dim, dtype=np.complex128))

    def column(self, j: int) -> StateVector:
        """Column ``j`` as a state (the j-th measurement-basis vector)."""
        if not 0 <= j < self.dim:
            raise ValueError(f"column {j} out of range for dim {self.dim}")
        return StateVector(self._entries[:, j])


def _measurement_vector(k: int, d: int, basis: UnitaryMatrix | None) -> np.ndarray:
    """Read-only ``k``-th vector of ``basis``, or of the standard basis if None."""
    if basis is not None and basis.dim != d:
        raise ValueError(f"basis dim {basis.dim} does not match state dim {d}")
    if not 0 <= k < d:
        raise ValueError(f"outcome {k} out of range for dim {d}")
    if basis is not None:
        v = basis.entries[:, k].copy()
    else:
        v = np.zeros(d, dtype=np.complex128)
        v[k] = 1.0
    v.setflags(write=False)
    return v


def inner(a: StateVector, b: StateVector) -> complex:
    """Scalar product ``<a|b>`` (antilinear in the first argument)."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return complex(np.vdot(a.amps, b.amps))


def eig_hermitian(h: HermitianOperator) -> tuple[np.ndarray, UnitaryMatrix]:
    """Spectral decomposition of a Hermitian operator.

    Returns
    -------
    eigenvalues : ndarray of float
        Real eigenvalues in ascending order.
    eigenvectors : UnitaryMatrix
        Column ``j`` is the eigenvector for ``eigenvalues[j]``.

    The reconstruction ``V diag(w) V^dagger`` is checked against ``h``
    to ``EIG_TOL``; a violation raises ``ArithmeticError``.
    """
    w, v = np.linalg.eigh(h.entries)
    resid = float(np.max(np.abs((v * w) @ v.conj().T - h.entries)))
    if resid > EIG_TOL:
        raise ArithmeticError(f"eigendecomposition residual {resid:.3g}")
    return w, UnitaryMatrix(v)


def evolve(h: HermitianOperator, dt: float) -> UnitaryMatrix:
    """The propagator ``exp(-i h dt)``, built from the spectral decomposition."""
    if not np.isfinite(dt):
        raise ValueError("dt must be finite")
    w, v = np.linalg.eigh(h.entries)
    vm = v @ (np.exp(-1j * w * dt)[:, None] * v.conj().T)
    return UnitaryMatrix(vm)


def transition_amplitude(u: UnitaryMatrix, n: int, m: int) -> complex:
    """The amplitude ``<n|u|m>``.

    Index convention: ``m`` labels the prepared (input) basis state, ``n``
    the observed (output) one, so this is ``u.entries[n, m]``, the overlap
    of ``|n>`` with the evolved ``|m>``.
    """
    if not 0 <= n < u.dim:
        raise ValueError(f"output index {n} out of range for dim {u.dim}")
    if not 0 <= m < u.dim:
        raise ValueError(f"input index {m} out of range for dim {u.dim}")
    return complex(u.entries[n, m])


def truth_value(s: StateVector, p: Projector, tol: float = NORM_TOL) -> TruthValue:
    """Evaluate the proposition represented by projector ``p`` on state ``s``.

    TRUE when ``s`` lies in the range of ``p`` (``||p s - s|| <= tol``),
    FALSE when ``s`` is annihilated (``||p s|| <= tol``), INDEFINITE
    otherwise. Only states inside or orthogonal to the subspace make the
    proposition definite.
    """
    if s.dim != p.dim:
        raise ValueError(f"dimension mismatch: {s.dim} vs {p.dim}")
    v = p.entries @ s.amps
    if float(np.linalg.norm(v - s.amps)) <= tol:
        return TruthValue.TRUE
    if float(np.linalg.norm(v)) <= tol:
        return TruthValue.FALSE
    return TruthValue.INDEFINITE


def random_state(dim: int, rng: np.random.Generator) -> StateVector:
    """A state with amplitudes drawn from the complex normal, normalized."""
    a = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(a, normalize=True)


def random_hermitian(dim: int, rng: np.random.Generator) -> HermitianOperator:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator((m + m.conj().T) / 2.0)


def random_unitary(dim: int, rng: np.random.Generator) -> UnitaryMatrix:
    """Haar-distributed unitary (QR of a complex Ginibre matrix, phase-fixed)."""
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return UnitaryMatrix(q)


def random_projector(dim: int, rank: int, rng: np.random.Generator) -> Projector:
    """Projector onto a Haar-random ``rank``-dimensional subspace."""
    if not 1 <= rank <= dim:
        raise ValueError(f"rank {rank} out of range for dim {dim}")
    v = random_unitary(dim, rng).entries[:, :rank]
    return Projector(v @ v.conj().T)
