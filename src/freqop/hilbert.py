"""Finite-dimensional Hilbert space primitives: states, operators, spectra.

Everything here is a thin, validated layer over numpy arrays. Objects are
immutable once constructed; the wrapped arrays are flagged read-only.
"""

from __future__ import annotations

import enum
import operator
from collections.abc import Iterable

import numpy as np

# Absolute tolerances used by constructors and predicates throughout.
NORM_TOL = 1e-9       # unit-norm / unitarity deviation
UNIT_EPS = 1e-13      # an accepted vector with |norm^2 - 1| beyond this is rescaled
HERMITIAN_TOL = 1e-10  # hermiticity / idempotence deviation
EIG_TOL = 1e-9        # eigendecomposition reconstruction residual
# Defaults of the checks the CLI and `verify.run_all` judge.
VERIFY_TOL = 1e-10    # absolute tolerance on squared-norm identities
SPECTRUM_TOL = 1e-9   # eigenvalue distance from the frequency grid
DEFAULT_SEED = 42
SEED_MAX = 2**63 - 1  # key [seed, lane] stays int64; above, seeds merge as float64


class TruthValue(enum.Enum):
    """Trichotomy for a projective proposition evaluated on a pure state."""

    TRUE = "true"
    FALSE = "false"
    INDEFINITE = "indefinite"


def _as_complex_array(x, what: str, ndim: int) -> np.ndarray:
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim != ndim or a.size == 0:
        raise ValueError(f"{what} must form a non-empty {ndim}-D array")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} contain non-finite entries")
    return a


def _integer(x) -> int | None:
    """``x`` as an ``int`` if it is an integer of any type but ``bool``, else None."""
    try:
        return None if isinstance(x, (bool, np.bool_)) else operator.index(x)
    except TypeError:
        return None


def _size(x, what: str, lo: int | None = None, hi: int | None = None) -> int:
    """``x`` as an ``int`` in ``lo..hi`` (None: no bound); a ValueError names ``what``."""
    n = _integer(x)
    if n is None:
        raise ValueError(f"{what} must be an integer, got {x!r}")
    if lo is not None and n < lo:
        raise ValueError(f"{what} must be at least {lo}")
    if hi is not None and n > hi:
        raise ValueError(f"{what} must be at most {hi}")
    return n


def _index(i, dim: int, what: str) -> int:
    """``i`` as an ``int`` in ``0..dim - 1``; otherwise a ValueError names ``what``."""
    j = _integer(i)
    if j is None or not 0 <= j < dim:
        raise ValueError(f"{what} {i} out of range for dim {dim}")
    return j


def judge(errors: Iterable[float], tol: float) -> tuple[int, int, float]:
    """Cases, failures and worst error of one check: a case fails unless its
    error is at most ``tol``. Every suite and CLI check is judged here."""
    e = np.fromiter(errors, dtype=float)
    # a NaN error fails its case and, as np.max propagates it, is the worst
    failures = int(np.count_nonzero(~(e <= tol)))
    return e.size, failures, float(np.max(e, initial=0.0))


def _divide(a: np.ndarray, n: int) -> None:
    """``a /= n`` part by part, as complex / int rounds: fl(j/N), not j * fl(1/N)."""
    parts = a.view(np.float64)
    parts /= n


def _unit_amplitudes(a: np.ndarray, normalize: bool, what: str = "state") -> np.ndarray:
    """A read-only copy of the finite amplitudes ``a``, checked for unit norm.

    With ``normalize`` the copy is rescaled to unit norm instead. A norm that
    overflows is taken again after dividing by the largest component, so huge
    but finite amplitudes still normalize. A norm accepted within
    ``NORM_TOL`` whose square is more than ``UNIT_EPS`` from 1 is rescaled
    too: a tail must match itself within ``product.TAIL_EPS``, and a ten-digit
    ``sqrt(1/2)`` would not.
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
        raise ValueError(f"{what} norm {n:.12g} deviates from 1 beyond {NORM_TOL}")
    elif abs(n * n - 1.0) > UNIT_EPS:
        a = a / n
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
        a = _as_complex_array(amps, "state amplitudes", 1)
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
        dim = _size(dim, "dim")
        index = _index(index, dim, "basis index")
        a = np.zeros(dim, dtype=np.complex128)
        a[index] = 1.0
        return cls(a)

    def __repr__(self) -> str:
        return f"StateVector(dim={self.dim})"


class _SquareMatrix:
    __slots__ = ("_entries",)

    def __init__(self, entries):
        what = type(self).__name__ + " entries"
        m = _as_complex_array(entries, what, 2)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"{what} must be a square 2-D array")
        self._check(m)  # each subclass defines its own check
        m = m.copy()
        m.setflags(write=False)
        self._entries = m

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
        v = StateVector.basis(dim, index).amps
        return cls(np.outer(v, v.conj()))


class UnitaryMatrix(_SquareMatrix):
    """A unitary matrix (U^dagger U = I within ``NORM_TOL``)."""

    def _check(self, m: np.ndarray) -> None:
        dev = float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))
        if dev > NORM_TOL:
            raise ValueError(f"matrix deviates from unitary by {dev:.3g}")

    def column(self, j: int) -> StateVector:
        """Column ``j`` as a state (the j-th measurement-basis vector)."""
        return StateVector(self._entries[:, _index(j, self.dim, "column")])


def _measurement_vector(k: int, d: int, basis: UnitaryMatrix | None) -> np.ndarray:
    """Read-only ``k``-th vector of ``basis``, or of the standard basis if None."""
    if basis is not None and basis.dim != d:
        raise ValueError(f"basis dim {basis.dim} does not match state dim {d}")
    k = _index(k, d, "outcome")
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


def _projected_truth(amps: np.ndarray, projected: np.ndarray) -> TruthValue:
    """TRUE if projecting left ``amps`` unchanged, FALSE if it annihilated them."""
    if float(np.linalg.norm(projected - amps)) <= NORM_TOL:
        return TruthValue.TRUE
    if float(np.linalg.norm(projected)) <= NORM_TOL:
        return TruthValue.FALSE
    return TruthValue.INDEFINITE


def truth_value(s: StateVector, p: Projector) -> TruthValue:
    """Evaluate the proposition represented by projector ``p`` on state ``s``.

    TRUE when ``s`` lies in the range of ``p`` (``||p s - s|| <= NORM_TOL``),
    FALSE when ``s`` is annihilated (``||p s|| <= NORM_TOL``), INDEFINITE
    otherwise. Only states inside or orthogonal to the subspace make the
    proposition definite.
    """
    if s.dim != p.dim:
        raise ValueError(f"dimension mismatch: {s.dim} vs {p.dim}")
    return _projected_truth(s.amps, p.entries @ s.amps)


def random_state(dim: int, rng: np.random.Generator) -> StateVector:
    """A state with amplitudes drawn from the complex normal, normalized."""
    dim = _size(dim, "dim", lo=1)
    a = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(a, normalize=True)


def random_hermitian(dim: int, rng: np.random.Generator) -> HermitianOperator:
    dim = _size(dim, "dim", lo=1)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator((m + m.conj().T) / 2.0)


def random_unitary(dim: int, rng: np.random.Generator) -> UnitaryMatrix:
    """Haar-distributed unitary (QR of a complex Ginibre matrix, phase-fixed)."""
    dim = _size(dim, "dim", lo=1)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return UnitaryMatrix(q)


def random_projector(dim: int, rank: int, rng: np.random.Generator) -> Projector:
    """Projector onto a Haar-random ``rank``-dimensional subspace."""
    dim = _size(dim, "dim", lo=1)
    rank = _size(rank, "rank", lo=1, hi=dim)
    v = random_unitary(dim, rng).entries[:, :rank]
    return Projector(v @ v.conj().T)
