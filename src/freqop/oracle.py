"""Brute-force dense reference implementation for small slot counts.

States on N slots are expanded to full ``d**N`` amplitude vectors and the
frequency operator is applied slot by slot as an explicit mean of
projectors. Nothing here goes through the product-state scalar product, so
agreement between the two code paths is a real cross-check. Capped at
``d**N <= 2**20`` amplitudes.
"""

from __future__ import annotations

import numpy as np

from .hilbert import StateVector, UnitaryMatrix, _measurement_vector
from .product import ProductState

DENSE_CAP = 2**20    # largest dense amplitude vector
MATRIX_CAP = 1024    # largest explicit operator matrix (side length)
EIGENCHECK_BLOCK = 512  # basis vectors pushed through the operator at once


def _dense_size(d: int, n_slots: int) -> int:
    if d < 1 or n_slots < 1:
        raise ValueError("need d >= 1 and n_slots >= 1")
    # For d >= 2 the size passes the cap within its bit length of slots, so
    # the full power, a huge integer for a large n_slots, is never formed.
    size = d ** min(n_slots, DENSE_CAP.bit_length())
    if size > DENSE_CAP:
        raise ValueError(f"d**n_slots = {d}**{n_slots} exceeds the dense cap {DENSE_CAP}")
    return size


class DenseVector:
    """A full amplitude vector on N slots, slot-major (slot 1 varies slowest)."""

    __slots__ = ("_d", "_n_slots", "_amps")

    def __init__(self, d: int, n_slots: int, amps):
        size = _dense_size(d, n_slots)
        a = np.asarray(amps, dtype=np.complex128)
        if a.shape != (size,):
            raise ValueError(f"expected {size} amplitudes, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("amplitudes contain non-finite entries")
        a = a.copy()
        a.setflags(write=False)
        self._d = d
        self._n_slots = n_slots
        self._amps = a

    @property
    def d(self) -> int:
        return self._d

    @property
    def n_slots(self) -> int:
        return self._n_slots

    @property
    def amps(self) -> np.ndarray:
        return self._amps

    def as_tensor(self) -> np.ndarray:
        """View shaped ``(d,) * n_slots``; index ``[i_1, ..., i_N]`` is slot-wise."""
        return self._amps.reshape((self._d,) * self._n_slots)

    def norm(self) -> float:
        return float(np.linalg.norm(self._amps))

    def __repr__(self) -> str:
        return f"DenseVector(d={self._d}, n_slots={self._n_slots})"


def dense_inner(a: DenseVector, b: DenseVector) -> complex:
    if a.d != b.d or a.n_slots != b.n_slots:
        raise ValueError("shape mismatch between dense vectors")
    return complex(np.vdot(a.amps, b.amps))


def kron_power(s: StateVector, n_slots: int) -> DenseVector:
    """``|s>`` on every one of ``n_slots`` slots, expanded densely."""
    _dense_size(s.dim, n_slots)
    v = s.amps
    for _ in range(n_slots - 1):
        v = np.kron(v, s.amps)
    return DenseVector(s.dim, n_slots, v)


def dense_embed(state: ProductState, n_slots: int) -> DenseVector:
    """Expand the first ``n_slots`` slots of a product state densely.

    Every term's prefix must fit inside ``n_slots``; slots past a prefix are
    filled with that term's tail. For states whose terms all share one tail
    the embedding preserves scalar products of the retained slots.
    """
    size = _dense_size(state.dim, n_slots)
    out = np.zeros(size, dtype=np.complex128)
    for t in state.terms:
        if t.prefix_len > n_slots:
            raise ValueError(
                f"term prefix length {t.prefix_len} exceeds n_slots={n_slots}"
            )
        v = np.asarray(t.slot(1), dtype=np.complex128)
        for alpha in range(2, n_slots + 1):
            v = np.kron(v, t.slot(alpha))
        out += t.coeff * v
    return DenseVector(state.dim, n_slots, out)


def _apply_frequency_array(t: np.ndarray, kvec: np.ndarray, n_slots: int) -> np.ndarray:
    # t: shape (d,)*n_slots plus optional trailing batch axes.
    out = np.zeros_like(t)
    kc = kvec.conj()
    for alpha in range(n_slots):
        amp = np.tensordot(kc, t, axes=(0, alpha))
        out += np.moveaxis(np.multiply.outer(kvec, amp), 0, alpha)
    out /= n_slots
    return out


def dense_apply_frequency(
    k: int, v: DenseVector, basis: UnitaryMatrix | None = None
) -> DenseVector:
    """Apply the N-slot frequency-of-outcome-``k`` operator to ``v``.

    The operator is the mean over slots of the rank-one projector onto the
    ``k``-th measurement vector acting on that slot alone.
    """
    kvec = _measurement_vector(k, v.d, basis)
    res = _apply_frequency_array(v.as_tensor(), kvec, v.n_slots)
    return DenseVector(v.d, v.n_slots, res.reshape(-1))


def dense_frequency_matrix(
    k: int, n_slots: int, d: int, basis: UnitaryMatrix | None = None
) -> np.ndarray:
    """The full ``d**N x d**N`` frequency operator matrix (small N only)."""
    size = _dense_size(d, n_slots)
    if size > MATRIX_CAP:
        raise ValueError(f"matrix side {size} exceeds the cap {MATRIX_CAP}")
    kvec = _measurement_vector(k, d, basis)
    ident = np.eye(size, dtype=np.complex128).reshape((d,) * n_slots + (size,))
    cols = _apply_frequency_array(ident, kvec, n_slots)
    return cols.reshape(size, size)


def dense_spectrum(
    k: int, n_slots: int, d: int, basis: UnitaryMatrix | None = None
) -> np.ndarray:
    """Ascending eigenvalues of the dense frequency operator."""
    m = dense_frequency_matrix(k, n_slots, d, basis)
    return np.linalg.eigvalsh(m)


def eigencheck_standard_basis(k: int, n_slots: int, d: int) -> tuple[np.ndarray, float]:
    """Push every standard product basis vector through the operator.

    Returns the extracted eigenvalue for each of the ``d**N`` basis vectors
    together with the worst residual ``||f e_j - lambda_j e_j||``. Covers
    sizes where the explicit matrix would not fit; the standard basis
    diagonalizes the standard-basis frequency operator, and this verifies
    that numerically rather than assuming it.
    """
    size = _dense_size(d, n_slots)
    kvec = _measurement_vector(k, d, None)
    eigs = np.empty(size)
    worst = 0.0
    for start in range(0, size, EIGENCHECK_BLOCK):
        stop = min(start + EIGENCHECK_BLOCK, size)
        block = np.zeros((size, stop - start), dtype=np.complex128)
        block[start:stop] = np.eye(stop - start, dtype=np.complex128)
        res = _apply_frequency_array(
            block.reshape((d,) * n_slots + (stop - start,)), kvec, n_slots
        ).reshape(size, stop - start)
        lam = np.real(res[start:stop].diagonal()).copy()
        res[start:stop] -= np.diag(lam)
        eigs[start:stop] = lam
        block_worst = float(np.max(np.linalg.norm(res, axis=0))) if res.size else 0.0
        worst = max(worst, block_worst)
    return eigs, worst


def dense_deviation(
    s: StateVector, k: int, n_slots: int, basis: UnitaryMatrix | None = None
) -> float:
    """``|| (f - p) |s>^N ||`` computed entirely in the dense representation."""
    kvec = _measurement_vector(k, s.dim, basis)
    p = abs(complex(np.vdot(kvec, s.amps))) ** 2
    v = kron_power(s, n_slots)
    w = dense_apply_frequency(k, v, basis)
    return float(np.linalg.norm(w.amps - p * v.amps))
