"""Brute-force dense reference implementation for small slot counts.

States on N slots are expanded to full ``d**N`` amplitude vectors; the
frequency operator is the mean over slots of one-slot projectors, applied
slot by slot, or read entry by entry off a ``d x d`` table of the entries
one slot contributes. Nothing here goes through the
product-state scalar product, so agreement between the two code paths is
a real cross-check. Capped at ``d**N <= 2**20`` amplitudes.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .hilbert import (
    StateVector,
    UnitaryMatrix,
    _as_complex_array,
    _divide,
    _measurement_vector,
    _size,
)

DENSE_CAP = 2**20    # largest dense amplitude vector
MATRIX_CAP = 1024    # largest explicit operator matrix (side length)
EIGEN_COLUMNS = 2**10  # columns per slice of f, so memory does not grow with d**N
APPLY_TILE = 2**14   # most amplitudes per cache tile of the dense apply and power (256 KiB)


def _dense_size(d: int, n_slots: int) -> int:
    # Python ints, so a numpy integer cannot wrap the power around in int64
    d, n_slots = _size(d, "d"), _size(n_slots, "n_slots")
    if d < 1 or n_slots < 1:
        raise ValueError("need d >= 1 and n_slots >= 1")
    # 2**20 is the cap, so no d >= 2 fits more slots; 1**N never passes it,
    # so the slot count is bounded first and no huge power is ever formed
    max_slots = DENSE_CAP.bit_length() - 1
    if n_slots > max_slots:
        raise ValueError(f"n_slots = {n_slots} exceeds the dense cap of {max_slots} slots")
    size = d**n_slots
    if size > DENSE_CAP:
        raise ValueError(f"d**n_slots = {d}**{n_slots} exceeds the dense cap {DENSE_CAP}")
    return size


class DenseVector:
    """A full amplitude vector on N slots, slot-major (slot 1 varies slowest)."""

    __slots__ = ("_d", "_n_slots", "_amps")

    def __init__(self, d: int, n_slots: int, amps):
        _dense_size(d, n_slots)  # refuse an oversized vector before copying it
        self._adopt_checked(d, n_slots, np.array(amps, dtype=np.complex128))

    @classmethod
    def _adopt(cls, d: int, n_slots: int, a: np.ndarray) -> DenseVector:
        """A vector over ``a``, a fresh complex array the oracle just built, without a copy."""
        v = cls.__new__(cls)
        v._adopt_checked(d, n_slots, a)
        return v

    def _adopt_checked(self, d: int, n_slots: int, a: np.ndarray) -> None:
        size = _dense_size(d, n_slots)
        if a.shape != (size,):
            raise ValueError(f"expected {size} amplitudes, got shape {a.shape}")
        _as_complex_array(a, "amplitudes", 1)
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

    def __repr__(self) -> str:
        return f"DenseVector(d={self._d}, n_slots={self._n_slots})"


def dense_inner(a: DenseVector, b: DenseVector) -> complex:
    if a.d != b.d or a.n_slots != b.n_slots:
        raise ValueError("shape mismatch between dense vectors")
    return complex(np.vdot(a.amps, b.amps))


def kron_power(s: StateVector, n_slots: int) -> DenseVector:
    """``|s>`` on every one of ``n_slots`` slots, expanded densely.

    Every power is built in the one array of ``d**N`` amplitudes: power j
    sits at its end, and power j + 1 is written over it from the front of
    its last ``d**(j+1)`` entries, as the last power times each amplitude
    in d strided columns, ``APPLY_TILE`` rows at a time, so the d columns
    of a block are filled while it is in cache. Row r ends no later than
    where row r + 1 of power j starts, so no amplitude is overwritten before
    it is read; a block that overlaps its own rows reads them from a copy.
    These are the products of ``np.kron``, bit for bit, with no array per
    power.
    """
    d = s.dim
    size = _dense_size(d, n_slots)
    out = np.empty(size, dtype=np.complex128)
    out[size - d :] = s.amps
    spare = np.empty(min(APPLY_TILE, size // d), dtype=out.dtype)
    for j in range(1, n_slots):
        rows = d**j
        v = out[size - rows :]
        cols = out[size - rows * d :].reshape(rows, d)
        for start in range(0, rows, APPLY_TILE):
            stop = min(start + APPLY_TILE, rows)
            src = v[start:stop]
            # the block writes up to entry size - (rows - stop) * d; past
            # size - rows + start, where its own rows sit, it reads a copy
            if stop * d - start > rows * (d - 1):
                src = spare[: stop - start]
                src[...] = v[start:stop]
            for c in range(d):
                np.multiply(src, s.amps[c], out=cols[start:stop, c])
    return DenseVector._adopt(d, n_slots, out)


def dense_embed(state, n_slots: int) -> DenseVector:
    """Expand the first ``n_slots`` slots of a `product.ProductState` densely.

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
    return DenseVector._adopt(state.dim, n_slots, out)


def _off_diagonal(kvec: np.ndarray, n_slots: int) -> np.ndarray:
    """The ``d x d`` table ``off[c, i] = kvec[i] conj(kvec[c]) / N``, 0 at ``i = c``.

    A column whose slot reads ``c`` holds ``off[c, i]`` at the row with that
    slot set to i. Each is added to +0 before the division, as into a matrix
    of +0, so a -0 part reads +0.
    """
    off = kvec * kvec.conj()[:, None]
    off += 0
    np.fill_diagonal(off, 0)
    _divide(off, n_slots)
    return off


def _frequency_tiles(
    kvec: np.ndarray, v: DenseVector
) -> Iterator[tuple[slice, np.ndarray]]:
    """Each tile of ``f v`` in order, with its place in the vector.

    ``f`` is the N-slot frequency operator of the measurement vector
    ``kvec``: the mean over slots of the rank-one projector onto ``kvec``
    acting on that slot alone. A tile is the ``d**m`` contiguous amplitudes
    that share their leading N - m digits, ``d**m`` being the largest power
    of d at most ``APPLY_TILE``, but at least d (one whole slot), so every
    slot acts on a tile while it is in cache. At a leading slot the tile's
    digit c is fixed, and the tile gains ``kvec[c]`` times the sum over i of
    ``conj(kvec[i])`` times the tile whose digit is i. A trailing slot alpha
    is walked in place through the tile's view ``(d**(alpha - N + m), d,
    rest)``. Indices where the measurement vector is exactly zero are
    skipped, in the sum and in the output, since the projector is zero there
    (in the standard basis only index ``k`` is touched). When the one live
    index holds exactly 1 (the standard basis or a permutation of it), the
    slot views are added without their two products by 1: the amplitudes are
    finite, ``x * 1`` differs from ``x`` at most in the sign of a zero, and
    the output starts at +0 and only receives sums, so it never holds -0 and
    adding either zero leaves the same bits. Every entry gets the same
    products, added in the same slot order, whatever the tile size, so the
    bits do not depend on ``APPLY_TILE``; no BLAS routine is called. Each
    tile is yielded divided by N, in one buffer that the next tile
    overwrites.

    On that add-only path every add into entry x adds the tile's own
    ``t[x]``, so ``o[x]`` is +0 plus ``t[x]`` added c(x) times, c(x) being
    the number of slots of x that read the live index. Where N >= 3d and
    the vector spans more than one tile, the walk adds those copies over
    contiguous runs instead of strided slot views: the tile is gathered in
    the order of its trailing count q (the live digits among its m trailing
    slots, sorted once per call), each leading slot that reads the live
    index adds the whole sorted tile, and the j-th trailing add covers the
    run with q >= j. Every entry gets the same addends, as many times, from
    the same +0, and since the addends are equal their order cannot move a
    bit. The gather and the scatter back cost about three adds, so the
    runs pay only with many live slots per tile: they halve the (2, 20)
    walk and slow the (4, 10) and (5, 8) walks, which keep the views.
    """
    d, n = v.d, v.n_slots
    kc = kvec.conj()
    first, *rest = np.flatnonzero(kvec)
    unit = not rest and kvec[first] == 1
    m = 1
    while m < n and d ** (m + 1) <= APPLY_TILE:
        m += 1
    high, size = n - m, d**m
    tiles = v.amps.reshape(-1, size)
    # the output tile, the projected amplitudes and a product scratch, reused
    # at every tile; a trailing slot uses the first size / d entries of the
    # last two, and the count-sorted walk holds a sorted tile and its sums
    o = np.empty(size, dtype=v.amps.dtype)
    amp = np.empty_like(o)
    term = np.empty_like(o)
    amp_low, term_low = amp[: size // d], term[: size // d]
    grouped = unit and high > 0 and n >= 3 * d
    if grouped:
        # q[x]: how many of the m trailing digits of x read `first`; entries
        # sorted by q, and the first sorted place with q >= j for j = 1..m
        hit = (np.arange(d) == first).astype(np.int8)
        q = np.zeros(1, dtype=np.int8)
        for _ in range(m):
            q = (q[:, None] + hit).ravel()
        order = np.argsort(q, kind="stable")
        starts = np.searchsorted(q[order], np.arange(1, m + 1)).tolist()
    for b, t in enumerate(tiles):
        if grouped:
            lead = sum(b // d**e % d == first for e in range(high))
            np.take(t, order, out=amp)
            term.fill(0)
            for _ in range(lead):
                term += amp
            for start in starts:
                term[start:] += amp[start:]
            o[order] = term
            _divide(o, n)
            yield slice(b * size, (b + 1) * size), o
            continue
        o.fill(0)
        for alpha in range(high):
            place = d ** (high - alpha - 1)
            c = b // place % d
            if kvec[c] == 0:
                continue
            if unit:  # c is the live index, so the tile with digit c is t
                o += t
                continue
            base = b - c * place
            np.multiply(tiles[base + first * place], kc[first], out=amp)
            for i in rest:
                np.multiply(tiles[base + i * place], kc[i], out=term)
                amp += term
            np.multiply(amp, kvec[c], out=term)
            o += term
        for alpha in range(m):
            outer, inner = d**alpha, d ** (m - alpha - 1)
            tv, ov = t.reshape(outer, d, inner), o.reshape(outer, d, inner)
            if unit:
                ov[:, first, :] += tv[:, first, :]
                continue
            a, w = amp_low.reshape(outer, inner), term_low.reshape(outer, inner)
            np.multiply(tv[:, first, :], kc[first], out=a)
            for i in rest:
                np.multiply(tv[:, i, :], kc[i], out=w)
                a += w
            for i in (first, *rest):
                np.multiply(a, kvec[i], out=w)
                ov[:, i, :] += w
        _divide(o, n)
        yield slice(b * size, (b + 1) * size), o


def dense_apply_frequency(
    k: int, v: DenseVector, basis: UnitaryMatrix | None = None
) -> DenseVector:
    """Apply the N-slot frequency-of-outcome-``k`` operator to ``v``.

    The operator is the mean over slots of the rank-one projector onto the
    ``k``-th measurement vector acting on that slot alone; it is applied
    one cache-sized tile at a time (see ``_frequency_tiles``).
    """
    out = np.empty_like(v.amps)
    for block, o in _frequency_tiles(_measurement_vector(k, v.d, basis), v):
        out[block] = o
    return DenseVector._adopt(v.d, v.n_slots, out)


def _matrix_size(d: int, n_slots: int) -> int:
    size = _dense_size(d, n_slots)
    if size > MATRIX_CAP:
        raise ValueError(f"matrix side {size} exceeds the cap {MATRIX_CAP}")
    return size


def _column_slices(
    kvec: np.ndarray, n_slots: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The columns of ``f``, ``EIGEN_COLUMNS`` at a time, as ``(cols, digits, diag)``.

    ``digits[alpha, j]`` is the digit of column ``cols[j]`` at slot alpha
    (slot 1 varies slowest). Its diagonal entry adds ``kvec[c] conj(kvec[c])``
    for the digit c of each slot, in slot order from +0, and is divided by N.
    """
    d = kvec.size
    w = kvec * kvec.conj()
    for start in range(0, d**n_slots, EIGEN_COLUMNS):
        cols = np.arange(start, min(start + EIGEN_COLUMNS, d**n_slots))
        digits = np.array(np.unravel_index(cols, (d,) * n_slots))
        diag = np.zeros(cols.size, dtype=np.complex128)
        for v in w[digits]:
            diag += v
        _divide(diag, n_slots)
        yield cols, digits, diag


def dense_frequency_matrix(
    k: int, n_slots: int, d: int, basis: UnitaryMatrix | None = None
) -> np.ndarray:
    """The full ``d**N x d**N`` frequency operator matrix (small N only).

    Each column of `_column_slices` gets its diagonal entry and writes every
    nonzero `_off_diagonal` entry of its digits once, at its own row.
    """
    size = _matrix_size(d, n_slots)
    kvec = _measurement_vector(k, d, basis)
    off = _off_diagonal(kvec, n_slots)
    place = d ** np.arange(n_slots - 1, -1, -1)
    m = np.zeros((size, size), dtype=np.complex128)
    for cols, digits, diag in _column_slices(kvec, n_slots):
        m[cols, cols] = diag
        if off.any():
            vals = off[digits]
            alpha, j, i = np.nonzero(vals)
            m[cols[j] + (i - digits[alpha, j]) * place[alpha], cols[j]] = vals[alpha, j, i]
    return m


def dense_spectrum(
    k: int, n_slots: int, d: int, basis: UnitaryMatrix | None = None
) -> np.ndarray:
    """Ascending eigenvalues of the dense frequency operator.

    A matrix without an off-diagonal entry (the standard basis, one that
    permutes it, or either with phases) is its own eigendecomposition: its
    sorted real diagonal is returned, which are the bits ``eigvalsh`` gives
    for it. That is read off the ``d x d`` table of `_off_diagonal` and the
    column slices, with no matrix. Any other matrix goes through ``eigvalsh``.
    """
    _matrix_size(d, n_slots)
    kvec = _measurement_vector(k, d, basis)
    if _off_diagonal(kvec, n_slots).any():
        return np.linalg.eigvalsh(dense_frequency_matrix(k, n_slots, d, basis))
    eigs = np.empty(d**n_slots)
    for cols, _, diag in _column_slices(kvec, n_slots):
        eigs[cols] = diag.real
    eigs.sort()
    return eigs


def eigencheck_standard_basis(k: int, n_slots: int, d: int) -> tuple[np.ndarray, float]:
    """Eigenvalue and residual of ``f`` at every standard product basis vector.

    Returns ``lambda_j = Re f_jj`` for each ``e_j`` and the worst residual
    ``||f e_j - lambda_j e_j||``: this checks, beyond the matrix cap, rather
    than assumes that the standard basis diagonalizes the operator. The
    squared residual is ``Im f_jj ** 2`` plus, per slot of j, the squared norm
    ``r[c]`` of the `_off_diagonal` row of its digit c. That table is one
    ``d x d`` array, ``d <= MATRIX_CAP``, and the columns are read
    ``EIGEN_COLUMNS`` at a time, so memory does not grow with ``d**N``.
    """
    size = _dense_size(d, n_slots)
    d = _size(d, "d", hi=MATRIX_CAP)
    kvec = _measurement_vector(k, d, None)
    sq = _off_diagonal(kvec, n_slots).view(np.float64)
    np.multiply(sq, sq, out=sq)
    r = sq.sum(axis=1)
    eigs = np.empty(size)
    worst = 0.0
    for cols, digits, diag in _column_slices(kvec, n_slots):
        residuals = r[digits].sum(axis=0) + diag.imag * diag.imag
        np.sqrt(residuals, out=residuals)
        eigs[cols] = diag.real
        # np.maximum, unlike max, keeps a NaN residual as the worst
        worst = float(np.maximum(worst, np.max(residuals)))
    return eigs, worst


def dense_deviation(
    s: StateVector, k: int, n_slots: int, basis: UnitaryMatrix | None = None
) -> float:
    """``|| (f - p) |s>^N ||`` computed entirely in the dense representation.

    ``|s>^N`` is the only array of ``d**N`` amplitudes. Each tile of
    ``f |s>^N`` has ``p`` times its tile of ``|s>^N`` subtracted and is
    squared in place while it is in cache; numpy sums each tile's squares,
    with no BLAS reduction, whose bits would depend on the thread count,
    and ``math.fsum`` adds the tile sums exactly rounded. The bits are fixed
    for a given ``APPLY_TILE``. Every square is at least 0 or NaN, so an
    inf or NaN amplitude makes the total non-finite, and that one check
    stands in for a check of every tile.
    """
    kvec = _measurement_vector(k, s.dim, basis)
    p = abs(complex(np.vdot(kvec, s.amps))) ** 2
    v = kron_power(s, n_slots)
    # a tile holds at most APPLY_TILE amplitudes, or one slot's d
    scratch = np.empty(max(min(APPLY_TILE, v.amps.size), s.dim), dtype=v.amps.dtype)
    sums = []
    for block, o in _frequency_tiles(kvec, v):
        diff = scratch[: o.size]
        np.multiply(v.amps[block], p, out=diff)
        np.subtract(o, diff, out=diff)
        sq = diff.view(np.float64)
        np.multiply(sq, sq, out=sq)
        sums.append(sq.sum())
    total = math.fsum(sums)
    if not math.isfinite(total):
        raise ValueError("amplitudes contain non-finite entries")
    return math.sqrt(total)
