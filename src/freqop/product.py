"""Linear combinations of infinite product vectors with constant tails.

A term is ``coeff * |t> |t> |t> ...`` with finitely many slots edited: a
unit tail vector repeated forever, except at the edited slot positions,
which hold arbitrary slot vectors (von Neumann's incomplete tensor product).
All ensemble states used elsewhere in this package live in this class, and
it is closed under the frequency operators (they touch finitely many slots).

The scalar product of two terms is the product of slot-wise overlaps. Up to
the last edited slot of either term it is a finite product; the remaining
infinite run of identical factors ``z = <tail_a|tail_b>`` either converges
to 1 (when ``z`` is 1) or kills the term pair (|z| < 1 drives the product to
zero; a unimodular ``z != 1`` never settles, and such pairs are assigned
overlap zero as well). ``TAIL_EPS`` makes that dichotomy numerically explicit.
"""

from __future__ import annotations

import math

import numpy as np

from .hilbert import HERMITIAN_TOL, NORM_TOL, StateVector, _as_complex_vector


TAIL_EPS = 1e-12  # tails with |<tail_a|tail_b> - 1| <= TAIL_EPS count as equal


def _tail_factor(z) -> np.ndarray:
    """Elementwise tail factor of the tail overlaps ``z``: 1 or exactly 0.

    The factor is 1 when ``|z - 1| <= TAIL_EPS`` and exactly 0 otherwise. The
    factors come as complex numbers, so that the slot overlaps of a term pair
    multiply into them in place.
    """
    return (np.abs(z - 1.0) <= TAIL_EPS).astype(np.complex128)


def _slot_array(slot, what: str) -> np.ndarray:
    if isinstance(slot, StateVector):
        a = slot.amps.copy()
    else:
        a = _as_complex_vector(slot, what).copy()
    a.setflags(write=False)
    return a


class ProductTerm:
    """One weighted product vector: a constant unit tail with edited slots.

    Slot ``i`` of ``prefix`` edits position ``i`` (1-based). Edited slots may
    have any norm (projections happen in place there); the tail must be a
    unit vector, since it repeats forever.
    """

    __slots__ = ("_coeff", "_edits", "_tail", "_dim")

    def __init__(self, coeff: complex, prefix, tail):
        c = complex(coeff)
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise ValueError("coeff must be finite")
        tail_arr = _slot_array(tail, "tail")
        n = float(np.linalg.norm(tail_arr))
        if abs(n - 1.0) > NORM_TOL:
            raise ValueError(f"tail norm {n:.12g} deviates from 1 beyond {NORM_TOL}")
        d = tail_arr.size
        edits = {}
        for alpha, s in enumerate(prefix, start=1):
            a = _slot_array(s, f"prefix slot {alpha}")
            if a.size != d:
                raise ValueError(
                    f"prefix slot {alpha} has dim {a.size}, tail has dim {d}"
                )
            edits[alpha] = a
        self._coeff = c
        self._edits = edits
        self._tail = tail_arr
        self._dim = d

    @property
    def coeff(self) -> complex:
        return self._coeff

    @property
    def tail(self) -> np.ndarray:
        return self._tail

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def prefix_len(self) -> int:
        return max(self._edits, default=0)

    def slot(self, alpha: int) -> np.ndarray:
        """Slot vector at 1-based position ``alpha`` (the tail if not edited)."""
        if alpha < 1:
            raise ValueError("slot positions are 1-based")
        return self._edits.get(alpha, self._tail)

    def __repr__(self) -> str:
        return (
            f"ProductTerm(dim={self._dim}, prefix_len={self.prefix_len}, "
            f"coeff={self._coeff:.6g})"
        )


def _edited(t: ProductTerm, coeff: complex, alpha: int | None = None, v=None):
    # t with coefficient coeff and, if alpha is given, slot alpha set to v;
    # the arrays are shared, not copied or checked.
    u = ProductTerm.__new__(ProductTerm)
    u._coeff = coeff
    u._edits = t._edits if alpha is None else {**t._edits, alpha: v}
    u._tail = t._tail
    u._dim = t._dim
    return u


class ProductState:
    """A finite linear combination of ``ProductTerm``s of one slot dimension."""

    __slots__ = ("_terms", "_dim")

    def __init__(self, terms, dim: int | None = None):
        ts = tuple(terms)
        if ts:
            d = ts[0].dim
            for t in ts:
                if t.dim != d:
                    raise ValueError("all terms must share one slot dimension")
            if dim is not None and dim != d:
                raise ValueError(f"dim={dim} conflicts with term dim {d}")
        else:
            if dim is None:
                raise ValueError("an empty ProductState needs an explicit dim")
            d = dim
        if d < 1:
            raise ValueError("dim must be positive")
        self._terms = ts
        self._dim = d

    @property
    def terms(self) -> tuple[ProductTerm, ...]:
        return self._terms

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def max_prefix_len(self) -> int:
        return max((t.prefix_len for t in self._terms), default=0)

    def __repr__(self) -> str:
        return f"ProductState(dim={self._dim}, terms={len(self._terms)})"


def ensemble(s: StateVector) -> ProductState:
    """The infinitely repeated preparation ``|s> |s> |s> ...`` (one term)."""
    return ProductState([ProductTerm(1.0, (), s)])


def add(a: ProductState, b: ProductState) -> ProductState:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return ProductState(a.terms + b.terms, dim=a.dim)


def scale(a: ProductState, c: complex) -> ProductState:
    c = complex(c)
    if not (math.isfinite(c.real) and math.isfinite(c.imag)):
        raise ValueError("scale factor must be finite")
    return ProductState(
        [_edited(t, t.coeff * c) for t in a.terms],
        dim=a.dim,
    )


def _stacked_slots(state: ProductState, length: int) -> np.ndarray:
    # (n_terms, length, dim): each term's tail, overwritten at its edited
    # slots; every edited slot lies within ``length``.
    tails = np.stack([t.tail for t in state.terms])
    out = np.repeat(tails[:, None, :], length, axis=1)
    for i, t in enumerate(state.terms):
        for alpha, v in t._edits.items():
            out[i, alpha - 1] = v
    return out


def pairwise_term_gram(a: ProductState, b: ProductState) -> np.ndarray:
    """Matrix of term-pair scalar products, coefficients excluded.

    Entry (i, j) is ``prod_alpha <slot_i(alpha)|slot_j(alpha)>`` up to the
    last edited slot of either state, times the tail factor; when the tail
    factors zero every pair, no slot is visited. Slot products are
    accumulated one slot position at a time across all term pairs, so the
    evaluation order is fixed by term index and reproducible.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    ta, tb = len(a.terms), len(b.terms)
    if ta == 0 or tb == 0:
        return np.zeros((ta, tb), dtype=np.complex128)
    tails_a = np.stack([t.tail for t in a.terms])
    tails_b = np.stack([t.tail for t in b.terms])
    z = tails_a.conj() @ tails_b.T
    gram = _tail_factor(z)
    if not gram.any():
        return gram
    span = max(a.max_prefix_len, b.max_prefix_len)
    if span:
        sa = _stacked_slots(a, span)
        sb = _stacked_slots(b, span)
        for alpha in range(span):
            gram *= sa[:, alpha, :].conj() @ sb[:, alpha, :].T
    return gram


def inner_infinite(a: ProductState, b: ProductState) -> complex:
    """Scalar product ``<a|b>``, antilinear in ``a``.

    Bilinear extension over term pairs of the slot-product formula in the
    module docstring. Exact zeros from the tail rule are exact in the result.
    """
    gram = pairwise_term_gram(a, b)
    if gram.size == 0:
        return 0j
    ca = np.array([t.coeff for t in a.terms], dtype=np.complex128)
    cb = np.array([t.coeff for t in b.terms], dtype=np.complex128)
    return complex(ca.conj() @ gram @ cb)


def _self_product(a: ProductState) -> float:
    """``<a|a>``, checked to be real and non-negative up to ``HERMITIAN_TOL``.

    Within that tolerance a negative value is roundoff and comes back as 0.
    """
    x = inner_infinite(a, a)
    if abs(x.imag) > HERMITIAN_TOL:
        raise ArithmeticError(f"<a|a> has imaginary part {x.imag:.3g}")
    if x.real < -HERMITIAN_TOL:
        raise ArithmeticError(f"<a|a> is negative: {x.real:.3g}")
    return max(x.real, 0.0)


def norm(a: ProductState) -> float:
    """``sqrt(<a|a>)``, checking that the quadratic form behaves."""
    return math.sqrt(_self_product(a))
