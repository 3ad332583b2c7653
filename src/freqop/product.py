"""Linear combinations of infinite product vectors with constant tails.

A term is ``coeff * |t> |t> |t> ...`` with finitely many slots edited: a
unit tail vector repeated forever, except at the edited slot positions,
which hold arbitrary slot vectors (von Neumann's incomplete tensor product).
All ensemble states used elsewhere in this package live in this class, and
it is closed under the frequency operators (they touch finitely many slots).

The scalar product of two terms is the product of slot-wise overlaps. Over
the slots either term edits it is a finite product; the infinite run of
identical factors ``z = <tail_a|tail_b>`` at every other slot either
converges to 1 (when ``z`` is 1) or kills the term pair (|z| < 1 drives the
product to zero; a unimodular ``z != 1`` never settles, and such pairs are
assigned overlap zero as well). ``TAIL_EPS`` makes that dichotomy
numerically explicit.
"""

from __future__ import annotations

import math

import numpy as np

from .hilbert import HERMITIAN_TOL, NORM_TOL, StateVector, _as_complex_vector


TAIL_EPS = 1e-12  # tails with |<tail_a|tail_b> - 1| <= TAIL_EPS count as equal


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


def _tail_classes(state: ProductState) -> list[list[ProductTerm]]:
    # terms grouped by equal tail, in order of first appearance
    classes = {}
    for t in state.terms:
        classes.setdefault(t._tail.tobytes(), []).append(t)
    return list(classes.values())


def _pair_product(ea: dict, eb: dict, tail_a, tail_b, overlap) -> complex:
    # prod over the edited slots of either term of <slot_a(alpha)|slot_b(alpha)>;
    # the slots neither term edits count as 1, as past the last edit
    g = 1 + 0j
    for alpha, u in ea.items():
        g *= overlap(u, eb.get(alpha, tail_b))
    for beta, v in eb.items():
        if beta not in ea:
            g *= overlap(tail_a, v)
    return g


def _class_factors(ta: list[ProductTerm], tb: list[ProductTerm]):
    """Factors of the term-pair products of one tail class of each state.

    An edit of term i meets tail b at every slot term j leaves alone, so
    the pair's product, coefficients excluded, is ``x_i y_j`` with
    ``x_i = prod <e_i(alpha)|tail_b>`` over term i's edits and
    ``y_j = prod <tail_a|e_j(beta)>`` over term j's. The pairs that share
    an edited slot, found through a slot index, are the exceptions: they
    come back as ``(i, j, exact product)``, in term order.
    """
    tail_a, tail_b = ta[0].tail, tb[0].tail
    cache = {}

    def overlap(u, v):
        # slot vectors are read-only and outlive the call: key by identity
        key = (id(u), id(v))
        z = cache.get(key)
        if z is None:
            z = cache[key] = complex(np.vdot(u, v))
        return z

    x = [_pair_product(t._edits, {}, tail_a, tail_b, overlap) for t in ta]
    y = [_pair_product({}, t._edits, tail_a, tail_b, overlap) for t in tb]
    by_slot = {}
    for j, t in enumerate(tb):
        for beta in t._edits:
            by_slot.setdefault(beta, []).append(j)
    shared = []
    for i, t in enumerate(ta):
        for j in dict.fromkeys(j for alpha in t._edits for j in by_slot.get(alpha, ())):
            g = _pair_product(t._edits, tb[j]._edits, tail_a, tail_b, overlap)
            shared.append((i, j, g))
    return x, y, shared


def inner_infinite(a: ProductState, b: ProductState) -> complex:
    """Scalar product ``<a|b>``, antilinear in ``a``.

    Bilinear extension over term pairs of the slot-product formula in the
    module docstring. Within a pair of tail classes the sum over term pairs
    is the rank-one ``(sum conj(c_i) x_i)(sum c_j y_j)`` of `_class_factors`,
    with the pairs that share an edited slot traded for their exact product.
    Class pairs whose tails fail the tail rule are never visited, so exact
    zeros from the rule are exact in the result.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    classes_b = _tail_classes(b)
    total = 0j
    for ta in _tail_classes(a):
        for tb in classes_b:
            if abs(complex(np.vdot(ta[0].tail, tb[0].tail)) - 1.0) > TAIL_EPS:
                continue
            x, y, shared = _class_factors(ta, tb)
            ca = [t.coeff.conjugate() for t in ta]
            cb = [t.coeff for t in tb]
            total += sum(c * xi for c, xi in zip(ca, x)) * sum(c * yj for c, yj in zip(cb, y))
            for i, j, g in shared:
                total += ca[i] * cb[j] * (g - x[i] * y[j])
    return total


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
