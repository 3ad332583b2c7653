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

A state is stored as one array record per tail class (`_TailClass`): a
coefficient vector and the edits in CSR form, so the scalar product costs a
fixed number of numpy operations per pair of classes, not Python work per
term. A ``ProductTerm`` is a one-term record of the same kind.
"""

from __future__ import annotations

import math

import numpy as np

from .hilbert import (
    HERMITIAN_TOL,
    StateVector,
    _as_complex_array,
    _divide,
    _integer,
    _size,
    _unit_amplitudes,
)


TAIL_EPS = 1e-12  # tails with |<tail_a|tail_b> - 1| <= TAIL_EPS count as equal


def _slot_array(slot, what: str) -> np.ndarray:
    if isinstance(slot, StateVector):
        a = slot.amps.copy()
    else:
        a = _as_complex_array(slot, what, 1).copy()
    a.setflags(write=False)
    return a


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``<u|v>`` over the last axis: products summed over the slot dimension
    in one einsum loop, with no BLAS call, so no bit depends on the threads."""
    return np.einsum("...i,...i->...", u.conj(), v)


def _cmul(a, b) -> np.ndarray:
    """``a * b`` elementwise, rounded as Python's complex product rounds it:
    each part is two products and a sum, never a fused multiply-add."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    re = ar * br - ai * bi
    out = np.empty(re.shape, dtype=np.complex128)
    out.real = re
    out.imag = ar * bi + ai * br
    return out


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The runs ``arange(s, s + n)`` for each start and length, concatenated."""
    ends = lens.cumsum()
    return np.arange(ends[-1] if ends.size else 0) + (starts - ends + lens).repeat(lens)


def _segment_products(f, starts, lens, top: int, g=None) -> np.ndarray:
    """Products of the runs ``f[s:s + n]`` (``n <= top``), factor by factor
    in run order, onto ``g`` (an empty run keeps its entry, 1 by default)."""
    fresh = g is None
    if fresh:
        g = np.empty(lens.size, dtype=np.complex128)
        g.fill(1.0)
    for k in range(top):
        live = (lens > k).nonzero()[0]
        factor = f[starts[live] + k]
        # 1 * factor is the factor itself but for the sign of a zero part,
        # which a sum that starts at +0 never shows
        g[live] = factor if fresh and k == 0 else _cmul(g[live], factor)
    return g


class _TailClass:
    """The terms of a state that share one tail, as arrays.

    Term ``i`` has coefficient ``coeff[i]`` and the edits
    ``offsets[i]:offsets[i + 1]``: 1-based slot indices in ``slots``
    (distinct within a term, in the order they were set) and slot vectors
    in the rows of ``vecs``. Nothing else is kept: `_class_factors`, the one
    function that joins classes, derives its join arrays itself.
    """

    __slots__ = ("tail", "coeff", "counts", "offsets", "slots", "vecs")

    def __init__(self, tail, coeff, counts, slots, vecs):
        for a in (coeff, slots, vecs):
            a.setflags(write=False)
        self.tail = tail
        self.coeff = coeff
        self.counts = counts
        self.offsets = np.concatenate(([0], counts.cumsum()))
        self.slots = slots
        self.vecs = vecs


def _with_slot(c: _TailClass, term, slot, v: np.ndarray, coeff) -> _TailClass:
    """Terms ``term`` of ``c``, with coefficients ``coeff``, where output term
    m has slot ``slot[m]`` set to ``v``: in place if the term edits that slot,
    else as its last edit."""
    if not c.slots.size:  # unedited terms: each gains its one edit
        return _TailClass(c.tail, coeff, np.ones(term.size, dtype=np.int64), slot,
                          np.broadcast_to(v, (term.size, v.size)))
    n_old = c.counts[term]
    src = _ranges(c.offsets[term], n_old)
    same = c.slots[src] == slot.repeat(n_old)
    appended = np.ones(term.size, dtype=bool)
    appended[np.arange(term.size).repeat(n_old)[same]] = False
    counts = n_old + appended
    start = counts.cumsum() - counts
    dst = _ranges(start, n_old)
    slots = np.empty(counts.sum(), dtype=np.int64)
    vecs = np.empty((slots.size, v.size), dtype=np.complex128)
    slots[dst], vecs[dst] = c.slots[src], c.vecs[src]
    vecs[dst[same]] = v
    new = (start + n_old)[appended]
    slots[new], vecs[new] = slot[appended], v
    return _TailClass(c.tail, coeff, counts, slots, vecs)


def _by_tail(classes: list[_TailClass]) -> list[_TailClass]:
    """One class per tail of ``classes``, in order of first appearance,
    holding the terms of the classes of that tail in order."""
    groups = {}
    for c in classes:
        groups.setdefault(c.tail.tobytes(), []).append(c)
    return [g[0] if len(g) == 1 else
            _TailClass(g[0].tail, *(np.concatenate([getattr(c, f) for c in g])
                                    for f in ("coeff", "counts", "slots", "vecs")))
            for g in groups.values()]


class ProductTerm:
    """One weighted product vector: a constant unit tail with edited slots.

    Slot ``i`` of ``prefix`` edits position ``i`` (1-based). Edited slots may
    have any norm (projections happen in place there); the tail must be a
    unit vector, since it repeats forever, and is checked and rescaled as a
    ``StateVector``'s amplitudes are. The term is held as a one-term
    `_TailClass`, the record a state keeps per tail.
    """

    __slots__ = ("_class",)

    def __init__(self, coeff: complex, prefix, tail):
        c = complex(coeff)
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise ValueError("coeff must be finite")
        tail_arr = _unit_amplitudes(_slot_array(tail, "tail amplitudes"), False, "tail")
        d = tail_arr.size
        vecs = []
        for alpha, s in enumerate(prefix, start=1):
            a = _slot_array(s, f"prefix slot {alpha} amplitudes")
            if a.size != d:
                raise ValueError(
                    f"prefix slot {alpha} has dim {a.size}, tail has dim {d}"
                )
            vecs.append(a)
        self._class = _TailClass(
            tail_arr, np.array([c]), np.array([len(vecs)]), np.arange(1, len(vecs) + 1),
            np.array(vecs, dtype=np.complex128).reshape(len(vecs), d))

    @classmethod
    def _of(cls, c: _TailClass) -> ProductTerm:
        # the term of a one-term class, shared, not copied or checked
        t = cls.__new__(cls)
        t._class = c
        return t

    @property
    def coeff(self) -> complex:
        return complex(self._class.coeff[0])

    @property
    def tail(self) -> np.ndarray:
        return self._class.tail

    @property
    def dim(self) -> int:
        return self._class.tail.size

    @property
    def prefix_len(self) -> int:
        return int(self._class.slots.max(initial=0))

    def slot(self, alpha: int) -> np.ndarray:
        """Slot vector at 1-based position ``alpha`` (the tail if not edited)."""
        a = _integer(alpha)
        if a is None or a < 1:
            raise ValueError(f"slot positions are 1-based integers, got {alpha!r}")
        hit = np.flatnonzero(self._class.slots == a)
        return self._class.vecs[hit[0]] if hit.size else self._class.tail

    def __repr__(self) -> str:
        return (
            f"ProductTerm(dim={self.dim}, prefix_len={self.prefix_len}, "
            f"coeff={self.coeff:.6g})"
        )


def _edited(t: ProductTerm, coeff: complex, alpha: int, v) -> ProductTerm:
    # t with coefficient coeff and slot alpha set to v (in place if t edits
    # it, else as its last edit); v is not checked
    return ProductTerm._of(_with_slot(
        t._class, np.zeros(1, dtype=np.int64), np.array([alpha]),
        np.asarray(v, dtype=np.complex128), np.array([coeff], dtype=np.complex128)))


class ProductState:
    """A finite linear combination of ``ProductTerm``s of one slot dimension.

    The terms are held per tail class; ``terms`` lists them class by class,
    each class in the order its terms were given.
    """

    __slots__ = ("_classes", "_dim")

    def __init__(self, terms, dim: int | None = None):
        if dim is not None:
            dim = _size(dim, "dim")
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
        self._classes = _by_tail([t._class for t in ts])
        self._dim = d

    @classmethod
    def _of(cls, classes: list[_TailClass], dim: int) -> ProductState:
        state = cls.__new__(cls)
        state._classes = classes
        state._dim = dim
        return state

    @property
    def terms(self) -> tuple[ProductTerm, ...]:
        return tuple(
            ProductTerm._of(_TailClass(c.tail, c.coeff[i:i + 1], c.counts[i:i + 1],
                                       c.slots[lo:hi], c.vecs[lo:hi]))
            for c in self._classes
            for i, (lo, hi) in enumerate(zip(c.offsets[:-1], c.offsets[1:]))
        )

    @property
    def dim(self) -> int:
        return self._dim

    def __repr__(self) -> str:
        n_terms = sum(c.coeff.size for c in self._classes)
        return f"ProductState(dim={self._dim}, terms={n_terms})"


def ensemble(s: StateVector) -> ProductState:
    """The infinitely repeated preparation ``|s> |s> |s> ...`` (one term)."""
    one = _TailClass(_slot_array(s, "tail"), np.ones(1, dtype=np.complex128),
                     np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64),
                     np.zeros((0, s.dim), dtype=np.complex128))
    return ProductState._of([one], s.dim)


def _one_edit_terms(s: StateVector, v: np.ndarray, n: int) -> ProductState:
    """``n`` terms of coefficient 1 over the tail ``s``: term alpha edits
    slot alpha alone, with ``v``."""
    (c,) = ensemble(s)._classes
    block = _with_slot(c, np.zeros(n, dtype=np.int64), np.arange(1, n + 1), v,
                       np.ones(n, dtype=np.complex128))
    return ProductState._of([block], s.dim)


def _frequency_image(psi: ProductState, kvec: np.ndarray, n: int) -> ProductState:
    """`frequency.apply_frequency` of ``psi`` with ``kvec`` over ``n`` slots."""
    out = []
    for c in psi._classes:
        # overlap[i, alpha - 1] = <k| slot alpha of term i>
        overlap = np.full((c.coeff.size, n), _dot(kvec, c.tail))
        if c.slots.size:
            owner = np.arange(c.coeff.size).repeat(c.counts)  # the term of each edit
            late = owner[c.slots > n]  # the terms of the edits past slot N
            if late.size:
                raise ValueError(
                    f"term prefix length {c.slots[owner == late[0]].max()} "
                    f"exceeds the operator's n_slots={n}"
                )
            overlap[owner, c.slots - 1] = _dot(kvec, c.vecs)
        term, col = overlap.nonzero()  # term by term, slot by slot
        if not term.size:
            continue
        coeff = _cmul(c.coeff[term], overlap[term, col])
        _divide(coeff, n)
        out.append(_with_slot(c, term, col + 1, kvec, coeff))
    return ProductState._of(out, psi.dim)


def add(a: ProductState, b: ProductState) -> ProductState:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return ProductState._of(_by_tail(a._classes + b._classes), a.dim)


def scale(a: ProductState, c: complex) -> ProductState:
    c = complex(c)
    if not (math.isfinite(c.real) and math.isfinite(c.imag)):
        raise ValueError("scale factor must be finite")
    return ProductState._of(
        [_TailClass(k.tail, _cmul(k.coeff, c), k.counts, k.slots, k.vecs)
         for k in a._classes], a.dim
    )


def _side(c: _TailClass, tail: np.ndarray):
    """One side of a join of ``c`` with a class of tail ``tail``: the term of
    each edit, the most edits of a term, each edit's overlap ``<tail|e>``
    and each term's product of its edits' overlaps, taken in edit order."""
    max_count = int(c.counts.max(initial=0))
    overlaps = _dot(tail, c.vecs)
    return (np.arange(c.counts.size).repeat(c.counts), max_count, overlaps,
            _segment_products(overlaps, c.offsets[:-1], c.counts, max_count))


def _class_factors(ca: _TailClass, cb: _TailClass):
    """Factors of the term-pair products of one tail class of each state.

    An edit of term i meets tail b at every slot term j leaves alone, so
    the pair's product, coefficients excluded, is ``x_i y_j`` with
    ``x_i = prod <e_i(alpha)|tail_b>`` over term i's edits and
    ``y_j = prod <tail_a|e_j(beta)>`` over term j's. Both sides follow one
    rule: the b side is ``_side(cb, tail_a)``, and the a side the conjugate
    of ``_side(ca, tail_b)``, which a class joined with itself reads off its
    b side. The pairs that share an edited slot, found by joining the edits
    on their sorted slots, are the exceptions: they come back as arrays
    ``(i, j, exact product)``, in term order, each pair once.
    """
    owner_b, max_count_b, yb, y = side_b = _side(cb, ca.tail)
    owner_a, max_count_a, xa, x = side_b if cb is ca else _side(ca, cb.tail)
    xa, x = xa.conj(), x.conj()
    # every meeting (edit e of a, edit f of b) on one slot, in a's edit
    # order: b's edits sorted by slot, stably, then searched
    order = cb.slots.argsort(kind="stable")
    sorted_slots = cb.slots[order]
    lo = sorted_slots.searchsorted(ca.slots, "left")
    hits = sorted_slots.searchsorted(ca.slots, "right") - lo
    e = np.arange(ca.slots.size).repeat(hits)
    f = order[_ranges(lo, hits)]
    i, j = owner_a[e], owner_b[f]
    shared = _dot(ca.vecs[e], cb.vecs[f])
    if max_count_a <= 1 and max_count_b <= 1:
        # terms of one edit at most: a pair that meets shares its only one
        return x, y, (i, j, shared)
    pair = np.arange(e.size)
    if max_count_a > 1 and max_count_b > 1:
        # terms that share several slots meet once per slot: keep the first
        _, first, inv = np.unique(i * cb.coeff.size + j, return_index=True,
                                  return_inverse=True)
        rank = first.argsort()
        pair = rank.argsort()[inv]
        i, j = i[first[rank]], j[first[rank]]
    # exact products: term i's edits in order, each against term j's edit on
    # its slot or else tail b, then term j's other edits against tail a
    n_a = ca.counts[i]
    fa = xa[_ranges(ca.offsets[i], n_a)]
    start_a = n_a.cumsum() - n_a
    fa[start_a[pair] + e - ca.offsets[owner_a[e]]] = shared
    g = _segment_products(fa, start_a, n_a, max_count_a)
    n_b = cb.counts[j]
    if n_b.sum() > f.size:  # some term j edits a slot its term i leaves alone
        fb = yb[_ranges(cb.offsets[j], n_b)]
        alone = np.ones(fb.size, dtype=bool)
        start_b = n_b.cumsum() - n_b
        alone[start_b[pair] + f - cb.offsets[owner_b[f]]] = False
        n_b = n_b - np.bincount(pair, minlength=i.size)
        g = _segment_products(fb[alone], n_b.cumsum() - n_b, n_b, max_count_b, g)
    return x, y, (i, j, g)


def _class_pair_sums(a: ProductState, b: ProductState):
    """The live class pairs of ``<a|b>`` in class order, each as
    ``(m, n, sa, sb, i, j, corr)``.

    Class ``m`` of ``a`` meets class ``n`` of ``b``; ``sa`` and ``sb`` are the
    cumulative sums, in term order, of ``conj(c_i) x_i`` and ``c_j y_j`` of
    `_class_factors`, and ``corr[q]`` is what shared pair ``(i[q], j[q])``
    adds to their rank-one product: its exact product minus ``x_i y_j``,
    times ``conj(c_i) c_j``. As in `_class_factors`, the a side is the
    conjugate of the b side's rule, ``sa = conj(cumsum(c_i conj(x_i)))``,
    so a class joined with itself has ``sa = conj(sb)``. Class pairs whose
    tails fail the tail rule are skipped.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    for m, ka in enumerate(a._classes):
        for n, kb in enumerate(b._classes):
            if abs(complex(_dot(ka.tail, kb.tail)) - 1.0) > TAIL_EPS:
                continue
            x, y, (i, j, g) = _class_factors(ka, kb)
            # one pass of products: c_j y_j, then per shared pair
            # conj(c_i) c_j and x_i y_j
            t = y.size
            prod = _cmul(np.concatenate((kb.coeff, ka.coeff[i].conj(), x[i])),
                         np.concatenate((y, kb.coeff[j], y[j])))
            sb = prod[:t].cumsum()
            sa = sb.conj() if kb is ka else _cmul(ka.coeff, x.conj()).cumsum().conj()
            yield m, n, sa, sb, i, j, _cmul(prod[t:t + i.size], g - prod[t + i.size:])


def _total(parts: list) -> complex:
    # rank-one products and corrections, summed in the order given
    return complex(np.concatenate([np.zeros(1, dtype=np.complex128), *parts]).cumsum()[-1])


def inner_infinite(a: ProductState, b: ProductState) -> complex:
    """Scalar product ``<a|b>``, antilinear in ``a``.

    Bilinear extension over term pairs of the slot-product formula in the
    module docstring. Within a pair of tail classes the sum over term pairs
    is the rank-one ``(sum conj(c_i) x_i)(sum c_j y_j)`` of `_class_factors`,
    with the pairs that share an edited slot traded for their exact product.
    Every sum runs in term order (a cumulative sum, not numpy's pairwise
    one). Class pairs whose tails fail the tail rule are never visited, so
    exact zeros from the rule are exact in the result.
    """
    parts = []
    for _, _, sa, sb, _, _, corr in _class_pair_sums(a, b):
        parts += [[complex(sa[-1]) * complex(sb[-1])], corr]
    return _total(parts)


def _real_square(x: complex) -> float:
    """A self product ``x``, checked to be real and non-negative up to
    ``HERMITIAN_TOL``; within that tolerance a negative value is roundoff
    and comes back as 0."""
    if abs(x.imag) > HERMITIAN_TOL:
        raise ArithmeticError(f"<a|a> has imaginary part {x.imag:.3g}")
    if x.real < -HERMITIAN_TOL:
        raise ArithmeticError(f"<a|a> is negative: {x.real:.3g}")
    return max(x.real, 0.0)


def _self_product(a: ProductState) -> float:
    """``<a|a>``, checked as `_real_square` checks it."""
    return _real_square(inner_infinite(a, a))


def _self_products(head: ProductState, a: ProductState) -> tuple[float, float]:
    """``<head|head>`` and ``<a|a>`` for ``a = add(head, rest)``, from one
    pass over the class pairs of ``a``; both checked as `_real_square` does.

    Class ``m`` of ``a`` begins with the terms of class ``m`` of ``head``
    (`add` keeps the classes of its first argument first, in order, and each
    one's terms first). So each class pair of ``head`` is a class pair of
    ``a`` cut to its leading terms: its rank-one factors are the term-order
    sums of ``a`` at the last of them, and its shared pairs those of ``a``
    with both terms among them. The two totals are summed in the order
    `inner_infinite` sums each state, and carry its bits.
    """
    sizes = [c.coeff.size for c in head._classes]
    parts_head, parts = [], []
    for m, n, sa, sb, i, j, corr in _class_pair_sums(a, a):
        parts += [[complex(sa[-1]) * complex(sb[-1])], corr]
        if m < len(sizes) and n < len(sizes):
            hm, hn = sizes[m], sizes[n]
            parts_head += [[complex(sa[hm - 1]) * complex(sb[hn - 1])],
                           corr[(i < hm) & (j < hn)]]
    return _real_square(_total(parts_head)), _real_square(_total(parts))


def norm(a: ProductState) -> float:
    """``sqrt(<a|a>)``, checking that the quadratic form behaves."""
    return math.sqrt(_self_product(a))
