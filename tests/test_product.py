import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqop.frequency import FrequencySpec, apply_frequency
from freqop.hilbert import StateVector, random_state, random_unitary
from freqop.oracle import dense_embed, dense_inner
from freqop.product import (
    ProductState,
    ProductTerm,
    _class_pair_sums,
    _TailClass,
    _real_square,
    _self_product,
    _self_products,
    add,
    ensemble,
    inner_infinite,
    norm,
    scale,
)

E0 = np.array([1.0, 0.0], dtype=complex)
E1 = np.array([0.0, 1.0], dtype=complex)
DIAG = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)


def term(coeff, prefix, tail):
    return ProductTerm(coeff, prefix, tail)


def one_term_state(coeff, prefix, tail):
    return ProductState([term(coeff, prefix, tail)])


def test_term_validation():
    with pytest.raises(ValueError, match="tail norm"):
        term(1.0, (), [1.0, 1.0])
    with pytest.raises(ValueError, match="dim"):
        term(1.0, ([1.0, 0.0, 0.0],), E0)
    with pytest.raises(ValueError, match="finite"):
        term(complex("inf"), (), E0)
    with pytest.raises(ValueError, match="finite"):
        scale(ensemble(StateVector(E0)), math.inf)
    # prefix slots, unlike tails, may have any norm
    t = term(1.0, ([5.0, 0.0], [0.0, 0.0]), E0)
    assert t.prefix_len == 2


def test_accepted_tail_matches_itself():
    # accepted at NORM_TOL and rescaled as a state is, so the tail rule at
    # TAIL_EPS keeps the term's pair with itself
    raw = [0.7071067812, 0.7071067812]
    t = term(1.0, (), raw)
    assert t.tail.tobytes() == StateVector(raw).amps.tobytes()
    assert abs(inner_infinite(ProductState([t]), ProductState([t])) - 1.0) <= 1e-15


def test_slot_indexing():
    t = term(1.0, (E1, DIAG), E0)
    npt.assert_array_equal(t.slot(1), E1)
    npt.assert_array_equal(t.slot(2), DIAG)
    npt.assert_array_equal(t.slot(3), E0)
    npt.assert_array_equal(t.slot(99), E0)
    with pytest.raises(ValueError, match="1-based"):
        t.slot(0)


def test_empty_state_needs_dim():
    with pytest.raises(ValueError, match="dim"):
        ProductState([])
    with pytest.raises(ValueError, match="positive"):
        ProductState([], dim=0)
    with pytest.raises(ValueError, match="one slot dimension"):
        ProductState([term(1.0, (), E0), term(1.0, (), [1.0, 0.0, 0.0])])
    with pytest.raises(ValueError, match="conflicts"):
        ProductState([term(1.0, (), E0)], dim=3)
    z = ProductState([], dim=2)
    assert z.dim == 2
    assert norm(z) == 0.0


def test_ensemble_has_unit_norm():
    psi = ensemble(StateVector([0.6, 0.8]))
    npt.assert_allclose(inner_infinite(psi, psi), 1.0, atol=1e-15)


def test_inner_two_slot_prefix_fixed_value():
    # by hand: conj(2) * (1+1j) * <u1|v1> * <u2|v2>, tails both e0 so the
    # tail factor is 1.  <u1|v1> = 0.6j, <u2|v2> = 0.8, so the product is
    # 2 * (1+1j) * 0.48j = -0.96 + 0.96j.
    a = one_term_state(2.0, ([1.0, 0.0], [0.6, 0.8]), E0)
    b = one_term_state(1.0 + 1.0j, ([0.6j, 0.8], [0.0, 1.0]), E0)
    npt.assert_allclose(inner_infinite(a, b), -0.96 + 0.96j, atol=1e-14)


def test_tail_mismatch_kills_pair_exactly():
    a = one_term_state(1.0, (), E0)
    b = one_term_state(1.0, (), np.array([0.6, 0.8], dtype=complex))
    assert inner_infinite(a, b) == 0j


def test_tail_phase_kills_pair_exactly():
    # tails on the same ray but different phase never settle: factor 0
    rotated = np.exp(0.1j) * DIAG
    a = one_term_state(1.0, (), DIAG)
    b = one_term_state(1.0, (), rotated)
    assert inner_infinite(a, b) == 0j
    assert inner_infinite(b, b) == pytest.approx(1.0)


def test_tail_rule_epsilon_widens_acceptance():
    near = np.array([math.sqrt(1.0 - 1e-4), 1e-2], dtype=complex)
    a = one_term_state(1.0, (E1,), E0)
    b = one_term_state(1.0, (E1,), near)
    assert inner_infinite(a, b) == 0j


def test_tail_eps_boundary():
    # |<tail_a|tail_b> - 1| = 1 - cos(theta): about 5e-13 at theta = 1e-6,
    # inside TAIL_EPS = 1e-12, and about 2e-12 at theta = 2e-6, outside it
    a = one_term_state(1.0, (), E0)
    inside = one_term_state(1.0, (), [math.cos(1e-6), math.sin(1e-6)])
    outside = one_term_state(1.0, (), [math.cos(2e-6), math.sin(2e-6)])
    assert inner_infinite(a, inside) == 1.0
    assert inner_infinite(a, outside) == 0j


def test_inner_dimension_mismatch():
    a = ensemble(StateVector([1.0, 0.0]))
    b = ensemble(StateVector([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="mismatch"):
        inner_infinite(a, b)
    with pytest.raises(ValueError, match="mismatch"):
        add(a, b)


def test_pairwise_gram_shape_and_zero_terms():
    a = ensemble(StateVector([1.0, 0.0]))
    z = ProductState([], dim=2)
    assert inner_infinite(z, a) == 0j


def test_zero_weight_terms_do_not_change_the_product():
    # slots no term of a pair edits count as 1, however far another term of
    # the state reaches: <s|s> is 0.9999999999999999 here, and a kernel that
    # multiplies it in up to the longest term moves the last bits
    s = StateVector([0.2, 0.4, 0.6], normalize=True)
    phi = apply_frequency(FrequencySpec(2, 17), ensemble(s))
    far = apply_frequency(FrequencySpec(2, 300), ensemble(s))
    assert inner_infinite(add(phi, scale(far, 0.0)), phi) == inner_infinite(phi, phi)


def test_add_and_scale_are_linear():
    a = one_term_state(1.0, (E0,), E0)
    b = one_term_state(0.5j, (E1,), E0)
    probe = one_term_state(1.0, (DIAG,), E0)
    lhs = inner_infinite(probe, add(a, b))
    rhs = inner_infinite(probe, a) + inner_infinite(probe, b)
    npt.assert_allclose(lhs, rhs, atol=1e-14)
    npt.assert_allclose(
        inner_infinite(probe, scale(a, 2.0 - 1.0j)),
        (2.0 - 1.0j) * inner_infinite(probe, a),
        atol=1e-14,
    )


def test_norm_is_real_nonnegative():
    a = add(one_term_state(1.0, (E0,), E0), one_term_state(-1.0, (E0,), E0))
    assert norm(a) == 0.0
    # within HERMITIAN_TOL a negative self product is roundoff; beyond it, a fault
    assert _real_square(complex(-1e-12, 1e-12)) == 0.0
    with pytest.raises(ArithmeticError, match="imaginary"):
        _real_square(complex(1.0, 1e-9))
    with pytest.raises(ArithmeticError, match="negative"):
        _real_square(complex(-1e-9, 0.0))


# ---------------------------------------------------------------------------
# property tests: small random states over a fixed tail pool

_component = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
_tails = (E0, DIAG)


@st.composite
def product_states(draw):
    n_terms = draw(st.integers(0, 3))
    terms = []
    for _ in range(n_terms):
        coeff = complex(draw(_component), draw(_component))
        plen = draw(st.integers(0, 3))
        prefix = [
            np.array([complex(draw(_component), draw(_component)) for _ in range(2)])
            for _ in range(plen)
        ]
        tail = _tails[draw(st.integers(0, 1))]
        terms.append(ProductTerm(coeff, prefix, tail))
    return ProductState(terms, dim=2)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(product_states(), product_states())
def test_property_conjugate_symmetry(a, b):
    npt.assert_allclose(
        inner_infinite(a, b), np.conj(inner_infinite(b, a)), atol=1e-10
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(product_states())
def test_property_self_product_nonnegative(a):
    x = inner_infinite(a, a)
    assert abs(x.imag) <= 1e-10
    assert x.real >= -1e-10
    assert norm(a) >= 0.0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(product_states(), product_states(), product_states())
def test_property_linearity_in_second_argument(a, b, c):
    lhs = inner_infinite(a, add(b, c))
    rhs = inner_infinite(a, b) + inner_infinite(a, c)
    npt.assert_allclose(lhs, rhs, atol=1e-8)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(product_states(), product_states())
def test_property_fused_self_products_keep_the_bits(head, rest):
    # <head|head> read off the pass over add(head, rest) is the same float as
    # its own scalar product, whatever rest adds to head's classes
    total = add(head, rest)
    assert _self_products(head, total) == (_self_product(head), _self_product(total))


def test_a_class_joined_with_itself_has_the_bits_of_a_join_with_its_copy(rng):
    # a self-join takes x = conj(y) and sa = conj(sb) instead of computing
    # them; against a distinct copy of the classes both are computed. sb and
    # the shared pairs keep every bit; sa and the corrections may differ in
    # the sign of a zero part (conj(+0) is -0: sa does for (0.6, 0.8i) in the
    # standard basis), so they are compared with +0 added; the totals, which
    # start at +0, keep every bit
    for s, basis in ((random_state(3, rng), random_unitary(3, rng)), (StateVector([0.6, 0.8j]), None)):
        psi = ensemble(s)
        phi = apply_frequency(FrequencySpec(1, 5, basis), apply_frequency(FrequencySpec(0, 3), psi))
        a = add(phi, scale(psi, 0.3 - 0.1j))
        assert max(c.counts.max() for c in a._classes) > 1
        b = ProductState._of(
            [_TailClass(c.tail.copy(), c.coeff.copy(), c.counts.copy(), c.slots.copy(), c.vecs.copy())
             for c in a._classes], a.dim)
        own, copied = list(_class_pair_sums(a, a)), list(_class_pair_sums(a, b))
        assert len(own) == len(copied) > 0
        for (m, n, sa, sb, i, j, corr), theirs in zip(own, copied):
            assert (m, n) == theirs[:2]
            for u, v in zip((sb, i, j), (theirs[3], theirs[4], theirs[5])):
                assert u.tobytes() == v.tobytes()
            for u, v in zip((sa, corr), (theirs[2], theirs[6])):
                assert (u + 0).tobytes() == (v + 0).tobytes()
        assert inner_infinite(a, a) == inner_infinite(a, b)
        assert _self_products(phi, a) == (_self_product(phi), _self_product(a))


def test_dead_tails_give_exact_zero_despite_huge_prefix():
    # The tail rule kills the pair, so the prefix overlaps (1e400 together,
    # beyond the float range) must never be multiplied in.
    big = np.array([1e200, 0.0], dtype=complex)
    a = one_term_state(1.0, (big, big), E0)
    b = one_term_state(1.0, (big, big), np.array([0.6, 0.8], dtype=complex))
    assert inner_infinite(a, b) == 0j


# ---------------------------------------------------------------------------
# edge cases of the array kernel, against the dense route

def _dense_product(a, b, n_slots):
    return dense_inner(dense_embed(a, n_slots), dense_embed(b, n_slots))


def test_pair_sharing_two_edited_slots_is_counted_once():
    # the first terms share edited slots 1 to 3, the first of a and the
    # second of b slots 1 and 2: the join meets such a pair once per shared
    # slot, and it must enter the sum once, with its exact product
    u = [np.array([0.3 + 0.1j, -0.7]), E1, np.array([0.2, 0.9j])]
    v = [np.array([1.1, 0.4j]), np.array([-0.5, 0.5]), np.array([0.6j, 0.1])]
    a = ProductState([ProductTerm(0.7 - 0.2j, u, E0), ProductTerm(0.5, (u[0],), E0)])
    b = ProductState([ProductTerm(1.3j, v, E0), ProductTerm(-0.4, (E1, E1), E0)])
    expected = _dense_product(a, b, 3)
    npt.assert_allclose(inner_infinite(a, b), expected, rtol=1e-14, atol=1e-15)
    npt.assert_allclose(inner_infinite(b, a), np.conj(expected), rtol=1e-14, atol=1e-15)


def test_class_mixing_unedited_and_edited_terms():
    # the unedited term is an empty run of edits between two non-empty ones
    w = np.array([0.8, -0.6j])
    a = ProductState([
        ProductTerm(0.5, (w, DIAG), DIAG),
        ProductTerm(-1.5j, (), DIAG),
        ProductTerm(2.0, (E1,), DIAG),
    ])
    b = ProductState([ProductTerm(1.0, (), DIAG), ProductTerm(0.25, (E0, w), DIAG)])
    for x, y in ((a, b), (b, a), (a, a)):
        npt.assert_allclose(inner_infinite(x, y), _dense_product(x, y, 2),
                            rtol=1e-14, atol=1e-15)


def test_scale_by_zero_keeps_the_terms_and_gives_the_zero_vector():
    phi = apply_frequency(FrequencySpec(1, 5), ensemble(StateVector([0.6, 0.8])))
    z = scale(phi, 0)
    assert len(z.terms) == len(phi.terms)
    assert all(t.coeff == 0 for t in z.terms)
    assert norm(z) == 0.0
    assert inner_infinite(z, phi) == 0
    assert inner_infinite(add(phi, z), phi) == inner_infinite(phi, phi)


def test_apply_frequency_drops_zero_overlap_terms():
    # k = 1 is orthogonal to the tail E0, so only the slots edited away from
    # E0 survive: slot 2 of the first term and slot 1 of the second
    psi = ProductState([ProductTerm(2.0, (E0, DIAG), E0), ProductTerm(1.0j, (E1,), E0)])
    phi = apply_frequency(FrequencySpec(1, 3), psi)
    assert [(t.coeff, t.prefix_len) for t in phi.terms] == [
        (pytest.approx(2.0 * DIAG[1] / 3), 2), (pytest.approx(1.0j / 3), 1)]
    npt.assert_array_equal(phi.terms[0].slot(2), E1)
    npt.assert_array_equal(phi.terms[1].slot(1), E1)
    with pytest.raises(ValueError, match="prefix length 2 exceeds"):
        apply_frequency(FrequencySpec(1, 1), psi)


def test_tail_rule_kills_one_class_pair_exactly():
    # a second, separated tail class adds its edits to neither side's sum:
    # the product over the live pair is the same bits as without it
    live = ProductState([ProductTerm(0.3, (E1, DIAG), E0)])
    other = ProductState([ProductTerm(5.0, (E1, E0, DIAG), DIAG)])
    assert inner_infinite(other, live) == 0j
    assert inner_infinite(live, other) == 0j
    assert inner_infinite(add(live, other), live) == inner_infinite(live, live)
