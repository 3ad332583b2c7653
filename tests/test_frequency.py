import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from freqop import product
from freqop.frequency import (
    GRAM_LIMIT,
    FrequencyReport,
    FrequencySpec,
    _slot_deviation,
    apply_frequency,
    cauchy_gap,
    cauchy_gap_grid,
    cross_orthogonality,
    deviation_norm,
)
from freqop.hilbert import (
    NORM_TOL,
    StateVector,
    UnitaryMatrix,
    _measurement_vector,
    random_state,
    random_unitary,
)
from freqop.oracle import dense_deviation, dense_embed
from freqop.product import (
    ProductState,
    ProductTerm,
    _self_product,
    _self_products,
    add,
    ensemble,
    inner_infinite,
    norm,
    scale,
)

S37 = StateVector([math.sqrt(0.3), math.sqrt(0.7)])


def test_spec_validation():
    with pytest.raises(ValueError):
        FrequencySpec(0, 0)
    with pytest.raises(ValueError):
        FrequencySpec(-1, 4)
    with pytest.raises(ValueError):
        FrequencySpec(2, 4, basis=random_unitary(2, np.random.default_rng(0)))


def test_apply_frequency_term_structure():
    # one output term per slot, coefficient <k|s>/N
    psi = ensemble(S37)
    phi = apply_frequency(FrequencySpec(0, 3), psi)
    assert len(phi.terms) == 3
    for t in phi.terms:
        npt.assert_allclose(t.coeff, math.sqrt(0.3) / 3, atol=1e-15)


def test_apply_frequency_orthogonal_preparation_gives_zero_state():
    phi = apply_frequency(FrequencySpec(0, 4), ensemble(StateVector.basis(2, 1)))
    assert len(phi.terms) == 0
    assert norm(phi) == 0.0


def test_apply_frequency_rejects_long_prefix():
    t = ProductTerm(1.0, ([1.0, 0.0],) * 5, np.array([1.0, 0.0], dtype=complex))
    with pytest.raises(ValueError, match="prefix length"):
        apply_frequency(FrequencySpec(0, 4), ProductState([t]))


def test_applied_norm_fixed_value():
    # ||f psi||^2 = (p + (N-1) p^2)/N; p = 0.3, N = 2 gives (0.3 + 0.09)/2
    rep = deviation_norm(FrequencySpec(0, 2), S37)
    npt.assert_allclose(rep.applied_norm**2, 0.195, atol=1e-14)


def test_deviation_fixed_value():
    # sqrt((p - p^2)/N) at p = 0.3, N = 10: sqrt(0.021)
    rep = deviation_norm(FrequencySpec(0, 10), S37)
    expected = math.sqrt(0.021)
    npt.assert_allclose(rep.deviation_exact, expected, atol=1e-14)
    npt.assert_allclose(rep.deviation_closed, expected, atol=1e-15)
    npt.assert_allclose(dense_deviation(S37, 0, 10), expected, atol=1e-13)


def test_deviation_identity_random_states(rng):
    for d in range(2, 6):
        s = random_state(d, rng)
        for n in (1, 2, 5, 8):
            k = int(rng.integers(d))
            rep = deviation_norm(FrequencySpec(k, n), s)
            assert abs(rep.deviation_exact**2 - rep.deviation_closed**2) <= 1e-12
            assert abs(rep.deviation_exact**2 - dense_deviation(s, k, n) ** 2) <= 1e-12


def test_counted_route_matches_closed_form(rng):
    s = random_state(3, rng)
    for n in (100, 10**4, 10**6):
        rep = deviation_norm(FrequencySpec(1, n), s, method="counted")
        assert rep.method == "counted"
        assert abs(rep.deviation_exact**2 - rep.deviation_closed**2) <= 1e-15


def test_counted_route_keeps_relative_accuracy_at_huge_n(rng):
    # dev^2 is about p/N; a sum of terms of size p^2 loses it at large N
    # (at N = 2**53 it came out as exactly 0)
    for _ in range(24):
        d = int(rng.integers(2, 6))
        s = random_state(d, rng)
        k = int(rng.integers(d))
        for n in (10**12, 2**53):
            rep = deviation_norm(FrequencySpec(k, n), s, method="counted")
            closed_sq = (rep.p - rep.p * rep.p) / n
            assert abs(rep.deviation_exact**2 - closed_sq) <= 1e-12 * closed_sq


def test_slot_deviation_is_orthogonal_to_the_state_within_rounding(rng):
    # <s|v> = a <s|k> - p <s|s> = |a|^2 - p is 0 in exact arithmetic, so
    # the counted route's (n - 1) |<s|v>|^2 term is rounding only: pin it
    # within 64 eps^2, (d eps)^2 at the largest d, for every kind of basis
    eps = np.finfo(float).eps
    worst = 0.0
    for c in range(3000):
        d = int(rng.integers(2, 9))
        s = random_state(d, rng)
        k = int(rng.integers(d))
        if c % 3 == 0:
            basis = None
        elif c % 3 == 1:
            basis = UnitaryMatrix(np.eye(d)[:, rng.permutation(d)])
        else:
            basis = random_unitary(d, rng)
        _, sv_sq = _slot_deviation(_measurement_vector(k, d, basis), s)
        worst = max(worst, sv_sq)
    assert worst <= 64 * eps**2


def test_gram_and_counted_routes_agree_at_crossover(rng):
    s = random_state(4, rng)
    g = deviation_norm(FrequencySpec(2, 512), s, method="gram")
    c = deviation_norm(FrequencySpec(2, 512), s, method="counted")
    assert abs(g.deviation_exact**2 - c.deviation_exact**2) <= 1e-12
    assert abs(g.applied_norm**2 - c.applied_norm**2) <= 1e-12


def _routes_agree(s, k, n):
    g = deviation_norm(FrequencySpec(k, n), s, method="gram")
    c = deviation_norm(FrequencySpec(k, n), s, method="counted")
    assert abs(g.deviation_exact**2 - c.deviation_exact**2) <= 1e-12
    assert abs(g.applied_norm**2 - c.applied_norm**2) <= 1e-12
    return g, c


def test_ten_digit_root_half_takes_the_same_value_on_every_route():
    # its squared norm is 1 + 2.5e-11, which the tail rule would not match
    # with itself at TAIL_EPS: every gram product read 0 before the rescale
    s = StateVector([0.7071067812, 0.7071067812])
    for n in (64, 1000):
        g, _ = _routes_agree(s, 0, n)
        closed_sq = (g.p - g.p * g.p) / n
        assert abs(g.deviation_exact**2 - closed_sq) <= 1e-12 * closed_sq


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(2, 5).flatmap(lambda d: st.lists(
        st.tuples(st.floats(-1, 1), st.floats(-1, 1)), min_size=d, max_size=d)),
    st.floats(-0.99 * NORM_TOL, 0.99 * NORM_TOL),
    st.integers(0, 4),
    st.sampled_from([1, 64, GRAM_LIMIT, GRAM_LIMIT + 1, 4 * GRAM_LIMIT]),
)
def test_property_routes_agree_across_the_norm_window(parts, off, k, n):
    # any norm StateVector accepts, on both sides of GRAM_LIMIT
    a = np.array([complex(x, y) for x, y in parts])
    size = np.linalg.norm(a)
    assume(size > 0.1)
    s = StateVector(a / size * (1.0 + off))
    _routes_agree(s, k % s.dim, n)


def test_gram_route_at_large_n(rng):
    # one term per slot and no term-by-term matrix, so N = 4096 is cheap
    s = random_state(3, rng)
    rep = deviation_norm(FrequencySpec(1, 4096), s, method="gram")
    closed_sq = (rep.p - rep.p * rep.p) / 4096
    assert abs(rep.deviation_exact**2 - closed_sq) <= 1e-12 * closed_sq


# The gram route's relative dev^2 error grows linearly in N: the rank-one
# sums are of size p^2 and the shared-pair corrections cancel them down to
# p/N. Over these four states it measures at most 6.9e-13 at N = 10^5, and
# 2.6e-12 over 24 further random states; the bound is N * 2^-53, about 1e-11.
GRAM_REL_DEV_SQ_AT_1E5 = 1e-11


def test_gram_route_relative_error_at_n_1e5():
    n = 10**5
    rng = np.random.Generator(np.random.Philox(key=2024))
    for d in (2, 3, 4, 5):
        s = random_state(d, rng)
        k = int(rng.integers(d))
        rep = deviation_norm(FrequencySpec(k, n), s, method="gram")
        closed_sq = (rep.p - rep.p * rep.p) / n
        assert abs(rep.deviation_exact**2 - closed_sq) <= GRAM_REL_DEV_SQ_AT_1E5 * closed_sq


def _two_pass_report(spec, s):
    # the gram report from two separate scalar products, <phi|phi> and
    # <delta|delta>, with p and the closed form as every route computes them;
    # the fused pair of squares, unrounded by a square root, comes with it
    p = deviation_norm(spec, s, method="counted").p
    psi = ensemble(s)
    phi = apply_frequency(spec, psi)
    delta = add(phi, scale(psi, -p))
    applied_sq, dev_sq = _self_product(phi), _self_product(delta)
    assert _self_products(phi, delta) == (applied_sq, dev_sq)
    return FrequencyReport(
        n_slots=spec.n_slots,
        k=spec.k,
        p=p,
        deviation_exact=math.sqrt(dev_sq),
        deviation_closed=math.sqrt(max(p - p * p, 0.0) / spec.n_slots),
        applied_norm=math.sqrt(applied_sq),
        method="gram",
    )


def test_gram_route_equals_two_separate_scalar_products(rng):
    # both norms come from one pass over the class pair of delta; the applied
    # norm must keep the bits of its own scalar product
    for c, (d, n) in enumerate((d, n) for d in range(2, 7) for n in (1, 2, 7, 64, 512)):
        basis = random_unitary(d, rng) if c % 3 == 0 else None
        spec = FrequencySpec(int(rng.integers(d)), n, basis)
        s = random_state(d, rng)
        assert deviation_norm(spec, s, method="gram") == _two_pass_report(spec, s)
    for d, n in ((2, 1), (3, 7), (5, 64)):
        # p = 0: the applied state has no terms; p = 1: the deviation cancels
        for s in (StateVector.basis(d, 1), StateVector.basis(d, 0)):
            spec = FrequencySpec(0, n)
            rep = deviation_norm(spec, s, method="gram")
            assert rep == _two_pass_report(spec, s)
            assert rep.p in (0.0, 1.0)
            if rep.p == 0.0:
                assert rep.applied_norm == 0.0


def test_gram_route_joins_its_class_pair_once(rng, monkeypatch):
    # one join per route, through product's class-pair kernel: a second pass
    # over the class pair shows here as a second call, a join made outside
    # the kernel as none
    calls = []
    join = product._class_factors

    def counted_join(ca, cb):
        calls.append((ca, cb))
        return join(ca, cb)

    monkeypatch.setattr(product, "_class_factors", counted_join)
    for route in (
        lambda: deviation_norm(FrequencySpec(1, 64), random_state(3, rng), method="gram"),
        lambda: deviation_norm(FrequencySpec(0, 8), StateVector.basis(2, 1), method="gram"),
        lambda: cauchy_gap_grid(1, random_state(3, rng), 16),
    ):
        calls.clear()
        route()
        assert len(calls) == 1


def test_auto_method_switch(rng):
    s = random_state(2, rng)
    assert deviation_norm(FrequencySpec(0, 512), s).method == "gram"
    assert deviation_norm(FrequencySpec(0, 513), s).method == "counted"


def test_unknown_method_rejected():
    with pytest.raises(ValueError, match="method"):
        deviation_norm(FrequencySpec(0, 2), S37, method="magic")


def test_applied_norm_identity_and_bound(rng):
    for d in (2, 4):
        s = random_state(d, rng)
        k = int(rng.integers(d))
        p = abs(s.amps[k]) ** 2
        for n, method in ((1, "gram"), (7, "gram"), (10**6, "counted")):
            rep = deviation_norm(FrequencySpec(k, n), s, method=method)
            expected = (p + (n - 1) * p * p) / n
            assert abs(rep.applied_norm**2 - expected) <= 1e-12
            assert rep.applied_norm**2 <= 1.0 + 1e-12


def test_deviation_halves_when_ensemble_quadruples(rng):
    s = random_state(3, rng)
    r16 = deviation_norm(FrequencySpec(0, 16), s)
    r64 = deviation_norm(FrequencySpec(0, 64), s)
    assert abs(r16.deviation_exact / r64.deviation_exact - 2.0) <= 1e-8
    r1k = deviation_norm(FrequencySpec(0, 1000), s, method="counted")
    r4k = deviation_norm(FrequencySpec(0, 4000), s, method="counted")
    assert abs(r1k.deviation_exact / r4k.deviation_exact - 2.0) <= 1e-8


def test_rotated_basis_deviation(rng):
    u = random_unitary(3, rng)
    s = random_state(3, rng)
    rep = deviation_norm(FrequencySpec(1, 6, basis=u), s)
    p_manual = abs(np.vdot(u.entries[:, 1], s.amps)) ** 2
    npt.assert_allclose(rep.p, p_manual, atol=1e-14)
    assert abs(rep.deviation_exact**2 - rep.deviation_closed**2) <= 1e-12
    assert abs(rep.deviation_exact**2 - dense_deviation(s, 1, 6, u) ** 2) <= 1e-12


def test_cauchy_gap_fixed_value():
    # (1/M - 1/N)(p - p^2) at p = 1/2, M = 2, N = 4: (1/4)(1/4) = 1/16
    half = StateVector([math.sqrt(0.5), math.sqrt(0.5)])
    npt.assert_allclose(cauchy_gap(0, 2, 4, half), 0.0625, atol=1e-14)
    npt.assert_allclose(
        cauchy_gap(0, 2, 4, half, method="counted"), 0.0625, atol=1e-14
    )


def test_cauchy_gap_vanishes_at_equal_sizes(rng):
    s = random_state(2, rng)
    assert cauchy_gap(0, 5, 5, s) <= 1e-15
    assert cauchy_gap(0, 5, 5, s, method="counted") == 0.0


def test_cauchy_gap_formula_and_bound(rng):
    for d in (2, 5):
        s = random_state(d, rng)
        k = int(rng.integers(d))
        p = abs(s.amps[k]) ** 2
        for m, n in ((1, 1), (1, 8), (3, 7), (8, 64), (17, 40)):
            closed = (1.0 / m - 1.0 / n) * (p - p * p)
            for method in ("gram", "counted"):
                gap = cauchy_gap(k, m, n, s, method=method)
                assert abs(gap - closed) <= 1e-12
                assert gap <= (1.0 / m - 1.0 / n) + 1e-12


def test_counted_cauchy_gap_at_huge_n(rng):
    # no per-slot weight array: n = 2**50 costs what n = 2 does
    s = random_state(3, rng)
    p = abs(s.amps[1]) ** 2
    closed = (1.0 - 1.0 / 2**50) * (p - p * p)
    gap = cauchy_gap(1, 1, 2**50, s, method="counted")
    assert abs(gap - closed) <= 1e-12 * closed


def test_cauchy_gap_input_validation(rng):
    s = random_state(2, rng)
    with pytest.raises(ValueError):
        cauchy_gap(0, 4, 2, s)
    with pytest.raises(ValueError):
        cauchy_gap(0, 0, 2, s)
    with pytest.raises(ValueError, match="method"):
        cauchy_gap(0, 1, 2, s, method="magic")
    with pytest.raises(ValueError, match="n_max"):
        cauchy_gap_grid(0, s, 0)


def test_cauchy_grid_matches_single_calls(rng):
    s = random_state(3, rng)
    for basis in (None, random_unitary(3, rng)):
        grid = cauchy_gap_grid(1, s, 12, basis)
        for m, n in ((1, 1), (2, 9), (5, 12), (12, 12)):
            single = cauchy_gap(1, m, n, s, basis, method="gram")
            npt.assert_allclose(grid[m - 1, n - 1], single, atol=1e-13)
        assert np.isnan(grid[5, 2])


def test_cross_orthogonality_exact_zero(rng):
    for d in (2, 3, 5):
        s = random_state(d, rng)
        s2 = random_state(d, rng)
        if abs(np.vdot(s.amps, s2.amps)) > 1.0 - 1e-6:
            continue
        for n, m in ((1, 1), (4, 2), (8, 8)):
            assert cross_orthogonality(0, n, m, s, s2) == 0j


def test_cross_orthogonality_rotated_basis(rng):
    u = random_unitary(2, rng)
    s = StateVector.basis(2, 0)
    s2 = StateVector([0.6, 0.8])
    assert cross_orthogonality(1, 3, 2, s, s2, basis=u) == 0j


def test_cross_orthogonality_rejects_near_parallel_rays(rng):
    s = random_state(4, rng)
    with pytest.raises(ValueError, match="too close"):
        cross_orthogonality(0, 2, 1, s, s)


def test_cross_orthogonality_rejects_bad_sizes(rng):
    s = StateVector.basis(2, 0)
    s2 = StateVector.basis(2, 1)
    with pytest.raises(ValueError):
        cross_orthogonality(0, 1, 2, s, s2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        cross_orthogonality(0, 2, 1, s, StateVector.basis(3, 1))


def test_completeness_on_product_states(rng):
    # summing the frequency operators over all outcomes reproduces the state
    s = random_state(3, rng)
    psi = ensemble(s)
    n = 4
    total = apply_frequency(FrequencySpec(0, n), psi)
    for k in (1, 2):
        total = add(total, apply_frequency(FrequencySpec(k, n), psi))
    residual = add(total, scale(psi, -1.0))
    # the state itself vanishes to 1e-12; a norm taken from the scalar
    # product would be the root of roundoff, so the squared norm is bounded
    npt.assert_allclose(dense_embed(residual, n).amps, 0.0, rtol=0, atol=1e-12)
    assert abs(inner_infinite(residual, residual)) <= 1e-15
    npt.assert_allclose(inner_infinite(psi, total), 1.0, atol=1e-12)
