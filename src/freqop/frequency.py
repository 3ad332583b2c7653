"""Finite-ensemble frequency operators and their convergence diagnostics.

The frequency operator for outcome ``k`` on the first N slots replaces, one
slot at a time, the slot vector by its component along the k-th measurement
vector, and averages the N results. On an infinitely repeated preparation
``|s> |s> |s> ...`` the deviation from ``p = |<k|s>|^2`` times the state
shrinks as ``sqrt((p - p^2)/N)``, which is what `deviation_norm` measures
and what certifies the infinite-ensemble limit without ever forming it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import StateVector, UnitaryMatrix, _index, _measurement_vector, _size
from .product import (
    TAIL_EPS,
    ProductState,
    _class_pair_sums,
    _frequency_image,
    _one_edit_terms,
    _self_product,
    _self_products,
    add,
    ensemble,
    inner_infinite,
    scale,
)

GRAM_LIMIT = 512     # default crossover from explicit Gram to counted route
MAX_SLOTS = 2**53    # largest ensemble size that converts to a float exactly


@dataclass(frozen=True)
class FrequencySpec:
    """Which outcome is counted, over how many slots, in which basis.

    ``basis=None`` means the standard basis; otherwise column ``k`` of the
    unitary is the counted measurement vector.
    """

    k: int
    n_slots: int
    basis: UnitaryMatrix | None = None

    def __post_init__(self):
        # an int, since a numpy integer would overflow the counted route's n * n
        object.__setattr__(self, "n_slots", _size(self.n_slots, "n_slots", 1, MAX_SLOTS))
        if self.basis is not None:
            _index(self.k, self.basis.dim, "outcome")
        elif self.k < 0:
            raise ValueError("outcome index must be non-negative")


@dataclass(frozen=True)
class FrequencyReport:
    """One verification run of the deviation identity.

    ``deviation_exact`` comes from scalar products of actual product states,
    ``deviation_closed`` from the closed form ``sqrt((p - p^2)/N)``.
    ``applied_norm`` is the norm of the frequency operator applied to the
    ensemble state.
    """

    n_slots: int
    k: int
    p: float
    deviation_exact: float
    deviation_closed: float
    applied_norm: float
    method: str


def apply_frequency(spec: FrequencySpec, psi: ProductState) -> ProductState:
    """Apply the N-slot frequency operator for outcome ``k`` to ``psi``.

    Each input term spawns one output term per slot position: the slot is
    projected onto the measurement vector (the overlap joins the
    coefficient, divided by N) and the measurement vector takes its place.
    Terms whose overlap is exactly zero are omitted, so a preparation
    orthogonal to the counted outcome maps to the empty (zero) state.

    Every term's edited slots must lie within the first N slots; the
    operator leaves all later slots untouched.
    """
    kvec = _measurement_vector(spec.k, psi.dim, spec.basis)
    return _frequency_image(psi, kvec, spec.n_slots)


def _slot_deviation(kvec: np.ndarray, s: StateVector) -> tuple[float, float]:
    """``||v||^2`` and ``|<s|v>|^2`` of the one-slot deviation ``v = a k - p s``.

    ``(f_N - p)|s>^infinity`` is the mean over the N slots of ``v`` placed
    there. Both numbers come from the amplitude vectors, not from ``p - p^2``,
    so nothing of size ``p^2`` cancels, however large N is.

    ``<s|v> = a <s|k> - p <s|s> = |a|^2 - p`` is 0 in exact arithmetic: it
    is the orthogonality of the one-slot deviation to the state that the 1/N
    law rests on. So ``|<s|v>|^2`` is rounding only, at most 64 eps^2 for
    d <= 8 (a test pins it), and no check of the deviation can see the
    ``(n - 1)`` coefficient that the counted route gives it.
    """
    a = complex(np.vdot(kvec, s.amps))
    v = a * kvec - (a * a.conjugate()).real * s.amps
    return float(np.vdot(v, v).real), abs(complex(np.vdot(s.amps, v))) ** 2


def deviation_norm(
    spec: FrequencySpec, s: StateVector, *, method: str = "auto"
) -> FrequencyReport:
    """Measure ``|| (f - p) |s>^infinity ||`` for the ensemble of ``s``.

    Methods: ``"gram"`` builds the applied product state ``f_N|s>^infinity``
    and ``(f_N - p)|s>^infinity`` from actual slot vectors and takes both
    squared norms from one pass over the class pair of the latter, whose
    terms begin with the applied state's: the applied norm reads the same
    term-order cumulative sums at its last term, so no bit depends on the
    BLAS threads; ``"counted"`` evaluates the same Gram sum
    through pair multiplicities, exact for the one-term ensemble and O(1)
    in N; ``"auto"`` picks gram up to ``GRAM_LIMIT`` slots. The dense
    oracle is a separate route: ``oracle.dense_deviation`` (small N only).
    """
    n = spec.n_slots
    kvec = _measurement_vector(spec.k, s.dim, spec.basis)
    a = complex(np.vdot(kvec, s.amps))
    p = (a * a.conjugate()).real
    closed = math.sqrt(max(p - p * p, 0.0) / n)
    if method == "auto":
        method = "gram" if n <= GRAM_LIMIT else "counted"
    if method == "gram":
        psi = ensemble(s)
        phi = apply_frequency(spec, psi)
        delta = add(phi, scale(psi, -p))
        applied_sq, dev_sq = _self_products(phi, delta)
    elif method == "counted":
        # Counted Gram sums over the n one-slot terms: the n diagonal pairs give
        # 1 (projected) and |v|^2 (deviation), the n(n-1) others p and |<s|v>|^2.
        w2 = p / (n * n)
        applied_sq = n * w2 + n * (n - 1) * w2 * p
        v_sq, sv_sq = _slot_deviation(kvec, s)
        dev_sq = (v_sq + (n - 1) * sv_sq) / n
    else:
        raise ValueError(f"unknown method {method!r}")
    return FrequencyReport(
        n_slots=n,
        k=spec.k,
        p=p,
        deviation_exact=math.sqrt(max(dev_sq, 0.0)),
        deviation_closed=closed,
        applied_norm=math.sqrt(max(applied_sq, 0.0)),
        method=method,
    )


def cauchy_gap(
    k: int,
    m: int,
    n: int,
    s: StateVector,
    basis: UnitaryMatrix | None = None,
    *,
    method: str = "auto",
) -> float:
    """Squared gap ``|| (f_N - f_M) |s>^infinity ||^2`` for ``m <= n``.

    Bounded by ``(1/m - 1/n)(p - p^2) <= 1/m - 1/n``, which is what makes
    the sequence of finite-ensemble images Cauchy.
    """
    m = _size(m, "m", lo=1)
    n = _size(n, "n", lo=m)
    kvec = _measurement_vector(k, s.dim, basis)
    if method == "auto":
        method = "gram" if n <= GRAM_LIMIT else "counted"
    if method == "gram":
        psi = ensemble(s)
        phi_n = apply_frequency(FrequencySpec(k, n, basis), psi)
        phi_m = apply_frequency(FrequencySpec(k, m, basis), psi)
        delta = add(phi_n, scale(phi_m, -1.0))
        return _self_product(delta)
    if method == "counted":
        # v at slot alpha with weight 1/N - 1/M (alpha <= M) or 1/N (up to N):
        # the weights sum to 0 and their squares to (N - M)/(N M).
        v_sq, sv_sq = _slot_deviation(kvec, s)
        return max((n - m) / (n * m) * (v_sq - sv_sq), 0.0)
    raise ValueError(f"unknown method {method!r}")


def cauchy_gap_grid(
    k: int,
    s: StateVector,
    n_max: int,
    basis: UnitaryMatrix | None = None,
) -> np.ndarray:
    """All squared gaps for ``1 <= m <= n <= n_max`` from one class pair.

    Entry ``[m-1, n-1]`` holds the squared gap; entries below the diagonal
    are NaN. Term alpha of ``n_max`` has the measurement vector at slot
    alpha alone, so it shares a slot with itself only. The class-pair kernel
    of every gram scalar product joins these terms with themselves once and
    gives the term-order prefix sums of one rank-one factor (the other is
    its conjugate) and of the corrections; each (m, n) pair recombines them
    with the coefficients ``a/n - a/m`` up to slot m and ``a/n`` up to n.
    """
    n_max = _size(n_max, "n_max", lo=1)
    kvec = _measurement_vector(k, s.dim, basis)
    a = complex(np.vdot(kvec, s.amps))
    block = _one_edit_terms(s, kvec, n_max)
    ((_, _, _, ys, _, _, corr),) = _class_pair_sums(block, block)
    es = np.cumsum(corr)
    m = np.arange(1, n_max + 1)[:, None]
    n = m.T
    sy = a * (ys[n - 1] / n - ys[m - 1] / m)
    se = abs(a) ** 2 * ((1 / n - 1 / m) ** 2 * es[m - 1] + (es[n - 1] - es[m - 1]) / n**2)
    gap_sq = np.maximum((sy.conj() * sy + se).real, 0.0)
    return np.where(m <= n, gap_sq, np.nan)


def cross_orthogonality(
    k: int,
    n: int,
    m: int,
    s: StateVector,
    s_prime: StateVector,
    basis: UnitaryMatrix | None = None,
) -> complex:
    """Scalar product of frequency images of two distinct-ray ensembles.

    Returns ``< f_N (s'-ensemble), f_M (s-ensemble) >`` for ``n >= m``.
    Every term pair keeps an infinite run of ``<s'|s>`` factors, so under
    the tail rule the result is exactly zero whenever the rays are
    separated; inputs closer than the rule can resolve are rejected.
    """
    m = _size(m, "m", lo=1)
    n = _size(n, "n", lo=m)
    if s.dim != s_prime.dim:
        raise ValueError(f"dimension mismatch: {s.dim} vs {s_prime.dim}")
    overlap = abs(complex(np.vdot(s.amps, s_prime.amps)))
    if overlap > 1.0 - 10.0 * TAIL_EPS:
        raise ValueError(
            f"|<s|s'>| = {overlap:.12g} is too close to 1 for the tail rule "
            f"(TAIL_EPS={TAIL_EPS:g})"
        )
    phi_a = apply_frequency(FrequencySpec(k, n, basis), ensemble(s_prime))
    phi_b = apply_frequency(FrequencySpec(k, m, basis), ensemble(s))
    return inner_infinite(phi_a, phi_b)
