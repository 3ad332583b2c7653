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

from .hilbert import StateVector, UnitaryMatrix, _measurement_vector
from .oracle import dense_deviation
from .product import (
    DEFAULT_TAIL_RULE,
    ProductState,
    TailOverlapRule,
    _trusted_term,
    add,
    ensemble,
    inner_infinite,
    pairwise_term_gram,
    scale,
)

VERIFY_TOL = 1e-10   # absolute tolerance on squared-norm identities
GRAM_LIMIT = 512     # default crossover from explicit Gram to counted route


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
        if self.n_slots < 1:
            raise ValueError("n_slots must be at least 1")
        if self.k < 0:
            raise ValueError("outcome index must be non-negative")
        if self.basis is not None and self.k >= self.basis.dim:
            raise ValueError(
                f"outcome {self.k} out of range for basis dim {self.basis.dim}"
            )


@dataclass(frozen=True)
class FrequencyReport:
    """One verification run of the deviation identity.

    ``deviation_exact`` comes from scalar products of actual product states,
    ``deviation_closed`` from the closed form ``sqrt((p - p^2)/N)``, and
    ``oracle_deviation`` (when requested) from the dense brute-force path.
    ``applied_norm`` is the norm of the frequency operator applied to the
    ensemble state.
    """

    n_slots: int
    k: int
    p: float
    deviation_exact: float
    deviation_closed: float
    oracle_deviation: float | None
    applied_norm: float
    method: str


def apply_frequency(spec: FrequencySpec, psi: ProductState) -> ProductState:
    """Apply the N-slot frequency operator for outcome ``k`` to ``psi``.

    Each input term spawns one output term per slot position: the slot is
    projected onto the measurement vector (the overlap joins the
    coefficient, divided by N) and the measurement vector takes its place.
    Terms whose overlap is exactly zero are omitted, so a preparation
    orthogonal to the counted outcome maps to the empty (zero) state.

    Every term's prefix must fit inside the first N slots; the operator
    leaves all later slots untouched.
    """
    d = psi.dim
    n = spec.n_slots
    kvec = _measurement_vector(spec.k, d, spec.basis)
    out = []
    for t in psi.terms:
        if t.prefix_len > n:
            raise ValueError(
                f"term prefix length {t.prefix_len} exceeds the operator's "
                f"n_slots={n}"
            )
        slots = list(t.prefix) + [t.tail] * (n - t.prefix_len)
        for alpha in range(n):
            a = complex(np.vdot(kvec, slots[alpha]))
            if a == 0:
                continue
            prefix = tuple(slots[:alpha]) + (kvec,) + tuple(slots[alpha + 1 :])
            out.append(_trusted_term(t.coeff * a / n, prefix, t.tail, d))
    return ProductState(out, dim=d)


def _counted_products(a: complex, n: int) -> tuple[float, float]:
    # Gram sum over the n projected terms with multiplicities counted:
    # the diagonal contributes n unit self-overlaps, the n(n-1) off-diagonal
    # pairs each contribute a * conj(a). Slot vectors are unit by contract.
    p_pair = (a * a.conjugate()).real
    w2 = p_pair / (n * n)
    applied_sq = n * w2 + n * (n - 1) * w2 * p_pair
    cross = p_pair  # <ensemble | applied>, same counting with one term
    return applied_sq, cross


def deviation_norm(
    spec: FrequencySpec,
    s: StateVector,
    *,
    method: str = "auto",
    oracle: bool = False,
    rule: TailOverlapRule = DEFAULT_TAIL_RULE,
) -> FrequencyReport:
    """Measure ``|| (f - p) |s>^infinity ||`` for the ensemble of ``s``.

    Methods: ``"gram"`` builds the applied product state and takes scalar
    products term by term; ``"counted"`` evaluates the same Gram sum
    through pair multiplicities, exact for the one-term ensemble and O(1)
    in N; ``"auto"`` picks gram up to ``GRAM_LIMIT`` slots. With
    ``oracle=True`` the dense path recomputes the deviation (small N only).
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
        applied_sq = _real_inner(phi, phi, rule)
        delta = add(phi, scale(psi, -p))
        dev_sq = _real_inner(delta, delta, rule)
    elif method == "counted":
        applied_sq, cross = _counted_products(a, n)
        dev_sq = applied_sq - 2.0 * p * cross + p * p
    else:
        raise ValueError(f"unknown method {method!r}")
    oracle_dev = dense_deviation(s, spec.k, n, spec.basis) if oracle else None
    return FrequencyReport(
        n_slots=n,
        k=spec.k,
        p=p,
        deviation_exact=math.sqrt(max(dev_sq, 0.0)),
        deviation_closed=closed,
        oracle_deviation=oracle_dev,
        applied_norm=math.sqrt(max(applied_sq, 0.0)),
        method=method,
    )


def _real_inner(a: ProductState, b: ProductState, rule: TailOverlapRule) -> float:
    # For self products the imaginary part is pure roundoff; insist on that.
    x = inner_infinite(a, b, rule)
    if abs(x.imag) > 1e-10:
        raise ArithmeticError(f"self scalar product has imaginary part {x.imag:.3g}")
    return x.real


def cauchy_gap(
    k: int,
    m: int,
    n: int,
    s: StateVector,
    basis: UnitaryMatrix | None = None,
    *,
    method: str = "auto",
    rule: TailOverlapRule = DEFAULT_TAIL_RULE,
) -> float:
    """Squared gap ``|| (f_N - f_M) |s>^infinity ||^2`` for ``m <= n``.

    Bounded by ``(1/m - 1/n)(p - p^2) <= 1/m - 1/n``, which is what makes
    the sequence of finite-ensemble images Cauchy.
    """
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    kvec = _measurement_vector(k, s.dim, basis)
    a = complex(np.vdot(kvec, s.amps))
    if method == "auto":
        method = "gram" if n <= GRAM_LIMIT else "counted"
    if method == "gram":
        psi = ensemble(s)
        phi_n = apply_frequency(FrequencySpec(k, n, basis), psi)
        phi_m = apply_frequency(FrequencySpec(k, m, basis), psi)
        delta = add(phi_n, scale(phi_m, -1.0))
        return max(_real_inner(delta, delta, rule), 0.0)
    if method == "counted":
        p_pair = (a * a.conjugate()).real
        w = np.full(n, a / n)
        w[:m] -= a / m
        sum_w = complex(w.sum())
        sum_w2 = float(np.sum(np.abs(w) ** 2))
        gap_sq = sum_w2 + (abs(sum_w) ** 2 - sum_w2) * p_pair
        return max(gap_sq, 0.0)
    raise ValueError(f"unknown method {method!r}")


def cauchy_gap_grid(
    k: int,
    s: StateVector,
    n_max: int,
    basis: UnitaryMatrix | None = None,
    rule: TailOverlapRule = DEFAULT_TAIL_RULE,
) -> np.ndarray:
    """All squared gaps for ``1 <= m <= n <= n_max`` from one term Gram.

    Entry ``[m-1, n-1]`` holds the squared gap; entries below the diagonal
    are NaN. The Gram matrix of the ``n_max`` projected terms is built once
    from actual slot vectors (the same machinery as the gram method of
    `cauchy_gap`), then each (m, n) pair only recombines coefficients.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    d = s.dim
    kvec = _measurement_vector(k, d, basis)
    a = complex(np.vdot(kvec, s.amps))
    terms = [
        _trusted_term(1.0 + 0j, (s.amps,) * (alpha - 1) + (kvec,), s.amps, d)
        for alpha in range(1, n_max + 1)
    ]
    block = ProductState(terms, dim=d)
    gram = pairwise_term_gram(block, block, rule)
    out = np.full((n_max, n_max), np.nan)
    for m in range(1, n_max + 1):
        for n in range(m, n_max + 1):
            w = np.zeros(n_max, dtype=np.complex128)
            w[:n] = a / n
            w[:m] -= a / m
            gap_sq = float(np.real(w.conj() @ gram @ w))
            out[m - 1, n - 1] = max(gap_sq, 0.0)
    return out


def cross_orthogonality(
    k: int,
    n: int,
    m: int,
    s: StateVector,
    s_prime: StateVector,
    basis: UnitaryMatrix | None = None,
    rule: TailOverlapRule = DEFAULT_TAIL_RULE,
) -> complex:
    """Scalar product of frequency images of two distinct-ray ensembles.

    Returns ``< f_N (s'-ensemble), f_M (s-ensemble) >`` for ``n >= m``.
    Every term pair keeps an infinite run of ``<s'|s>`` factors, so under
    the tail rule the result is exactly zero whenever the rays are
    separated; inputs closer than the rule can resolve are rejected.
    """
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    if s.dim != s_prime.dim:
        raise ValueError(f"dimension mismatch: {s.dim} vs {s_prime.dim}")
    overlap = abs(complex(np.vdot(s.amps, s_prime.amps)))
    if overlap > 1.0 - 10.0 * rule.epsilon_tail:
        raise ValueError(
            f"|<s|s'>| = {overlap:.12g} is too close to 1 for the tail rule "
            f"(epsilon_tail={rule.epsilon_tail:g})"
        )
    phi_a = apply_frequency(FrequencySpec(k, n, basis), ensemble(s_prime))
    phi_b = apply_frequency(FrequencySpec(k, m, basis), ensemble(s))
    return inner_infinite(phi_a, phi_b, rule)
