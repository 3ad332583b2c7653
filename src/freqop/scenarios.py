"""Two-system conditioning: correlated pairs and observed observers.

A bipartite pure state carries propositions about either subsystem. A
projective proposition is TRUE or FALSE only when the state lies inside or
orthogonal to the projected subspace; otherwise it is INDEFINITE, and only
conditioning on a definite record elsewhere can sharpen it. The two
standard checks here exercise that: a maximally correlated spin pair, and
a measured system inside a sealed laboratory described from outside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import (
    NORM_TOL,
    Projector,
    StateVector,
    TruthValue,
    _unit_amplitudes,
    truth_value,
)

PRODUCT_TOL = 1e-12  # phase-free distance for "is a product state" checks


class ZeroBranchError(ValueError):
    """Conditioning on an outcome the state gives no amplitude to."""


class BipartiteState:
    """A normalized pure state of two subsystems, stored as an amplitude matrix.

    ``amps[i, j]`` multiplies ``|i>`` of the first subsystem and ``|j>`` of
    the second.
    """

    __slots__ = ("_amps",)

    def __init__(self, amps, *, normalize: bool = False):
        m = np.asarray(amps, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
            raise ValueError("amplitudes must form a non-empty 2-D array")
        if not np.all(np.isfinite(m)):
            raise ValueError("amplitudes contain non-finite entries")
        self._amps = _unit_amplitudes(m, normalize)

    @property
    def amps(self) -> np.ndarray:
        return self._amps

    @property
    def dim_first(self) -> int:
        return self._amps.shape[0]

    @property
    def dim_second(self) -> int:
        return self._amps.shape[1]

    def __repr__(self) -> str:
        return f"BipartiteState(dims=({self.dim_first}, {self.dim_second}))"


def _project(state: BipartiteState, side: str, p: Projector) -> np.ndarray:
    if side == "first":
        if p.dim != state.dim_first:
            raise ValueError(
                f"projector dim {p.dim} does not match first subsystem "
                f"dim {state.dim_first}"
            )
        return p.entries @ state.amps
    if side == "second":
        if p.dim != state.dim_second:
            raise ValueError(
                f"projector dim {p.dim} does not match second subsystem "
                f"dim {state.dim_second}"
            )
        return state.amps @ p.entries.T
    raise ValueError(f'side must be "first" or "second", got {side!r}')


def subsystem_truth_value(
    state: BipartiteState, side: str, p: Projector, tol: float = NORM_TOL
) -> TruthValue:
    """Trichotomy for a one-subsystem proposition on the joint state.

    The projector acts on the named side tensored with the identity on the
    other; TRUE/FALSE require the joint state to lie inside/orthogonal to
    that subspace.
    """
    v = _project(state, side, p)
    if float(np.linalg.norm(v - state.amps)) <= tol:
        return TruthValue.TRUE
    if float(np.linalg.norm(v)) <= tol:
        return TruthValue.FALSE
    return TruthValue.INDEFINITE


def branch_probability(state: BipartiteState, side: str, p: Projector) -> float:
    """Weight of the branch the projector selects."""
    v = _project(state, side, p)
    return float(np.linalg.norm(v)) ** 2


def condition_on(state: BipartiteState, side: str, p: Projector) -> BipartiteState:
    """Project onto a definite outcome on one side and renormalize.

    Raises `ZeroBranchError` when the branch carries no weight: there is
    no state conditioned on an outcome that cannot occur.
    """
    v = _project(state, side, p)
    n = float(np.linalg.norm(v))
    if n <= NORM_TOL:
        raise ZeroBranchError(
            f"branch weight {n * n:.3g} is zero within tolerance; cannot condition"
        )
    return BipartiteState(v / n)


def _phase_free_residual(state: BipartiteState, target: np.ndarray) -> float:
    # Distance to the unit target minimized over a global phase. The phase
    # that attains the minimum is the overlap's own; subtracting the rotated
    # target componentwise keeps the result at roundoff scale for near-equal
    # states, where sqrt(2 - 2|overlap|) would amplify rounding to ~1e-8.
    overlap = complex(np.sum(np.conj(target) * state.amps))
    phase = overlap / abs(overlap) if abs(overlap) > 0.0 else 1.0
    return float(np.linalg.norm(state.amps - phase * target))


@dataclass(frozen=True)
class EprReport:
    """Outcome of the correlated-pair check (see `epr_check`)."""

    alpha: complex
    beta: complex
    pre_first_up: TruthValue
    pre_first_down: TruthValue
    pre_second_up: TruthValue
    pre_second_down: TruthValue
    branch_probability: float
    post_second_down: TruthValue
    product_residual: float
    passed: bool


def epr_pair(alpha: complex, beta: complex) -> BipartiteState:
    """``alpha |up down> + beta |down up>`` with index 0 = up, 1 = down."""
    m = np.zeros((2, 2), dtype=np.complex128)
    m[0, 1] = alpha
    m[1, 0] = beta
    return BipartiteState(m)


def epr_check(
    alpha: complex,
    beta: complex,
    tol: float = NORM_TOL,
    product_tol: float = PRODUCT_TOL,
) -> EprReport:
    """Spin-pair conditioning: indefinite singly, definite after a record.

    Before any measurement no spin proposition about either particle is
    definite. Conditioning on "first spin up" leaves the product state
    ``|up>|down>``, making "second spin down" TRUE. Both weights must be
    nonzero (a definite preparation is rejected, the scenario would be
    empty) and ``|alpha|^2 + |beta|^2`` must be 1.
    """
    alpha = complex(alpha)
    beta = complex(beta)
    total = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(total - 1.0) > tol:
        raise ValueError(f"|alpha|^2 + |beta|^2 = {total:.12g} is not 1")
    if abs(alpha) ** 2 <= tol or abs(beta) ** 2 <= tol:
        raise ValueError("both branches must carry weight; got a definite pair")
    state = epr_pair(alpha, beta)
    p_up = Projector.onto_basis_state(2, 0)
    p_down = Projector.onto_basis_state(2, 1)
    pre = (
        subsystem_truth_value(state, "first", p_up, tol),
        subsystem_truth_value(state, "first", p_down, tol),
        subsystem_truth_value(state, "second", p_up, tol),
        subsystem_truth_value(state, "second", p_down, tol),
    )
    conditioned = condition_on(state, "first", p_up)
    post = subsystem_truth_value(conditioned, "second", p_down, tol)
    target = np.zeros((2, 2), dtype=np.complex128)
    target[0, 1] = 1.0
    residual = _phase_free_residual(conditioned, target)
    passed = (
        all(t is TruthValue.INDEFINITE for t in pre)
        and post is TruthValue.TRUE
        and residual <= product_tol
    )
    return EprReport(
        alpha=alpha,
        beta=beta,
        pre_first_up=pre[0],
        pre_first_down=pre[1],
        pre_second_up=pre[2],
        pre_second_down=pre[3],
        branch_probability=branch_probability(state, "first", p_up),
        post_second_down=post,
        product_residual=residual,
        passed=passed,
    )


@dataclass(frozen=True)
class WignerBranch:
    """One surviving record branch of the observed-observer check."""

    reply: str
    probability: float
    product_residual: float
    composite_truth: tuple[TruthValue, TruthValue]
    object_truth: tuple[TruthValue, TruthValue]
    consistent: bool


@dataclass(frozen=True)
class WignerReport:
    """Outcome of the observed-observer check (see `wigner_friend_check`)."""

    alpha: complex
    beta: complex
    pre_object_a: TruthValue
    pre_object_b: TruthValue
    branches: tuple[WignerBranch, ...]
    passed: bool


def wigner_friend_check(
    alpha: complex,
    beta: complex,
    tol: float = NORM_TOL,
    product_tol: float = PRODUCT_TOL,
) -> WignerReport:
    """An observer inside the box, described from outside.

    The sealed laboratory ends in ``alpha |a>|A> + beta |b>|B>``: object
    outcome entangled with the observer's record. From outside, object
    propositions are indefinite (when both weights survive). Conditioning
    on the record read ``A`` or ``B`` leaves a product state, and for each
    surviving branch the outside description (conditioned composite, with
    the projector extended by the identity) and the inside description
    (conditioned object state alone) assign identical truth values to both
    object basis propositions. Each branch's weight is the corresponding
    amplitude squared.
    """
    alpha = complex(alpha)
    beta = complex(beta)
    total = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(total - 1.0) > tol:
        raise ValueError(f"|alpha|^2 + |beta|^2 = {total:.12g} is not 1")
    m = np.zeros((2, 2), dtype=np.complex128)
    m[0, 0] = alpha
    m[1, 1] = beta
    composite = BipartiteState(m)
    p_obj = (Projector.onto_basis_state(2, 0), Projector.onto_basis_state(2, 1))
    p_rec = (Projector.onto_basis_state(2, 0), Projector.onto_basis_state(2, 1))
    pre_a = subsystem_truth_value(composite, "first", p_obj[0], tol)
    pre_b = subsystem_truth_value(composite, "first", p_obj[1], tol)
    branches = []
    all_consistent = True
    for j, reply in enumerate(("a", "b")):
        prob = branch_probability(composite, "second", p_rec[j])
        if prob <= tol:
            continue
        conditioned = condition_on(composite, "second", p_rec[j])
        object_state = StateVector(conditioned.amps[:, j], normalize=True)
        target = np.zeros((2, 2), dtype=np.complex128)
        target[j, j] = 1.0
        residual = _phase_free_residual(conditioned, target)
        composite_tv = tuple(
            subsystem_truth_value(conditioned, "first", p, tol) for p in p_obj
        )
        object_tv = tuple(truth_value(object_state, p, tol) for p in p_obj)
        consistent = composite_tv == object_tv and residual <= product_tol
        all_consistent = all_consistent and consistent
        branches.append(
            WignerBranch(
                reply=reply,
                probability=prob,
                product_residual=residual,
                composite_truth=composite_tv,
                object_truth=object_tv,
                consistent=consistent,
            )
        )
    passed = all_consistent and len(branches) >= 1
    return WignerReport(
        alpha=alpha,
        beta=beta,
        pre_object_a=pre_a,
        pre_object_b=pre_b,
        branches=tuple(branches),
        passed=passed,
    )
