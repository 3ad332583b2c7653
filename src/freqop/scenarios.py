"""Two-system conditioning: correlated pairs and observed observers.

A bipartite pure state carries propositions about either subsystem. A
projective proposition is TRUE or FALSE only when the state lies inside or
orthogonal to the projected subspace; otherwise it is INDEFINITE, and only
conditioning on a definite record elsewhere can sharpen it. The two
standard checks here exercise that: a maximally correlated spin pair, and
a measured system inside a sealed laboratory described from outside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import (
    NORM_TOL,
    Projector,
    StateVector,
    TruthValue,
    _as_complex_array,
    _projected_truth,
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
        m = _as_complex_array(amps, "amplitudes", 2)
        self._amps = _unit_amplitudes(m, normalize)

    @property
    def amps(self) -> np.ndarray:
        return self._amps

    def __repr__(self) -> str:
        return f"BipartiteState(dims={self._amps.shape})"


def _project(state: BipartiteState, side: str, p: Projector) -> np.ndarray:
    if side not in ("first", "second"):
        raise ValueError(f'side must be "first" or "second", got {side!r}')
    dim = state.amps.shape[0 if side == "first" else 1]
    if p.dim != dim:
        raise ValueError(
            f"projector dim {p.dim} does not match {side} subsystem dim {dim}"
        )
    return p.entries @ state.amps if side == "first" else state.amps @ p.entries.T


def subsystem_truth_value(state: BipartiteState, side: str, p: Projector) -> TruthValue:
    """Trichotomy for a one-subsystem proposition on the joint state.

    The projector acts on the named side tensored with the identity on the
    other; TRUE/FALSE require the joint state to lie inside/orthogonal to
    that subspace.
    """
    return _projected_truth(state.amps, _project(state, side, p))


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


def _phase_free_residual(state: BipartiteState, i: int, j: int) -> float:
    # Distance to the product |i>|j> minimized over a global phase. The phase
    # that attains the minimum is the overlap amps[i, j]'s own; subtracting
    # it componentwise keeps the result at roundoff scale for near-equal
    # states, where sqrt(2 - 2|overlap|) would amplify rounding to ~1e-8.
    overlap = complex(state.amps[i, j])
    diff = state.amps.copy()
    diff[i, j] -= overlap / abs(overlap) if abs(overlap) > 0.0 else 1.0
    return float(np.linalg.norm(diff))


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


def _unit_weights(alpha: complex, beta: complex) -> tuple[complex, complex]:
    """``alpha`` and ``beta`` as complex numbers, refused unless their norm is
    1 within ``NORM_TOL``, as `hilbert` judges a state; a NaN weight fails
    that comparison."""
    alpha, beta = complex(alpha), complex(beta)
    try:
        total = abs(alpha) ** 2 + abs(beta) ** 2
    except OverflowError:  # a huge but finite amplitude
        total = math.inf
    if not abs(math.sqrt(total) - 1.0) <= NORM_TOL:
        raise ValueError(f"|alpha|^2 + |beta|^2 = {total:.12g} is not 1")
    return alpha, beta


def _qubit_basis() -> tuple[Projector, Projector]:
    """The propositions "is |0>" and "is |1>" of a two-level subsystem."""
    return Projector.onto_basis_state(2, 0), Projector.onto_basis_state(2, 1)


def epr_pair(alpha: complex, beta: complex) -> BipartiteState:
    """``alpha |up down> + beta |down up>`` with index 0 = up, 1 = down."""
    return BipartiteState([[0, alpha], [beta, 0]])


def epr_check(alpha: complex, beta: complex) -> EprReport:
    """Spin-pair conditioning: indefinite singly, definite after a record.

    Before any measurement no spin proposition about either particle is
    definite. Conditioning on "first spin up" leaves the product state
    ``|up>|down>``, making "second spin down" TRUE; the check passes when it
    does and the residual to that product is at most ``PRODUCT_TOL``
    (``verify-all --tolerance`` reaches the residual only through
    `hilbert.judge`). ``alpha`` and ``beta`` must have unit norm, and a pair
    for which any of the four propositions is already definite is refused:
    that scenario would be empty.
    """
    alpha, beta = _unit_weights(alpha, beta)
    state = epr_pair(alpha, beta)
    p_up, p_down = basis = _qubit_basis()
    pre = tuple(
        subsystem_truth_value(state, side, p) for side in ("first", "second") for p in basis
    )
    if any(t is not TruthValue.INDEFINITE for t in pre):
        raise ValueError("both branches must carry weight; got a definite pair")
    conditioned = condition_on(state, "first", p_up)
    post = subsystem_truth_value(conditioned, "second", p_down)
    residual = _phase_free_residual(conditioned, 0, 1)
    passed = post is TruthValue.TRUE and residual <= PRODUCT_TOL
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

    pre_object_a: TruthValue
    pre_object_b: TruthValue
    branches: tuple[WignerBranch, ...]
    passed: bool

    @property
    def product_residual(self) -> float:
        """The worst residual to a product state over the branches."""
        return max((b.product_residual for b in self.branches), default=0.0)


def wigner_friend_check(alpha: complex, beta: complex) -> WignerReport:
    """An observer inside the box, described from outside.

    The sealed laboratory ends in ``alpha |a>|A> + beta |b>|B>``: object
    outcome entangled with the observer's record. From outside, object
    propositions are indefinite (when both weights survive). Conditioning
    on the record read ``A`` or ``B`` leaves a product state, and for each
    surviving branch the outside description (conditioned composite, with
    the projector extended by the identity) and the inside description
    (conditioned object state alone) assign identical truth values to both
    object basis propositions; a branch is consistent when they agree and
    its residual to the product is at most ``PRODUCT_TOL``, as in
    `epr_check`. Each branch's weight is the corresponding amplitude squared;
    a branch whose record proposition is FALSE on the composite, the point
    at which `condition_on` refuses, is left out.
    """
    alpha, beta = _unit_weights(alpha, beta)
    composite = BipartiteState([[alpha, 0], [0, beta]])
    basis = _qubit_basis()
    pre_a, pre_b = (subsystem_truth_value(composite, "first", p) for p in basis)
    branches = []
    for j, (reply, p_rec) in enumerate(zip(("a", "b"), basis)):
        if subsystem_truth_value(composite, "second", p_rec) is TruthValue.FALSE:
            continue
        conditioned = condition_on(composite, "second", p_rec)
        object_state = StateVector(conditioned.amps[:, j], normalize=True)
        residual = _phase_free_residual(conditioned, j, j)
        composite_tv = tuple(
            subsystem_truth_value(conditioned, "first", p) for p in basis
        )
        object_tv = tuple(truth_value(object_state, p) for p in basis)
        consistent = composite_tv == object_tv and residual <= PRODUCT_TOL
        branches.append(
            WignerBranch(
                reply=reply,
                probability=branch_probability(composite, "second", p_rec),
                product_residual=residual,
                composite_truth=composite_tv,
                object_truth=object_tv,
                consistent=consistent,
            )
        )
    passed = bool(branches) and all(b.consistent for b in branches)
    return WignerReport(
        pre_object_a=pre_a,
        pre_object_b=pre_b,
        branches=tuple(branches),
        passed=passed,
    )
