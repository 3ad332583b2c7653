"""Recorded successions: ensemble statistics of repeated evolve-and-record runs.

A system prepared with record ``m`` evolves for ``dt`` under a Hamiltonian
and is recorded again. An ensemble of M such runs is the M-fold product of
the evolved state ``U|m>``, and the frequency of record ``n`` among the
successions follows the same deviation law as any other ensemble, with
``q = |<n|U|m>|^2`` in the role of the outcome weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frequency import MAX_SLOTS, FrequencyReport, FrequencySpec, deviation_norm
from .hilbert import HermitianOperator, UnitaryMatrix, _index, _size, evolve


@dataclass(frozen=True)
class SequentialSpec:
    """One evolve-and-record setup.

    ``m`` is the prepared record, ``n`` the succeeding record whose
    frequency is counted, ``successions`` the ensemble length M.
    """

    hamiltonian: HermitianOperator
    dt: float
    m: int
    n: int
    successions: int

    def __post_init__(self):
        _index(self.m, self.hamiltonian.dim, "prepared record")
        _index(self.n, self.hamiltonian.dim, "succeeding record")
        _size(self.successions, "successions", 1, MAX_SLOTS)
        if not np.isfinite(self.dt):
            raise ValueError("dt must be finite")


def propagator(spec: SequentialSpec) -> UnitaryMatrix:
    return evolve(spec.hamiltonian, spec.dt)


def succession_probabilities(
    h: HermitianOperator, dt: float, m: int
) -> np.ndarray:
    """``q(n) = |<n|U|m>|^2`` for every possible succeeding record ``n``."""
    m = _index(m, h.dim, "prepared record")
    return np.abs(evolve(h, dt).entries[:, m]) ** 2


def succession_frequency(spec: SequentialSpec) -> FrequencyReport:
    """Deviation report for the frequency of record ``n`` among M successions.

    The report's ``p`` is the succession weight ``q = |<n|U|m>|^2`` and the
    deviation obeys ``deviation^2 = (q - q^2)/M``.
    """
    s = propagator(spec).column(spec.m)  # the state one run ends in: U|m>
    fspec = FrequencySpec(k=spec.n, n_slots=spec.successions)
    return deviation_norm(fspec, s)
