import math

import numpy as np
import pytest

from freqop import verify
from freqop.frequency import cauchy_gap_grid
from freqop.hilbert import random_state
from freqop.scenarios import wigner_friend_check
from freqop.verify import run_all


def test_all_suites_pass_at_defaults():
    results = run_all(seed=42)
    assert len(results) == 9
    assert all(r.failures == 0 for r in results)
    assert all(r.cases > 0 for r in results)


def test_runs_are_deterministic():
    assert run_all(seed=11) == run_all(seed=11)
    # a numpy integer seed runs the same inputs, the sampling suite's included
    assert run_all(seed=np.int64(11)) == run_all(seed=11)


def test_overtight_tolerance_reports_failures(monkeypatch):
    reports = []

    def recorded(alpha, beta):
        reports.append(wigner_friend_check(alpha, beta))
        return reports[-1]

    monkeypatch.setattr(verify, "wigner_friend_check", recorded)
    results = run_all(seed=42, tolerance=1e-16)
    assert sum(r.failures for r in results) > 0
    # a case beyond the tolerance still reports the error it measured
    assert all(math.isfinite(r.max_error) for r in results)
    (wigner,) = (r for r in results if r.suite == "wigner")
    assert wigner.failures > 0
    worst = max(b.product_residual for rep in reports for b in rep.branches)
    assert wigner.max_error == worst


def test_seed_outside_the_key_range_is_refused_before_any_suite(monkeypatch):
    # from 2**63 on the generator key [seed, lane] turns float64, so
    # neighbouring seeds would run identical inputs
    def no_suite(seed, lane):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(verify, "_rng", no_suite)
    for bad in (-1, 2**63, 2**63 + 1, True):
        with pytest.raises(ValueError, match="seed"):
            run_all(seed=bad)


def test_each_suite_draws_from_its_own_lane_once(monkeypatch):
    # the epr and wigner suites share one rule and differ by lane (6 and 7)
    lanes = []
    rng = verify._rng

    def recorded(seed, lane):
        lanes.append(lane)
        return rng(seed, lane)

    monkeypatch.setattr(verify, "_rng", recorded)
    run_all(seed=42)
    assert sorted(lanes) == list(range(1, 9))


def _cauchy_per_gap(seed):
    # the suite's former loop over each (M, N), kept as the reference for its bits
    rng = verify._rng(seed, 3)
    for d in (2, 3, 5):
        s = random_state(d, rng)
        k = int(rng.integers(d))
        p = abs(s.amps[k]) ** 2
        grid = cauchy_gap_grid(k, s, 32)
        for m in range(1, 33):
            for n in range(m, 33):
                gap = grid[m - 1, n - 1]
                closed = (1.0 / m - 1.0 / n) * (p - p * p)
                yield max(abs(gap - closed), max(gap - (1.0 / m - 1.0 / n), 0.0))


@pytest.mark.parametrize("seed", [0, 42, 2**63 - 1])
def test_cauchy_suite_keeps_the_bits_of_a_loop_over_each_gap(seed):
    got = np.fromiter(verify._suite_cauchy(seed), dtype=float)
    want = np.fromiter(_cauchy_per_gap(seed), dtype=float)
    assert got.size == 3 * 32 * 33 // 2
    assert got.tobytes() == want.tobytes()
