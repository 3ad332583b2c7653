import math

import numpy as np
import pytest

from freqop import verify
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
