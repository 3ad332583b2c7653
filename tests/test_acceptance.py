"""Acceptance criteria for the whole package, one test per criterion.

Every criterion pins its tolerance as a literal in the test body and prints
a single PASS line with the measured worst-case numbers, so the log of a
green run doubles as a measurement report. Random inputs come from Philox
generators with fixed keys named below; reruns see identical inputs.
"""

import csv
import io as _io
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from freqop import (
    FrequencySpec,
    SequentialSpec,
    StateVector,
    TruthValue,
    cauchy_gap_grid,
    cross_orthogonality,
    dense_deviation,
    dense_frequency_matrix,
    dense_spectrum,
    deviation_norm,
    eigencheck_standard_basis,
    epr_check,
    propagator,
    random_hermitian,
    random_state,
    sample_ensemble,
    succession_frequency,
    succession_probabilities,
    wigner_friend_check,
)
from freqop.cli import main as cli_main


def _rng(key):
    return np.random.Generator(np.random.Philox(key=key))


@pytest.fixture(scope="module")
def identity_sample():
    # 100 states, dimensions cycling 2..5, one outcome index each; shared by
    # the deviation-identity and norm-identity criteria so both measure the
    # same population
    rng = _rng(101)
    sample = []
    for i in range(100):
        s = random_state(2 + i % 4, rng)
        sample.append((s, i % s.dim))
    return sample


def test_criterion_01_deviation_identity(identity_sample):
    # deviation^2 must equal (p - p^2)/N within 1e-10 on the scalar-product
    # route and agree with the dense reconstruction within 1e-10; the
    # counted route must hold the identity within 1e-9 out to N = 10^6;
    # the whole sweep must finish within 30 s
    start = time.perf_counter()
    worst_closed = 0.0
    worst_oracle = 0.0
    worst_counted = 0.0
    for s, k in identity_sample:
        for n in range(1, 9):
            rep = deviation_norm(FrequencySpec(k, n), s, method="gram")
            expected = (rep.p - rep.p**2) / n
            worst_closed = max(worst_closed, abs(rep.deviation_exact**2 - expected))
            oracle_sq = dense_deviation(s, k, n) ** 2
            worst_oracle = max(worst_oracle, abs(rep.deviation_exact**2 - oracle_sq))
        for n in (10**2, 10**4, 10**6):
            rep = deviation_norm(FrequencySpec(k, n), s, method="counted")
            expected = (rep.p - rep.p**2) / n
            worst_counted = max(worst_counted, abs(rep.deviation_exact**2 - expected))
    elapsed = time.perf_counter() - start
    assert worst_closed <= 1e-10
    assert worst_oracle <= 1e-10
    assert worst_counted <= 1e-9
    assert elapsed <= 30.0
    print(
        f"PASS criterion 1: deviation identity on 100 states x N=1..8, "
        f"worst |dev^2-(p-p^2)/N| = {worst_closed:.3e}, "
        f"worst vs dense = {worst_oracle:.3e}, "
        f"counted to N=1e6 worst = {worst_counted:.3e}, {elapsed:.1f}s"
    )


def test_criterion_02_norm_identity(identity_sample):
    # ||f applied||^2 must equal (p + (N-1) p^2)/N within 1e-10 and stay <= 1
    worst = 0.0
    largest = 0.0
    for s, k in identity_sample:
        for n in range(1, 9):
            rep = deviation_norm(FrequencySpec(k, n), s, method="gram")
            expected = (rep.p + (n - 1) * rep.p**2) / n
            worst = max(worst, abs(rep.applied_norm**2 - expected))
            largest = max(largest, rep.applied_norm**2)
    assert worst <= 1e-10
    assert largest <= 1.0
    print(
        f"PASS criterion 2: applied-norm identity on the same sample, "
        f"worst error = {worst:.3e}, largest norm^2 = {largest:.6f}"
    )


def test_criterion_03_cauchy_gap():
    # || (f_N - f_M) psi ||^2 must equal (1/M - 1/N)(p - p^2) within 1e-10
    # for every 1 <= M <= N <= 64 and respect the bound 1/M - 1/N
    rng = _rng(103)
    worst = 0.0
    for i in range(20):
        s = random_state(2 + i % 4, rng)
        k = i % s.dim
        kvec = np.zeros(s.dim, dtype=np.complex128)
        kvec[k] = 1.0
        p = abs(complex(np.vdot(kvec, s.amps))) ** 2
        grid = cauchy_gap_grid(k, s, 64)
        for m in range(1, 65):
            for n in range(m, 65):
                gap = grid[m - 1, n - 1]
                spread = 1.0 / m - 1.0 / n
                worst = max(worst, abs(gap - spread * (p - p * p)))
                assert gap <= spread + 1e-15
    assert worst <= 1e-10
    print(
        f"PASS criterion 3: Cauchy gaps on 20 states, all 2080 pairs "
        f"M <= N <= 64, worst identity error = {worst:.3e}, bound held"
    )


def test_criterion_04_exact_orthogonality():
    # frequency images of ray-separated ensembles must have scalar product
    # exactly 0, not merely small, on 50 random pairs
    rng = _rng(104)
    checked = 0
    while checked < 50:
        d = 2 + checked % 4
        s = random_state(d, rng)
        s_prime = random_state(d, rng)
        if abs(complex(np.vdot(s.amps, s_prime.amps))) > 1.0 - 1e-6:
            continue
        n = 2 + checked % 7
        m = 1 + checked % n
        value = cross_orthogonality(checked % d, n, m, s, s_prime)
        assert value == 0
        checked += 1
    print(
        "PASS criterion 4: cross scalar product exactly 0 on 50 "
        "ray-separated pairs"
    )


def test_criterion_05_dense_spectrum():
    # every eigenvalue of the dense operator must sit on the grid {j/N}
    # within 1e-9, and the outcome operators must sum to the identity
    # within 1e-10, for d in {2, 3} and N up to 8
    worst_grid = 0.0
    worst_sum = 0.0
    for d in (2, 3):
        for n in range(1, 9):
            size = d**n
            grid = np.arange(n + 1) / n
            if size <= 1024:
                total = np.zeros((size, size), dtype=np.complex128)
                for k in range(d):
                    eigs = dense_spectrum(k, n, d)
                    dist = np.abs(eigs[:, None] - grid[None, :]).min(axis=1)
                    worst_grid = max(worst_grid, float(dist.max()))
                    total += dense_frequency_matrix(k, n, d)
                total -= np.eye(size)
                worst_sum = max(worst_sum, float(np.abs(total).max()))
            else:
                # too big to materialize: push every standard basis vector
                # through the operator instead; the residuals certify the
                # eigenstructure and the summed eigenvalues the completeness
                lam_total = np.zeros(size)
                residual_total = 0.0
                for k in range(d):
                    eigs, residual = eigencheck_standard_basis(k, n, d)
                    dist = np.abs(eigs[:, None] - grid[None, :]).min(axis=1)
                    worst_grid = max(worst_grid, float(dist.max()))
                    lam_total += eigs
                    residual_total += residual
                sum_err = float(np.abs(lam_total - 1.0).max()) + residual_total
                worst_sum = max(worst_sum, sum_err)
    assert worst_grid <= 1e-9
    assert worst_sum <= 1e-10
    print(
        f"PASS criterion 5: spectra on the j/N grid for d in (2,3), N <= 8, "
        f"worst grid distance = {worst_grid:.3e}, "
        f"worst completeness error = {worst_sum:.3e}"
    )


def test_criterion_06_sequential_records():
    # the succession-frequency deviation must satisfy the same identity with
    # q = |<n|U|m>|^2 within 1e-10, and the transition weights must sum to 1
    rng = _rng(106)
    worst_dev = 0.0
    worst_sum = 0.0
    for i in range(20):
        d = 2 + i % 3
        h = random_hermitian(d, rng)
        m = i % d
        n = (i + 1) % d
        for dt in (0.0, 0.1, math.pi / 4):
            weights = succession_probabilities(h, dt, m)
            worst_sum = max(worst_sum, abs(float(weights.sum()) - 1.0))
            for reps in (*range(1, 9), 1000):
                spec = SequentialSpec(h, dt, m, n, reps)
                u = propagator(spec)
                q = abs(complex(u.entries[n, m])) ** 2
                rep = succession_frequency(spec)
                expected = (q - q * q) / reps
                worst_dev = max(worst_dev, abs(rep.deviation_exact**2 - expected))
    assert worst_dev <= 1e-10
    assert worst_sum <= 1e-10
    print(
        f"PASS criterion 6: succession records for 20 generators, "
        f"3 time steps, M up to 1000, worst deviation error = {worst_dev:.3e}, "
        f"worst weight-sum error = {worst_sum:.3e}"
    )


def _epr_case(alpha, beta, worst):
    report = epr_check(alpha, beta)
    for value in (
        report.pre_first_up,
        report.pre_first_down,
        report.pre_second_up,
        report.pre_second_down,
    ):
        assert value is TruthValue.INDEFINITE
    assert report.post_second_down is TruthValue.TRUE
    assert report.product_residual <= 1e-12
    assert report.passed
    return max(worst, report.product_residual)


def test_criterion_07_correlated_pair():
    # before conditioning both one-side statements must be Indefinite; after
    # conditioning on the first side "up" the second side "down" must be True
    # and the state a product, up to phase, within 1e-12
    worst = _epr_case(1 / math.sqrt(2), 1 / math.sqrt(2), 0.0)
    rng = _rng(107)
    produced = 0
    while produced < 10:
        raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        raw /= np.linalg.norm(raw)
        alpha, beta = complex(raw[0]), complex(raw[1])
        if min(abs(alpha) ** 2, abs(beta) ** 2) <= 1e-2:
            continue
        worst = _epr_case(alpha, beta, worst)
        produced += 1
    print(
        f"PASS criterion 7: correlated pair, symmetric plus 10 random "
        f"amplitude pairs, worst product residual = {worst:.3e}"
    )


def test_criterion_08_observed_observer():
    # conditioning on each record branch must reproduce weights |alpha|^2,
    # |beta|^2 within 1e-12, leave exact product states, and give the same
    # truth values inside and outside on both object projectors
    rng = _rng(108)
    cases = [(1 / math.sqrt(2), 1 / math.sqrt(2)), (0.6, 0.8)]
    while len(cases) < 12:
        raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        raw /= np.linalg.norm(raw)
        if min(abs(raw[0]) ** 2, abs(raw[1]) ** 2) <= 1e-2:
            continue
        cases.append((complex(raw[0]), complex(raw[1])))
    worst_prob = 0.0
    worst_prod = 0.0
    consistency_checks = 0
    for alpha, beta in cases:
        report = wigner_friend_check(alpha, beta)
        assert report.passed
        assert len(report.branches) == 2
        expected = (abs(alpha) ** 2, abs(beta) ** 2)
        for branch, weight in zip(report.branches, expected):
            worst_prob = max(worst_prob, abs(branch.probability - weight))
            worst_prod = max(worst_prod, branch.product_residual)
            assert branch.composite_truth == branch.object_truth
            assert branch.consistent
            consistency_checks += len(branch.composite_truth)
    assert worst_prob <= 1e-12
    assert worst_prod <= 1e-12
    assert consistency_checks == 4 * len(cases)
    print(
        f"PASS criterion 8: observed observer on {len(cases)} amplitude "
        f"pairs, worst branch-weight error = {worst_prob:.3e}, worst product "
        f"residual = {worst_prod:.3e}, {consistency_checks} consistency checks"
    )


def test_criterion_09_sampling():
    # 10^6 draws at the package's documented default seed 42 must land within
    # 5 binomial standard deviations of every weight, replay bit for bit,
    # and finish within 5 s
    start = time.perf_counter()
    s = StateVector((0.6, 0.8))
    record = sample_ensemble(s, 10**6, seed=42)
    replay = sample_ensemble(s, 10**6, seed=42)
    elapsed = time.perf_counter() - start
    worst = 0.0
    for freq, p in zip(record.empirical_freq, record.probabilities):
        sigma = math.sqrt(p * (1.0 - p) / 10**6)
        assert abs(freq - p) <= 5.0 * sigma
        worst = max(worst, abs(freq - p) / sigma)
    assert record == replay
    assert elapsed <= 5.0
    print(
        f"PASS criterion 9: 10^6 draws at seed 42, worst |freq-p| = "
        f"{worst:.2f} sigma, bit-exact replay, {elapsed:.2f}s"
    )


def test_criterion_10_cli_contract():
    # verify-all must exit 0 on a clean build, and converge at p = 1/2 must
    # report deviations that halve at each 4x ensemble growth within 1e-8
    # relative
    runner = CliRunner()
    verify = runner.invoke(cli_main, ["verify-all"])
    assert verify.exit_code == 0
    half = "0.70710678118654752,0;0.70710678118654752,0"
    converge = runner.invoke(
        cli_main,
        ["converge", "--amps", half, "--k", "0", "--ns", "1,4,16,64"],
    )
    assert converge.exit_code == 0
    rows = list(csv.reader(_io.StringIO(converge.stdout)))[1:]
    devs = [float(r[2]) for r in rows]
    worst = 0.0
    for a, b in zip(devs, devs[1:]):
        worst = max(worst, abs(a / b - 2.0) / 2.0)
    assert worst <= 1e-8
    print(
        f"PASS criterion 10: verify-all exit 0, converge halving at p=1/2, "
        f"worst relative error = {worst:.3e}"
    )
