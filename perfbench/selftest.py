"""Self-tests of the benchmark's checkers.

Each checker gets a correct value, which it must accept, and a planted wrong
one, which it must count as a failure. Run from the root of a checkout:

    python3 perfbench/selftest.py

The file name keeps it out of the repository's pytest collection.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks
import run
import tracer


def _report(p, n, **changes):
    rep = dict(method="gram", n_slots=n, p=p,
               deviation_exact=math.sqrt((p - p * p) / n),
               applied_norm=math.sqrt((p + (n - 1) * p * p) / n))
    rep.update(changes)
    return SimpleNamespace(**rep)


def test_deviation_report():
    p, n = 0.3, 64
    assert checks.deviation_report(_report(p, n), p, n) == []
    dev = math.sqrt((p - p * p) / n)
    assert checks.deviation_report(_report(p, n, deviation_exact=dev + 1e-6), p, n)
    applied = math.sqrt((p + (n - 1) * p * p) / n)
    assert checks.deviation_report(_report(p, n, applied_norm=applied + 1e-6), p, n)
    assert checks.deviation_report(_report(p, n, method="counted"), p, n)
    assert checks.deviation_report(_report(p, n, deviation_exact=math.nan), p, n)


def _grid(p, n_max):
    g = np.full((n_max, n_max), np.nan)
    for m in range(1, n_max + 1):
        for n in range(m, n_max + 1):
            g[m - 1, n - 1] = (1 / m - 1 / n) * (p - p * p)
    return g


def test_cauchy_grid():
    g = _grid(0.4, 8)
    assert checks.cauchy_grid(g, 0.4, 8) == []
    bad = g.copy()
    bad[2, 5] += 1e-9
    assert checks.cauchy_grid(bad, 0.4, 8)
    bad = g.copy()
    bad[5, 2] = 0.0
    assert checks.cauchy_grid(bad, 0.4, 8)
    bad = g.copy()
    bad[0, 7] = math.nan
    assert checks.cauchy_grid(bad, 0.4, 8)
    assert checks.cauchy_grid(g[:7, :7], 0.4, 8)


def test_exact_zero():
    assert checks.exact_zero(0j) == []
    assert checks.exact_zero(complex(0.0, 1e-300))
    assert checks.exact_zero(0.0)


def test_digit_counts():
    # d=3, N=2: j = 3*i1 + i2, count of digits equal to 1
    assert list(checks.digit_counts(1, 2, 3)) == [0, 1, 0, 1, 2, 1, 0, 1, 0]


def test_eigencheck():
    k, n, d = 1, 4, 3
    eigs = checks.digit_counts(k, n, d) / n
    assert checks.eigencheck((eigs, 0.0), k, n, d) == []
    off = eigs.copy()
    off[7] += 1e-6                       # off the grid {c/N}
    assert checks.eigencheck((off, 0.0), k, n, d)
    swapped = eigs.copy()
    swapped[[0, 1]] = swapped[[1, 0]]    # on the grid, wrong basis vector
    assert checks.eigencheck((swapped, 0.0), k, n, d)
    assert checks.eigencheck((eigs, 1e-9), k, n, d)
    assert checks.eigencheck((eigs[:-1], 0.0), k, n, d)


def test_spectrum():
    n, d = 5, 3
    want = checks.spectrum_multiset(n, d)
    assert want.size == d**n
    rng = np.random.default_rng(0)
    assert checks.spectrum(rng.permutation(want), n, d) == []
    off = want.copy()
    off[10] += 1e-6
    assert checks.spectrum(off, n, d)
    moved = want.copy()
    moved[0] = 1.0 / n                   # on the grid, wrong multiplicity
    assert checks.spectrum(moved, n, d)
    assert checks.spectrum(want[1:], n, d)


def test_standard_matrix():
    k, n, d = 0, 3, 2
    m = np.diag(checks.digit_counts(k, n, d) / n).astype(complex)
    assert checks.standard_matrix(m, k, n, d) == []
    bad = m.copy()
    bad[1, 2] = 1e-9
    assert checks.standard_matrix(bad, k, n, d)


def test_dense_deviation():
    p, n = 0.7, 12
    dev = math.sqrt((p - p * p) / n)
    assert checks.dense_deviation(dev, p, n) == []
    assert checks.dense_deviation(dev + 1e-6, p, n)


def test_propagator():
    rng = np.random.default_rng(1)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = (g + g.conj().T) / 2
    w, v = np.linalg.eigh(h)
    want = v @ np.diag(np.exp(-1j * w * 0.9)) @ v.conj().T
    assert np.max(np.abs(checks.propagator(h, 0.9) - want)) < 1e-12


def _csv(header, rows) -> bytes:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows([[format(x, ".17g") if isinstance(x, float) else x for x in r] for r in rows])
    return buf.getvalue().encode()


def _converge(p, ns=(1, 4, 16, 64), shift=0.0):
    rows = []
    for n in ns:
        closed = math.sqrt((p - p * p) / n)
        rows.append([n, p, closed + shift, closed, 0.0, (p + (n - 1) * p * p) / n])
    return _csv(["N", "p", "deviation_exact", "deviation_closed", "abs_error",
                 "norm_fN_sq"], rows)


def test_cli_converge():
    assert checks.cli_converge((0, _converge(0.25)), 0.25) == []
    assert checks.cli_converge((0, _converge(0.25, shift=1e-6)), 0.25)
    assert checks.cli_converge((0, _converge(0.25, ns=(1, 4, 16))), 0.25)
    assert checks.cli_converge((1, _converge(0.25)), 0.25)


def test_cli_spectrum():
    n, d = 4, 2
    eigs = checks.spectrum_multiset(n, d)
    rows = [[i, float(x), float(x), 0.0] for i, x in enumerate(eigs)]
    header = ["index", "eigenvalue", "nearest_grid", "abs_error"]
    assert checks.cli_spectrum((0, _csv(header, rows)), n, d) == []
    rows[3][1] += 1e-6
    assert checks.cli_spectrum((0, _csv(header, rows)), n, d)


def test_cli_sequential():
    q, m = 0.3, 1000
    header = ["successions", "q", "deviation_exact", "deviation_closed", "abs_error",
              "prob_sum_error"]
    dev = math.sqrt((q - q * q) / m)
    good = _csv(header, [[m, q, dev, dev, 0.0, 0.0]])
    assert checks.cli_sequential((0, good), q, m) == []
    assert checks.cli_sequential((0, _csv(header, [[m, q + 1e-6, dev, dev, 0.0, 0.0]])), q, m)
    assert checks.cli_sequential((0, _csv(header, [[m, q, dev, dev, 0.0, 1e-6]])), q, m)
    assert checks.cli_sequential((0, good), q, 999)


def _epr(prob, passed="true", post="true"):
    fields = [("pre_first_up", "indefinite"), ("pre_first_down", "indefinite"),
              ("pre_second_up", "indefinite"), ("pre_second_down", "indefinite"),
              ("branch_probability", format(prob, ".17g")), ("post_second_down", post),
              ("passed", passed)]
    return _csv(["field", "value"], fields)


def test_cli_epr():
    alpha = complex(0.6, 0.0)
    assert checks.cli_epr((0, _epr(0.36)), alpha) == []
    assert checks.cli_epr((0, _epr(0.36 + 1e-6)), alpha)
    assert checks.cli_epr((0, _epr(0.36, passed="false")), alpha)
    assert checks.cli_epr((0, _epr(0.36, post="indefinite")), alpha)


def _wigner(pa, pb, consistent="true"):
    header = ["reply", "probability", "product_residual", "composite_truth_a",
              "composite_truth_b", "object_truth_a", "object_truth_b", "consistent"]
    return _csv(header, [["a", pa, 0.0, "true", "false", "true", "false", "true"],
                         ["b", pb, 0.0, "false", "true", "false", "true", consistent]])


def test_cli_wigner():
    alpha, beta = complex(0.6, 0.0), complex(0.0, 0.8)
    assert checks.cli_wigner((0, _wigner(0.36, 0.64)), alpha, beta) == []
    assert checks.cli_wigner((0, _wigner(0.36, 0.64 + 1e-6)), alpha, beta)
    assert checks.cli_wigner((0, _wigner(0.36, 0.64, consistent="false")), alpha, beta)


def _sample(counts, probs):
    n = sum(counts)
    rows = [[i, p, c, c / n, 0.0] for i, (p, c) in enumerate(zip(probs, counts))]
    return _csv(["outcome", "probability", "count", "empirical_freq", "z_score"], rows)


def test_cli_sample():
    probs = [0.1, 0.2, 0.3, 0.4]
    out = _sample([10, 20, 30, 40], probs)
    assert checks.cli_sample((0, out), probs, 100) == []
    assert checks.cli_sample((0, _sample([10, 20, 30, 41], probs)), probs, 100)
    assert checks.cli_sample((0, out), [0.1, 0.2, 0.3, 0.4 + 1e-6], 100)
    assert checks.cli_sample((0, _sample([100, 0, 0, 0], probs)), probs, 100)
    n = 10**7                            # outcome 0 seven sigma high, outcome 3 low
    shift = 7 * math.ceil(math.sqrt(n * 0.1 * 0.9))
    fair = [round(n * p) for p in probs]
    assert checks.cli_sample((0, _sample(fair, probs)), probs, n) == []
    skewed = [fair[0] + shift, fair[1], fair[2], fair[3] - shift]
    assert checks.cli_sample((0, _sample(skewed, probs)), probs, n)


def test_cli_verify_all():
    suites = [{"suite": str(i), "cases": 10, "failures": 0, "max_error": 0.0}
              for i in range(9)]
    good = {"suites": suites, "total_cases": 90, "total_failures": 0}
    assert checks.cli_verify_all((0, json.dumps(good).encode())) == []
    bad = dict(good, total_failures=1)
    assert checks.cli_verify_all((1, json.dumps(bad).encode()))
    assert checks.cli_verify_all((0, json.dumps(dict(good, suites=suites[:8])).encode()))


def test_same_stdout():
    assert checks.same_stdout((0, b"x\n"), None) == []
    assert checks.same_stdout((0, b"x\n"), b"x\n") == []
    assert checks.same_stdout((0, b"x\n"), b"y\n")


def test_tally():
    case = SimpleNamespace(label="c", call=lambda: 1.0, check=lambda out: [])
    tally = run.Tally()
    run.run_case(case, tally)
    assert (tally.attempted, tally.failed) == (1, 0)
    run.run_case(SimpleNamespace(label="w", call=lambda: 2.0,
                                 check=lambda out: ["planted"]), tally)
    assert (tally.attempted, tally.failed) == (2, 1)
    tally = run.Tally()
    assert run.run_case(SimpleNamespace(label="e", call=lambda: 1 / 0,
                                        check=lambda out: []), tally) is None
    assert (tally.attempted, tally.failed) == (1, 1)


def test_slope():
    points = {n: [2e-9 * n**3] for n in (64, 128, 256, 512)}
    assert abs(tracer._slope(points) - 3.0) < 1e-9
    assert tracer._slope({64: [1.0]}) == 0.0


def test_declared_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.UNITS
    sys.path.insert(0, str(run.SRC))
    import workloads   # imports freqop

    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc!r}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
