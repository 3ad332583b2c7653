"""Independent checks of freqop outputs.

Every expected value is computed here from the benchmark's own inputs, by a
closed form, a counting argument or a separate algorithm. Nothing is compared
against a stored copy of earlier output. Each checker returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

IDENTITY_TOL = 1e-12   # absolute, on squared deviations, norms and gaps
EIGEN_TOL = 1e-12      # absolute, on eigenvalues read off basis vectors
SPECTRUM_TOL = 1e-10   # absolute, on eigenvalues from a dense eigensolver
CLI_TOL = 1e-10        # absolute, on values printed by the CLI
SAMPLE_SIGMAS = 6      # binomial standard deviations a sample count may stray


def weight(amps, k: int) -> float:
    """``p = |<k|s>|^2`` in the standard basis."""
    return float(abs(complex(amps[k])) ** 2)


def _close(what: str, got: float, want: float, tol: float) -> list[str]:
    if math.isfinite(got) and abs(got - want) <= tol:
        return []
    return [f"{what}: got {got!r}, want {want!r} (tol {tol:g})"]


def deviation_report(rep, p: float, n: int) -> list[str]:
    """Gram-route report against ``(p - p^2)/N`` and ``(p + (N-1)p^2)/N``."""
    errs = []
    if rep.method != "gram" or rep.n_slots != n:
        errs.append(f"route {rep.method!r} at N={rep.n_slots}, want gram at N={n}")
    errs += _close("p", rep.p, p, IDENTITY_TOL)
    errs += _close("deviation^2", rep.deviation_exact**2, (p - p * p) / n, IDENTITY_TOL)
    errs += _close("applied norm^2", rep.applied_norm**2, (p + (n - 1) * p * p) / n,
                   IDENTITY_TOL)
    return errs


def cauchy_grid(grid, p: float, n_max: int) -> list[str]:
    """Every gap ``[m-1, n-1]`` against ``(1/m - 1/n)(p - p^2)``; NaN below."""
    g = np.asarray(grid, dtype=float)
    if g.shape != (n_max, n_max):
        return [f"grid shape {g.shape}, want {(n_max, n_max)}"]
    m = np.arange(1, n_max + 1, dtype=float)[:, None]
    n = np.arange(1, n_max + 1, dtype=float)[None, :]
    upper = m <= n
    want = (1.0 / m - 1.0 / n) * (p - p * p)
    errs = []
    if not np.all(np.isnan(g[~upper])):
        errs.append("entries below the diagonal are not NaN")
    diff = np.abs(np.where(upper, g - want, 0.0))
    if not np.all(np.isfinite(g[upper])) or float(diff.max()) > IDENTITY_TOL:
        errs.append(f"worst gap error {float(np.nanmax(diff)):.3g} (tol {IDENTITY_TOL:g})")
    return errs


def exact_zero(value) -> list[str]:
    """The tail rule must give an exact complex zero, not a small number."""
    if isinstance(value, complex) and value == 0:
        return []
    return [f"cross overlap {value!r} is not exactly 0j"]


def digit_counts(k: int, n_slots: int, d: int) -> np.ndarray:
    """For each index j < d**N, how many of its N base-d digits equal k."""
    j = np.arange(d**n_slots)
    counts = np.zeros(j.size, dtype=np.int64)
    for _ in range(n_slots):
        counts += (j % d) == k
        j //= d
    return counts


def eigencheck(result, k: int, n_slots: int, d: int) -> list[str]:
    """Eigenvalue of basis vector j is (digits of j equal to k)/N; residual 0."""
    eigs, worst = result
    want = digit_counts(k, n_slots, d) / n_slots
    eigs = np.asarray(eigs, dtype=float)
    if eigs.shape != want.shape:
        return [f"{eigs.shape} eigenvalues, want {want.shape}"]
    errs = []
    err = float(np.max(np.abs(eigs - want)))
    if not err <= EIGEN_TOL:
        errs.append(f"worst eigenvalue error {err:.3g} (tol {EIGEN_TOL:g})")
    if not worst <= EIGEN_TOL:
        errs.append(f"worst residual {worst:.3g} (tol {EIGEN_TOL:g})")
    return errs


def spectrum_multiset(n_slots: int, d: int) -> np.ndarray:
    """Ascending {c/N with multiplicity C(N, c) (d-1)^(N-c)}."""
    return np.repeat(
        np.arange(n_slots + 1) / n_slots,
        [math.comb(n_slots, c) * (d - 1) ** (n_slots - c) for c in range(n_slots + 1)],
    )


def spectrum(eigs, n_slots: int, d: int) -> list[str]:
    want = spectrum_multiset(n_slots, d)
    got = np.sort(np.asarray(eigs, dtype=float))
    if got.shape != want.shape:
        return [f"{got.shape} eigenvalues, want {want.shape}"]
    err = float(np.max(np.abs(got - want)))
    if not err <= SPECTRUM_TOL:
        return [f"worst eigenvalue off the multiset by {err:.3g} (tol {SPECTRUM_TOL:g})"]
    return []


def standard_matrix(mat, k: int, n_slots: int, d: int) -> list[str]:
    """In the standard basis the operator is diag((digits equal to k)/N)."""
    want = np.diag(digit_counts(k, n_slots, d) / n_slots)
    m = np.asarray(mat)
    if m.shape != want.shape:
        return [f"matrix shape {m.shape}, want {want.shape}"]
    err = float(np.max(np.abs(m - want)))
    if not err <= EIGEN_TOL:
        return [f"matrix differs from the diagonal by {err:.3g} (tol {EIGEN_TOL:g})"]
    return []


def dense_deviation(value: float, p: float, n: int) -> list[str]:
    return _close("dense deviation^2", value**2, (p - p * p) / n, IDENTITY_TOL)


def propagator(h: np.ndarray, dt: float) -> np.ndarray:
    """``exp(-i h dt)`` by scaling and squaring a Taylor series (no eigensolver)."""
    a = -1j * dt * np.asarray(h, dtype=np.complex128)
    squarings = max(0, math.ceil(math.log2(max(np.abs(a).sum(axis=1).max(), 1e-300) / 0.25)))
    a = a / 2.0**squarings
    u = np.eye(a.shape[0], dtype=np.complex128)
    term = u.copy()
    for j in range(1, 25):
        term = term @ a / j
        u = u + term
    for _ in range(squarings):
        u = u @ u
    return u


# CLI output checks. Each takes (exit code, stdout bytes).

def _csv_rows(stdout: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(stdout.decode("utf-8"))))


def _exit_ok(code: int) -> list[str]:
    return [] if code == 0 else [f"exit code {code}, want 0"]


def cli_converge(out, p: float, ns=(1, 4, 16, 64)) -> list[str]:
    code, stdout = out
    errs = _exit_ok(code)
    rows = _csv_rows(stdout)
    if [int(r["N"]) for r in rows] != list(ns):
        return errs + [f"rows for N={[r['N'] for r in rows]}, want {list(ns)}"]
    for r in rows:
        n = int(r["N"])
        closed_sq = (p - p * p) / n
        errs += _close(f"N={n} p", float(r["p"]), p, CLI_TOL)
        errs += _close(f"N={n} deviation^2", float(r["deviation_exact"]) ** 2, closed_sq, CLI_TOL)
        errs += _close(f"N={n} closed", float(r["deviation_closed"]), math.sqrt(closed_sq), CLI_TOL)
        errs += _close(f"N={n} norm^2", float(r["norm_fN_sq"]), (p + (n - 1) * p * p) / n, CLI_TOL)
    return errs


def cli_spectrum(out, n_slots: int, d: int) -> list[str]:
    code, stdout = out
    rows = _csv_rows(stdout)
    return _exit_ok(code) + spectrum([float(r["eigenvalue"]) for r in rows], n_slots, d)


def cli_sequential(out, q: float, successions: int) -> list[str]:
    code, stdout = out
    errs = _exit_ok(code)
    rows = _csv_rows(stdout)
    if len(rows) != 1 or int(rows[0]["successions"]) != successions:
        return errs + [f"want one row at {successions} successions, got {rows!r}"]
    r = rows[0]
    errs += _close("q", float(r["q"]), q, CLI_TOL)
    errs += _close("deviation^2", float(r["deviation_exact"]) ** 2, (q - q * q) / successions,
                   CLI_TOL)
    errs += _close("probability sum error", float(r["prob_sum_error"]), 0.0, CLI_TOL)
    return errs


def cli_epr(out, alpha: complex) -> list[str]:
    code, stdout = out
    errs = _exit_ok(code)
    fields = {r["field"]: r["value"] for r in _csv_rows(stdout)}
    want = {
        "pre_first_up": "indefinite", "pre_first_down": "indefinite",
        "pre_second_up": "indefinite", "pre_second_down": "indefinite",
        "post_second_down": "true", "passed": "true",
    }
    errs += [f"{k} = {fields.get(k)!r}, want {v!r}" for k, v in want.items()
             if fields.get(k) != v]
    if "branch_probability" not in fields:
        return errs + ["no branch_probability field"]
    errs += _close("branch probability", float(fields["branch_probability"]),
                   abs(alpha) ** 2, CLI_TOL)
    return errs


def cli_wigner(out, alpha: complex, beta: complex) -> list[str]:
    code, stdout = out
    errs = _exit_ok(code)
    rows = _csv_rows(stdout)
    if [r["reply"] for r in rows] != ["a", "b"]:
        return errs + [f"replies {[r['reply'] for r in rows]}, want ['a', 'b']"]
    for r, w, truth in zip(rows, (alpha, beta), (("true", "false"), ("false", "true"))):
        errs += _close(f"branch {r['reply']} probability", float(r["probability"]),
                       abs(w) ** 2, CLI_TOL)
        got = (r["composite_truth_a"], r["composite_truth_b"],
               r["object_truth_a"], r["object_truth_b"], r["consistent"])
        if got != truth + truth + ("true",):
            errs.append(f"branch {r['reply']} truth values {got}")
    return errs


def cli_sample(out, probabilities, n: int) -> list[str]:
    """Counts sum to n and each lies within ``SAMPLE_SIGMAS`` binomial standard
    deviations of n·p, so a sampler that skews its draws fails."""
    code, stdout = out
    errs = _exit_ok(code)
    rows = _csv_rows(stdout)
    if len(rows) != len(probabilities):
        return errs + [f"{len(rows)} outcomes, want {len(probabilities)}"]
    counts = [int(r["count"]) for r in rows]
    if sum(counts) != n:
        errs.append(f"counts sum to {sum(counts)}, want {n}")
    for i, (r, p) in enumerate(zip(rows, probabilities)):
        errs += _close(f"outcome {i} probability", float(r["probability"]), p, CLI_TOL)
        if float(r["empirical_freq"]) != counts[i] / n:
            errs.append(f"outcome {i} frequency {r['empirical_freq']} is not count/n")
        sigma = math.sqrt(n * p * (1.0 - p))
        if abs(counts[i] - n * p) > SAMPLE_SIGMAS * sigma:
            errs.append(f"outcome {i} count {counts[i]} is more than {SAMPLE_SIGMAS} sigma "
                        f"({sigma:.4g}) from n*p = {n * p:.6g}")
    return errs


def cli_verify_all(out) -> list[str]:
    code, stdout = out
    errs = _exit_ok(code)
    summary = json.loads(stdout)
    cases = sum(s["cases"] for s in summary["suites"])
    if summary["total_failures"] != 0:
        errs.append(f"verify-all reports {summary['total_failures']} failures")
    if len(summary["suites"]) != 9 or summary["total_cases"] != cases or cases == 0:
        errs.append(f"{len(summary['suites'])} suites with {summary['total_cases']} cases")
    return errs


def same_stdout(out, first: bytes | None) -> list[str]:
    """Identical invocations must print byte-identical stdout."""
    if first is None or out[1] == first:
        return []
    return ["stdout differs from the first identical invocation"]
