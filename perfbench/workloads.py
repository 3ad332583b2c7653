"""Seeded inputs and the cases of one round, for each workload.

A round is a fixed list of cases; every round of a run repeats it. One case
is one public freqop call or one ``python -m freqop`` invocation, with a
check of its output. The seed picks amplitudes, outcomes, bases,
Hamiltonians and sampling keys; the sizes are fixed, so the work of a round
does not depend on the seed.

The size mixes decide where the median and the 90th percentile of the case
times fall; README.md says where and why.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import freqop
import reference


@dataclass(frozen=True)
class Case:
    label: str                           # the same in every round
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    span: str = "case"                   # root span name in the traced run


def _rng(seed: int, lane: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, lane]))


def _amps(d: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return a / np.linalg.norm(a)


def _unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _state(d: int, rng: np.random.Generator):
    a = _amps(d, rng)
    return freqop.StateVector(a), a


def _distinct_state(amps: np.ndarray, rng: np.random.Generator):
    # cross_orthogonality rejects rays the tail rule cannot separate
    while True:
        s, a = _state(amps.size, rng)
        if abs(np.vdot(amps, a)) < 1.0 - 1e-6:
            return s


def _ladder(lo: int, hi: int, steps: int) -> tuple[int, ...]:
    return tuple(round(lo * (hi / lo) ** (i / (steps - 1))) for i in range(steps))


GOLDEN = (5 ** 0.5 - 1) / 2


def interleave(cases: list[Case]) -> list[Case]:
    """The round's order: case i of the built list goes to the place of
    ``i * GOLDEN mod 1``, so neighbours in the list (equal or similar cost)
    run far apart and every stretch of the list is spread evenly over the
    round. A percentile then pools calls made at many moments of the run,
    not one burst per round. The order is fixed; the seed does not move it."""
    return [cases[i] for i in sorted(range(len(cases)), key=lambda i: (i * GOLDEN) % 1.0)]


# gram-sweep ---------------------------------------------------------------

# The crossover sweep: N = 8 .. 512 in 25 geometric steps, d cycling through
# 2..5. Two denser ladders sit where the median (P50_NS) and the 90th
# percentile (P90_NS) of the case times fall, so that each percentile lies
# inside a smooth run of many different costs, sampled many times per run:
# the host runs small gram calls at one of two speeds, and a percentile that
# rests on a few calls, or on calls of one cost, flips between them.
GRAM_NS = _ladder(8, 512, 26)
P50_NS = _ladder(30, 100, 120)
P90_NS = _ladder(110, 180, 40)
CAUCHY = ((2, 16), (3, 32), (4, 64), (5, 128))          # (d, n_max)
CROSS = ((3, 32), (4, 64), (5, 128), (2, 192), (3, 256))  # (d, N = M)


def gram_sweep(seed: int) -> list[Case]:
    rng = _rng(seed, 1)
    cases = []

    def deviation(d, n, s, k, p):
        cases.append(Case(
            f"deviation_norm d={d} N={n}",
            lambda: freqop.deviation_norm(freqop.FrequencySpec(k, n), s, method="gram"),
            lambda rep: checks.deviation_report(rep, p, n)))

    for i, n in enumerate(GRAM_NS + P50_NS + P90_NS):
        d = 2 + i % 4
        s, a = _state(d, rng)
        k = int(rng.integers(d))
        deviation(d, n, s, k, checks.weight(a, k))
    for d, n_max in CAUCHY:
        s, a = _state(d, rng)
        k = int(rng.integers(d))
        p = checks.weight(a, k)
        cases.append(Case(
            f"cauchy_gap_grid d={d} n_max={n_max}",
            lambda s=s, k=k, n_max=n_max: freqop.cauchy_gap_grid(k, s, n_max),
            lambda g, p=p, n_max=n_max: checks.cauchy_grid(g, p, n_max)))
    for d, n in CROSS:
        s, a = _state(d, rng)
        s2 = _distinct_state(a, rng)
        k = int(rng.integers(d))
        cases.append(Case(
            f"cross_orthogonality d={d} N={n}",
            lambda s=s, s2=s2, k=k, n=n: freqop.cross_orthogonality(k, n, n, s, s2),
            checks.exact_zero))
    return cases


# dense-oracle -------------------------------------------------------------

EIGENCHECK = ((2, 8), (3, 6), (2, 10), (2, 12), (3, 8))   # (d, N)
SPECTRUM = ((2, 8), (3, 6), (2, 10))
MATRIX = ((2, 8), (3, 6), (4, 5), (2, 10))
DEVIATION = (
    ((2, 4), (2, 8), (2, 12), (2, 16), (3, 4), (3, 8), (4, 4), (4, 8), (5, 4), (5, 8))
    + ((3, 12),) * 4 + ((4, 10),) * 5 + ((2, 20),) * 4
)


def dense_oracle(seed: int) -> list[Case]:
    rng = _rng(seed, 2)
    cases = []
    for d, n in EIGENCHECK:
        k = int(rng.integers(d))
        cases.append(Case(
            f"eigencheck_standard_basis d={d} N={n}",
            lambda k=k, n=n, d=d: freqop.eigencheck_standard_basis(k, n, d),
            lambda r, k=k, n=n, d=d: checks.eigencheck(r, k, n, d)))
    for d, n in SPECTRUM:
        k = int(rng.integers(d))
        basis = freqop.UnitaryMatrix(_unitary(d, rng))
        cases.append(Case(
            f"dense_spectrum d={d} N={n}",
            lambda k=k, n=n, d=d, basis=basis: freqop.dense_spectrum(k, n, d, basis),
            lambda e, n=n, d=d: checks.spectrum(e, n, d)))
    for d, n in MATRIX:
        k = int(rng.integers(d))
        cases.append(Case(
            f"dense_frequency_matrix d={d} N={n}",
            lambda k=k, n=n, d=d: freqop.dense_frequency_matrix(k, n, d),
            lambda m, k=k, n=n, d=d: checks.standard_matrix(m, k, n, d)))
    for d, n in DEVIATION:
        s, a = _state(d, rng)
        k = int(rng.integers(d))
        p = checks.weight(a, k)
        cases.append(Case(
            f"dense_deviation d={d} N={n}",
            lambda s=s, k=k, n=n: freqop.dense_deviation(s, k, n),
            lambda v, p=p, n=n: checks.dense_deviation(v, p, n)))
    return cases


# cli-suite ----------------------------------------------------------------

SAMPLE_DRAWS = 10**7
SUCCESSIONS = 1000        # the sequential command's default
SPECTRUM_ARGS = (2, 10)   # -d 2 --slots 10


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _pairs(v) -> list:
    return [[float(z.real), float(z.imag)] for z in v]


def _complex_arg(z: complex) -> str:
    return f"{z.real!r},{z.imag!r}"


def _weights(rng: np.random.Generator) -> tuple[complex, complex]:
    while True:
        a = _amps(2, rng)
        if min(abs(a)) > 0.05:
            return complex(a[0]), complex(a[1])


class CliInvoker:
    """Runs one CLI invocation: a fresh ``python -m freqop`` process, or,
    for the traced run, the click command group in this process."""

    def __init__(self, root: Path, env: dict, in_process: bool):
        self.root = root
        self.env = env
        self.in_process = in_process
        if in_process:
            from click.testing import CliRunner

            import freqop.cli
            self._runner = CliRunner()
            self._group = freqop.cli.main

    def __call__(self, args: list[str]) -> tuple[int, bytes]:
        if self.in_process:
            res = self._runner.invoke(self._group, args)
            if res.exception is not None and not isinstance(res.exception, SystemExit):
                raise res.exception
            return res.exit_code, res.stdout_bytes
        proc = subprocess.run([sys.executable, "-m", "freqop", *args], cwd=self.root,
                              env=self.env, capture_output=True, timeout=120)
        return proc.returncode, proc.stdout


def cli_suite(seed: int, workdir: Path, invoke: CliInvoker) -> list[Case]:
    rng = _rng(seed, 3)
    first_stdout: dict[tuple, bytes] = {}
    cases = []

    def add(args: list[str], check):
        key = tuple(args)

        def checked(out):
            errs = check(out) + checks.same_stdout(out, first_stdout.get(key))
            first_stdout.setdefault(key, out[1])
            return errs

        cases.append(Case(f"cli {args[0]}", lambda: invoke(args), checked, f"cli.{args[0]}"))

    add(["verify-all", "--seed", str(seed)], checks.cli_verify_all)
    d, n = SPECTRUM_ARGS
    add(["spectrum", "-d", str(d), "--slots", str(n), "--k", str(int(rng.integers(d)))],
        lambda out, n=n, d=d: checks.cli_spectrum(out, n, d))
    for j in range(3):
        a = _amps(4, rng)
        path = _write(workdir / f"sample{j}.json", {"dim": 4, "amps": _pairs(a)})
        probs = [checks.weight(a, i) for i in range(4)]
        add(["sample", "--state", path, "--n", str(SAMPLE_DRAWS),
             "--seed", str(int(rng.integers(2**32)))],
            lambda out, probs=probs: checks.cli_sample(out, probs, SAMPLE_DRAWS))
    for j, d in enumerate((2, 3, 4, 5, 2)):
        a = _amps(d, rng)
        k = int(rng.integers(d))
        path = _write(workdir / f"converge{j}.json", {"dim": d, "amps": _pairs(a)})
        add(["converge", "--state", path, "--k", str(k)],
            lambda out, p=checks.weight(a, k): checks.cli_converge(out, p))
    for j, d in enumerate((2, 3, 4, 2, 3)):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = (g + g.conj().T) / 2.0
        dt = float(rng.uniform(0.1, 1.5))
        m, nn = (int(x) for x in rng.integers(d, size=2))
        path = _write(workdir / f"hamiltonian{j}.json",
                      {"dim": d, "rows": [_pairs(row) for row in h]})
        q = float(abs(checks.propagator(h, dt)[nn, m]) ** 2)
        add(["sequential", "--hamiltonian", path, "--dt", repr(dt), "--m", str(m),
             "--n", str(nn)],
            lambda out, q=q: checks.cli_sequential(out, q, SUCCESSIONS))
    for _ in range(5):
        alpha, beta = _weights(rng)
        add(["epr", "--alpha", _complex_arg(alpha), "--beta", _complex_arg(beta)],
            lambda out, alpha=alpha: checks.cli_epr(out, alpha))
    for _ in range(5):
        alpha, beta = _weights(rng)
        add(["wigner", "--alpha", _complex_arg(alpha), "--beta", _complex_arg(beta)],
            lambda out, alpha=alpha, beta=beta: checks.cli_wigner(out, alpha, beta))
    return cases


WORKLOADS = ("gram-sweep", "dense-oracle", "cli-suite")

# The reference code that runs most like each workload's cases (reference.py).
REFERENCE = {
    "gram-sweep": reference.python_loop,
    "dense-oracle": reference.numpy_vector,
    "cli-suite": reference.interpreter,
}


def build(workload: str, seed: int, workdir: Path, invoke: CliInvoker) -> list[Case]:
    """The cases of one round; input files go to ``workdir``."""
    if workload == "cli-suite":
        return interleave(cli_suite(seed, workdir, invoke))
    return interleave({"gram-sweep": gram_sweep, "dense-oracle": dense_oracle}[workload](seed))
