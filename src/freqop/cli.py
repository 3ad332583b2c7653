"""Command line interface.

Data goes to stdout (CSV by default, JSON on request), diagnostics to
stderr. Exit codes: 0 all checks passed, 1 a verification failed, 2
malformed input, 3 an internal error (traceback on stderr). Floats in CSV
carry 17 significant digits, so values round-trip exactly. ``converge`` and
``sample`` share the preparation options ``--state FILE`` or ``--amps``
(exactly one), ``--normalize`` and ``--basis FILE``.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import enum
import functools
import importlib
import itertools
import json
import math
import sys
import traceback

import click

from . import io
from .hilbert import DEFAULT_SEED, SEED_MAX, SPECTRUM_TOL, VERIFY_TOL, StateVector, judge

SCHEMA_VERSION = 1


def _lazy(module: str, name: str):
    """``module.name``, imported at its first call, so a command loads only
    the route it runs; each call reads whatever the module then binds."""
    def call(*args, **kwargs):
        route = importlib.import_module(f".{module}", __package__)
        return getattr(route, name)(*args, **kwargs)
    return call


FrequencySpec = _lazy("frequency", "FrequencySpec")
deviation_norm = _lazy("frequency", "deviation_norm")
dense_spectrum = _lazy("oracle", "dense_spectrum")
max_abs_z = _lazy("sampling", "max_abs_z")
sample_ensemble = _lazy("sampling", "sample_ensemble")
epr_check = _lazy("scenarios", "epr_check")
wigner_friend_check = _lazy("scenarios", "wigner_friend_check")
SequentialSpec = _lazy("sequential", "SequentialSpec")
succession_frequency = _lazy("sequential", "succession_frequency")
succession_probabilities = _lazy("sequential", "succession_probabilities")
run_all = _lazy("verify", "run_all")


def _cell(v) -> str:
    """``v`` as one CSV cell: a float in 17 significant digits, a complex as
    ``re±imj``, an enum by its value, a bool in lower case."""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return format(float(v), ".17g")
    if isinstance(v, complex):
        return f"{v.real:.17g}{v.imag:+.17g}j"
    if isinstance(v, enum.Enum):
        return v.value
    return str(v)


def _plain(x):
    """``x`` as JSON data: a dataclass by its fields, an enum by its value, a
    tuple as a list, a non-finite float as ``None`` (JSON has no NaN)."""
    if dataclasses.is_dataclass(x):
        return {f.name: _plain(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, enum.Enum):
        return x.value
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def _columns(rep) -> dict:
    """A report's fields as named columns; a tuple field spreads over
    ``name_a``, ``name_b``, ..."""
    cols = {}
    for f in dataclasses.fields(rep):
        v = getattr(rep, f.name)
        if isinstance(v, tuple):
            cols.update((f"{f.name}_{chr(ord('a') + i)}", x) for i, x in enumerate(v))
        else:
            cols[f.name] = v
    return cols


def _emit(fmt: str, header: list[str], rows: list[list], payload: dict) -> None:
    """Write ``rows`` under ``header`` as CSV, or ``payload`` as versioned JSON."""
    if fmt == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(header)
        for row in rows:
            w.writerow([_cell(v) for v in row])
    else:
        doc = _plain({"schema_version": SCHEMA_VERSION, **payload})
        click.echo(json.dumps(doc, indent=2, allow_nan=False))


def _table(fmt: str, command: str, header: list[str], rows: list[list], **fields) -> None:
    """Emit a table whose JSON form is ``{"command", **fields, "rows": [...]}``."""
    records = [dict(zip(header, row)) for row in rows]
    _emit(fmt, header, rows, {"command": command, **fields, "rows": records})


def _verdict(line: str, ok: bool) -> None:
    """Write the summary ``line`` to stderr; exit 1 when the check failed."""
    click.echo(line, err=True)
    if not ok:
        sys.exit(1)


def _judged(line: str, errors: list[float], tolerance: float) -> None:
    """Judge ``errors`` by `hilbert.judge` and end the summary ``line`` with
    the verdict; in ``line``, ``{worst}`` is the worst error and ``{0}``,
    ``{1}``, ... the errors themselves."""
    _, failures, worst = judge(errors, tolerance)
    _verdict(f"{line.format(*errors, worst=worst)} "
             f"({'FAIL' if failures else 'pass'} at {tolerance:g})", not failures)


_DEVIATIONS = ["deviation_exact", "deviation_closed", "abs_error"]


def _deviation_row(rep) -> list:
    """N, p, the two deviations of ``rep`` and their squared mismatch: the
    columns ``converge`` and ``sequential`` share."""
    return [rep.n_slots, rep.p, rep.deviation_exact, rep.deviation_closed,
            abs(rep.deviation_exact**2 - rep.deviation_closed**2)]


@contextlib.contextmanager
def _usage_errors():
    """Report a ``ValueError`` or ``OSError`` from reading input as exit 2."""
    try:
        yield
    except (ValueError, OSError) as exc:
        raise click.UsageError(str(exc)) from exc


def _parse_complex(text: str, what: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise click.UsageError(f'{what} must be "re" or "re,im", got {text!r}')


def _parse_amps(text: str) -> list[complex]:
    entries = [e for e in text.split(";") if e.strip()]
    if not entries:
        raise click.UsageError("--amps is empty")
    return [_parse_complex(e, f"--amps entry {i}") for i, e in enumerate(entries)]


def _parse_ns(text: str) -> list[int]:
    try:
        ns = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise click.UsageError(f"--ns must be comma-separated integers, got {text!r}")
    if not ns or any(n < 1 for n in ns):
        raise click.UsageError("--ns needs at least one positive integer")
    return ns


def _preparation(command):
    """Add the options ``converge`` and ``sample`` share to prepare a state.

    The command is called with the loaded state ``s`` and measurement
    ``basis`` (None for the standard basis) in place of those options.
    """
    @click.option("--state", "state_path", type=click.Path(), help="State JSON file.")
    @click.option("--amps", help='Inline amplitudes "re,im;re,im;...".')
    @click.option("--normalize", is_flag=True, help="Rescale the input to unit norm.")
    @click.option("--basis", "basis_path", type=click.Path(),
                  help="Measurement basis as a unitary matrix JSON file.")
    @functools.wraps(command)
    def load(state_path, amps, normalize, basis_path, **kwargs):
        if (state_path is None) == (amps is None):
            raise click.UsageError("provide exactly one of --state or --amps")
        with _usage_errors():
            if state_path is not None:
                s = io.load_state(state_path, normalize=normalize)
            else:
                s = StateVector(_parse_amps(amps), normalize=normalize)
            basis = None if basis_path is None else io.load_unitary(basis_path)
        return command(s=s, basis=basis, **kwargs)
    return load


class _Tolerance(click.ParamType):
    """A finite, non-negative float; ``nan`` would pass every check."""

    name = "float"

    def convert(self, value, param, ctx):
        x = click.FLOAT.convert(value, param, ctx)
        if not (math.isfinite(x) and x >= 0.0):
            self.fail(f"{value!r} is not a finite, non-negative number", param, ctx)
        return x


TOLERANCE = _Tolerance()

format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(["csv", "json"]),
    default="csv",
    show_default=True,
    help="Output format on stdout.",
)


class _Group(click.Group):
    def main(self, *args, **kwargs):
        """Run a command; an exception it does not handle exits 3, not 1."""
        try:
            return super().main(*args, **kwargs)
        except Exception:
            click.echo(traceback.format_exc(), err=True, nl=False)
            sys.exit(3)


@click.group(cls=_Group)
def main():
    """Frequency-operator verification toolkit.

    Checks that outcome frequencies over growing ensembles of identically
    prepared systems converge to squared amplitudes, plus the companion
    conditioning and sampling demonstrations.
    """


@main.command()
@_preparation
@click.option("--k", type=int, required=True, help="Counted outcome index.")
@click.option("--ns", default="1,4,16,64", show_default=True,
              help="Comma-separated ensemble sizes.")
@click.option("--tolerance", type=TOLERANCE, default=VERIFY_TOL, show_default=True,
              help="Absolute tolerance on the squared-deviation identity.")
@format_option
def converge(s, basis, k, ns, tolerance, fmt):
    """Deviation-identity table over ensemble sizes.

    \b
    Example: freqop converge --amps "0.70710678118654752,0;0.70710678118654752,0" --k 0

    One row per ensemble size N: the measured deviation of the frequency
    image from p times the ensemble, the closed form sqrt((p-p^2)/N), and
    their squared-value mismatch. Exits 1 when a mismatch exceeds the
    tolerance.
    """
    sizes = _parse_ns(ns)
    with _usage_errors():
        reports = [
            deviation_norm(FrequencySpec(k, n, basis), s) for n in sizes
        ]
    rows = [[*_deviation_row(rep), rep.applied_norm**2] for rep in reports]
    header = ["N", "p", *_DEVIATIONS, "norm_fN_sq"]
    _table(fmt, "converge", header, rows, k=k, tolerance=tolerance)
    _judged("converge: worst |deviation^2 - closed^2| = {worst:.3g}",
            [row[4] for row in rows], tolerance)


@main.command()
@click.option("--dim", "-d", type=int, required=True, help="Slot dimension.")
@click.option("--slots", type=int, required=True, help="Number of slots N.")
@click.option("--k", type=int, required=True, help="Counted outcome index.")
@click.option("--tolerance", type=TOLERANCE, default=SPECTRUM_TOL, show_default=True,
              help="Containment tolerance for eigenvalues.")
@format_option
def spectrum(dim, slots, k, tolerance, fmt):
    """Eigenvalues of the dense N-slot frequency operator.

    Example: freqop spectrum -d 2 --slots 4 --k 0

    Every eigenvalue must sit on the grid {0, 1/N, ..., 1}; exits 1
    otherwise. Sizes with d**N above the dense-matrix cap, or N above 20,
    are rejected.
    """
    with _usage_errors():
        eigs = dense_spectrum(k, slots, dim)
    rows = []
    for i, lam in enumerate(eigs):
        nearest = round(float(lam) * slots) / slots
        rows.append([i, float(lam), float(nearest), abs(float(lam) - nearest)])
    header = ["index", "eigenvalue", "nearest_grid", "abs_error"]
    _table(fmt, "spectrum", header, rows, dim=dim, slots=slots, k=k)
    _judged("spectrum: worst off-grid distance = {worst:.3g}",
            [row[3] for row in rows], tolerance)


@main.command()
@click.option("--hamiltonian", "h_path", type=click.Path(), required=True,
              help="Hermitian matrix JSON file.")
@click.option("--dt", type=float, required=True, help="Evolution time step.")
@click.option("--m", type=int, required=True, help="Prepared record index.")
@click.option("--n", type=int, required=True, help="Succeeding record index.")
@click.option("--successions", type=int, default=1000, show_default=True,
              help="Ensemble length M.")
@click.option("--tolerance", type=TOLERANCE, default=VERIFY_TOL, show_default=True,
              help="Absolute tolerance on the squared-deviation identity.")
@format_option
def sequential(h_path, dt, m, n, successions, tolerance, fmt):
    """Succession-frequency check for an evolve-and-record ensemble.

    Example: freqop sequential --hamiltonian h.json --dt 0.785398 --m 0 --n 1

    Reports q = |<n|U|m>|^2, the measured and closed-form deviations at M
    successions, and the completeness error of the full q distribution.
    Exits 1 when the identity or completeness fails the tolerance.
    """
    with _usage_errors():
        h = io.load_hermitian(h_path)
        spec = SequentialSpec(h, dt, m, n, successions)
        rep = succession_frequency(spec)
    q_all = succession_probabilities(h, dt, m)
    header = ["successions", "q", *_DEVIATIONS, "prob_sum_error"]
    row = [*_deviation_row(rep), abs(float(q_all.sum()) - 1.0)]
    _emit(fmt, header, [row], {
        "command": "sequential",
        "dt": dt,
        "m": m,
        "n": n,
        "row": dict(zip(header, row)),
    })
    _judged("sequential: identity error {0:.3g}, probability sum error {1:.3g}",
            row[4:], tolerance)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@main.command()
@click.option("--alpha", default=f"{_INV_SQRT2!r}", show_default=True,
              help='Weight of |up down>, as "re" or "re,im".')
@click.option("--beta", default=f"{_INV_SQRT2!r}", show_default=True,
              help='Weight of |down up>, as "re" or "re,im".')
@format_option
def epr(alpha, beta, fmt):
    """Correlated-pair conditioning check.

    Example: freqop epr --format json

    Before conditioning every single-particle spin proposition must be
    indefinite, or the pair is refused; after conditioning the first spin on
    "up" the pair must be the product |up>|down>, with "second spin down"
    true. Exits 1 if that fails.
    """
    a = _parse_complex(alpha, "--alpha")
    b = _parse_complex(beta, "--beta")
    with _usage_errors():
        rep = epr_check(a, b)
    # epr's JSON holds each value as its CSV cell, a string
    pairs = [(name, _cell(v)) for name, v in _columns(rep).items()]
    _emit(fmt, ["field", "value"], pairs, {"command": "epr", **dict(pairs)})
    _verdict(f"epr: {'pass' if rep.passed else 'FAIL'}", rep.passed)


@main.command()
@click.option("--alpha", default=f"{_INV_SQRT2!r}", show_default=True,
              help='Weight of the |a>|A> branch, as "re" or "re,im".')
@click.option("--beta", default=f"{_INV_SQRT2!r}", show_default=True,
              help='Weight of the |b>|B> branch, as "re" or "re,im".')
@format_option
def wigner(alpha, beta, fmt):
    """Observed-observer consistency check.

    Example: freqop wigner --alpha "0.6" --beta "0.8"

    Conditions the sealed-laboratory state on each surviving record and
    compares, branch by branch, the truth values the outside and inside
    descriptions assign to the object propositions. Exits 1 on any
    disagreement.
    """
    a = _parse_complex(alpha, "--alpha")
    b = _parse_complex(beta, "--beta")
    with _usage_errors():
        rep = wigner_friend_check(a, b)
    columns = [_columns(br) for br in rep.branches]  # never empty: the weights sum to 1
    # unlike epr's, the JSON report leaves out the inputs alpha and beta
    report = {k: v for k, v in _plain(rep).items() if k not in ("alpha", "beta")}
    _emit(fmt, list(columns[0]), [list(c.values()) for c in columns],
          {"command": "wigner", **report})
    _verdict(f"wigner: {'pass' if rep.passed else 'FAIL'}", rep.passed)


@main.command()
@_preparation
@click.option("--n", "n_samples", type=int, default=10**6, show_default=True,
              help="Number of draws.")
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True,
              help="Counter-based generator key; same seed, same record.")
@format_option
def sample(s, basis, n_samples, seed, fmt):
    """Seeded Monte Carlo draws from a preparation.

    Example: freqop sample --amps "0.6;0.8" --n 100000 --seed 7

    One row per outcome: weight, count, empirical frequency, z-score.
    Deterministic for a fixed seed.
    """
    with _usage_errors():
        record = sample_ensemble(s, n_samples, seed, basis)
    header = ["outcome", "probability", "count", "empirical_freq", "z_score"]
    rows = list(zip(itertools.count(), record.probabilities, record.counts,
                    record.empirical_freq, record.z_scores))
    _table(fmt, "sample", header, rows, seed=record.seed, n_samples=record.n_samples)
    click.echo(f"sample: n={n_samples} seed={seed} max|z|={max_abs_z(record):.3g}",
               err=True)


@main.command(name="verify-all")
@click.option("--seed", type=click.IntRange(0, SEED_MAX), default=DEFAULT_SEED,
              show_default=True, help="Seed for every randomized suite.")
@click.option("--tolerance", type=TOLERANCE, default=None,
              help="Override the identity-suite tolerances (exact-zero and "
                   "statistical suites keep their own).")
def verify_all(seed, tolerance):
    """Run every invariant suite and emit a JSON summary.

    Example: freqop verify-all --seed 42

    Output is byte-identical for identical arguments. Exits 0 only when
    every suite reports zero failures.
    """
    results = run_all(seed=seed, tolerance=tolerance)
    total_cases = sum(r.cases for r in results)
    total_failures = sum(r.failures for r in results)
    _emit("json", [], [], {
        "command": "verify-all",
        "seed": seed,
        "tolerance": tolerance,
        "suites": results,
        "total_cases": total_cases,
        "total_failures": total_failures,
    })
    _verdict(f"verify-all: {total_failures} failures across {total_cases} cases",
             not total_failures)


if __name__ == "__main__":
    main()
