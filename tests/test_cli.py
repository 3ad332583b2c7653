import csv
import importlib
import io as _io
import json
import math
import shlex
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from freqop.cli import main
from freqop.io import matrix_to_dict, strict_loads


@pytest.fixture
def runner():
    return CliRunner()


def _rows(stdout):
    return list(csv.reader(_io.StringIO(stdout)))


HALF_AMPS = "0.70710678118654752,0;0.70710678118654752,0"


def test_converge_csv_halving(runner):
    result = runner.invoke(main, ["converge", "--amps", HALF_AMPS, "--k", "0"])
    assert result.exit_code == 0
    rows = _rows(result.stdout)
    assert rows[0] == ["N", "p", "deviation_exact", "deviation_closed",
                       "abs_error", "norm_fN_sq"]
    ns = [int(r[0]) for r in rows[1:]]
    assert ns == [1, 4, 16, 64]
    devs = [float(r[2]) for r in rows[1:]]
    for a, b in zip(devs, devs[1:]):
        assert abs(a / b - 2.0) <= 1e-8


def test_converge_json(runner):
    result = runner.invoke(
        main,
        ["converge", "--amps", "0.6;0.8", "--k", "1", "--ns", "2,8",
         "--format", "json"],
    )
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["schema_version"] == 1
    assert [row["N"] for row in payload["rows"]] == [2, 8]
    assert payload["rows"][0]["p"] == pytest.approx(0.64)


def test_converge_tight_tolerance_fails(runner):
    result = runner.invoke(
        main,
        ["converge", "--amps", "0.6;0.8", "--k", "0", "--tolerance", "0"],
    )
    assert result.exit_code == 1


def test_converge_reports_a_route_error_as_a_failed_check(runner, monkeypatch):
    # the failure path must not depend on how the route happens to round
    from freqop.frequency import deviation_norm

    def off_by_1e6(spec, s):
        rep = deviation_norm(spec, s)
        return replace(rep, deviation_exact=math.sqrt(rep.deviation_closed**2 + 1e-6))

    monkeypatch.setattr("freqop.frequency.deviation_norm", off_by_1e6)
    result = runner.invoke(main, ["converge", "--amps", "0.6;0.8", "--k", "0"])
    assert result.exit_code == 1
    assert "FAIL at 1e-10" in result.stderr
    errors = [float(r[4]) for r in _rows(result.stdout)[1:]]
    assert len(errors) == 4
    assert all(abs(e - 1e-6) <= 1e-12 for e in errors)


def test_a_nan_route_error_fails_verify_all_and_converge(runner, monkeypatch, tmp_path):
    # nan > tol is False and max(0.0, nan) is 0.0, so a NaN must be judged
    # as a failure on purpose, not left to vanish from the count
    from freqop.frequency import deviation_norm

    def nan_route(spec, s, **kwargs):
        return replace(deviation_norm(spec, s, **kwargs), deviation_exact=math.nan)

    monkeypatch.setattr("freqop.verify.deviation_norm", nan_route)
    result = runner.invoke(main, ["verify-all"])
    assert result.exit_code == 1
    # the NaN worst error is written as JSON null, which a strict parser reads
    suites = {r["suite"]: r for r in strict_loads(result.stdout)["suites"]}
    assert suites["deviation-identity"]["failures"] > 0
    assert suites["deviation-identity"]["max_error"] is None
    monkeypatch.setattr("freqop.frequency.deviation_norm", nan_route)
    result = runner.invoke(main, ["converge", "--amps", "0.6;0.8", "--k", "0"])
    assert result.exit_code == 1
    assert "FAIL" in result.stderr
    # no golden file pins how CSV spells a NaN
    header, *rows = _rows(result.stdout)
    for row in rows:
        cells = dict(zip(header, row))
        assert cells["deviation_exact"] == cells["abs_error"] == "nan"
    result = runner.invoke(main, ["converge", "--amps", "0.6;0.8", "--k", "0",
                                  "--format", "json"])
    assert result.exit_code == 1
    rows = strict_loads(result.stdout)["rows"]
    assert all(r["deviation_exact"] is None and r["abs_error"] is None for r in rows)
    monkeypatch.setattr("freqop.sequential.deviation_norm", nan_route)
    path = tmp_path / "h.json"
    path.write_text(json.dumps({
        "dim": 2,
        "rows": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
    }))
    result = runner.invoke(main, ["sequential", "--hamiltonian", str(path), "--dt", "0.5",
                                  "--m", "0", "--n", "1", "--successions", "4"])
    assert result.exit_code == 1
    assert "FAIL" in result.stderr


def test_converge_rejects_missing_outcome(runner):
    result = runner.invoke(main, ["converge", "--amps", HALF_AMPS])
    assert result.exit_code == 2


def test_converge_rejects_two_state_sources(runner, tmp_path):
    path = tmp_path / "s.json"
    path.write_text('{"dim": 1, "amps": [[1.0, 0.0]]}')
    result = runner.invoke(
        main,
        ["converge", "--state", str(path), "--amps", HALF_AMPS, "--k", "0"],
    )
    assert result.exit_code == 2


def test_converge_rejects_bad_amps(runner):
    result = runner.invoke(main, ["converge", "--amps", "zero;one", "--k", "0"])
    assert result.exit_code == 2


@pytest.mark.parametrize("amps, ns", [
    ("0.6;;0.8", "1,4"), ("0.6;0.8;", "1,4"), (";0.6;0.8", "1,4"),
    ("0.6;0.8", "1,,4"), ("0.6;0.8", "4,"),
])
def test_an_empty_amps_or_ns_entry_is_refused(runner, amps, ns):
    # a dropped entry made a missing amplitude into another normalized state
    args = ["converge", "--amps", amps, "--k", "0", "--ns", ns]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, args
    assert result.stdout == ""


def test_a_matrix_file_of_short_rows_is_refused_before_allocating(runner, tmp_path):
    # the 25000 x 25000 array (9.3 GiB) was allocated before row 0 was read
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"dim": 25000, "rows": [[]] * 25000}))
    for args in (["sequential", "--hamiltonian", str(path), "--dt", "0.5", "--m", "0",
                  "--n", "1"],
                 ["converge", "--amps", "0.6;0.8", "--k", "0", "--basis", str(path)],
                 ["sample", "--amps", "0.6;0.8", "--basis", str(path)]):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, args
        assert result.stdout == ""
        assert "Error: row 0 must be a list of 25000 [re, im] pairs\n" in result.stderr


def test_converge_rejects_a_basis_of_another_dimension(runner, tmp_path):
    path = tmp_path / "u.json"
    path.write_text(json.dumps(matrix_to_dict(np.eye(3))))
    result = runner.invoke(main, ["converge", "--amps", "0.6;0.8", "--basis", str(path),
                                  "--k", "0"])
    assert result.exit_code == 2
    assert "basis dim 3 does not match state dim 2" in result.stderr


def test_converge_names_an_outcome_past_the_basis_as_without_one(runner, tmp_path):
    path = tmp_path / "u.json"
    path.write_text(json.dumps(matrix_to_dict(np.eye(2))))
    for extra in ([], ["--basis", str(path)]):
        result = runner.invoke(main, ["converge", "--amps", "0.6;0.8", "--k", "2", *extra])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "Error: outcome 2 out of range for dim 2\n" in result.stderr


def test_converge_rejects_non_finite_state_file(runner, tmp_path):
    path = tmp_path / "s.json"
    path.write_text('{"dim": 1, "amps": [[NaN, 0.0]]}')
    result = runner.invoke(main, ["converge", "--state", str(path), "--k", "0"])
    assert result.exit_code == 2


def test_converge_normalize_gate(runner):
    args = ["converge", "--amps", "1,0;1,0", "--k", "0"]
    assert runner.invoke(main, args).exit_code == 2
    assert runner.invoke(main, args + ["--normalize"]).exit_code == 0


def test_spectrum_grid(runner):
    result = runner.invoke(main, ["spectrum", "-d", "2", "--slots", "4", "--k", "0"])
    assert result.exit_code == 0
    rows = _rows(result.stdout)[1:]
    assert len(rows) == 16
    assert all(float(r[3]) <= 1e-9 for r in rows)


def test_spectrum_sits_on_the_grid_exactly(runner):
    # j/N rounded once is the nearest grid point of itself
    for d, n, k in (("2", "10", "1"), ("2", "7", "0"), ("3", "5", "2")):
        args = ["spectrum", "-d", d, "--slots", n, "--k", k, "--tolerance", "0"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, args
        assert all(float(r[3]) == 0.0 for r in _rows(result.stdout)[1:])


def test_spectrum_cap(runner):
    result = runner.invoke(main, ["spectrum", "-d", "2", "--slots", "11", "--k", "0"])
    assert result.exit_code == 2
    # 13 slots pass the slot bound, but 3**13 amplitudes exceed the dense cap
    result = runner.invoke(main, ["spectrum", "-d", "3", "--slots", "13", "--k", "0"])
    assert result.exit_code == 2
    assert "3**13 exceeds the dense cap" in result.stderr


def test_spectrum_refuses_huge_slot_count_at_once(runner):
    # at d = 1 the dense size 1**N never passes the cap: the slot count is refused
    for d in ("3", "1"):
        start = time.perf_counter()
        result = runner.invoke(main, ["spectrum", "-d", d, "--slots", "30000000", "--k", "0"])
        assert result.exit_code == 2
        assert time.perf_counter() - start < 2.0


def test_sequential_command(runner, tmp_path):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({
        "dim": 2,
        "rows": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
    }))
    result = runner.invoke(main, [
        "sequential", "--hamiltonian", str(path), "--dt", "0.7853981633974483",
        "--m", "0", "--n", "1", "--successions", "50",
    ])
    assert result.exit_code == 0
    row = _rows(result.stdout)[1]
    assert float(row[1]) == pytest.approx(0.5, abs=1e-12)
    assert float(row[5]) <= 1e-12


def test_ensemble_size_beyond_2_pow_53_is_a_usage_error(runner, tmp_path):
    huge = str(10**200)
    result = runner.invoke(main, ["converge", "--amps", "0.6;0.8", "--k", "0",
                                  "--ns", huge])
    assert result.exit_code == 2
    path = tmp_path / "h.json"
    path.write_text(json.dumps({
        "dim": 2,
        "rows": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
    }))
    result = runner.invoke(main, [
        "sequential", "--hamiltonian", str(path), "--dt", "0.5",
        "--m", "0", "--n", "1", "--successions", huge,
    ])
    assert result.exit_code == 2


def test_successions_beyond_2_pow_53_is_refused_by_its_own_name(runner, tmp_path):
    # the bound was FrequencySpec's, so the refusal named n_slots
    path = tmp_path / "h.json"
    path.write_text(json.dumps({
        "dim": 2,
        "rows": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
    }))
    result = runner.invoke(main, [
        "sequential", "--hamiltonian", str(path), "--dt", "0.5",
        "--m", "0", "--n", "1", "--successions", str(10**20),
    ])
    assert result.exit_code == 2
    assert "Error: successions must be at most 9007199254740992\n" in result.stderr
    assert result.stdout == ""


def test_epr_command(runner):
    result = runner.invoke(main, ["epr", "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["passed"] == "true"
    assert payload["post_second_down"] == "true"


def test_epr_rejects_definite_pair(runner):
    result = runner.invoke(main, ["epr", "--alpha", "1", "--beta", "0"])
    assert result.exit_code == 2


def test_wigner_command(runner):
    result = runner.invoke(main, ["wigner", "--alpha", "0.6", "--beta", "0.8",
                                  "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["passed"] is True
    assert [b["probability"] for b in payload["branches"]] == [
        pytest.approx(0.36), pytest.approx(0.64)
    ]


def test_wigner_single_branch_pair(runner):
    result = runner.invoke(main, ["wigner", "--alpha", "1", "--beta", "0"])
    assert result.exit_code == 0


@pytest.mark.parametrize("command, alpha, beta", [("epr", "nan", "0.8"), ("wigner", "0.6", "nan")])
def test_nan_weights_are_refused_as_weights(runner, command, alpha, beta):
    # abs(nan - 1) > tol is False: a NaN weight must fail the norm check
    # itself, not reach the state constructor
    result = runner.invoke(main, [command, "--alpha", alpha, "--beta", beta])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "|alpha|^2 + |beta|^2 = nan is not 1" in result.stderr


def test_sample_deterministic_output(runner):
    args = ["sample", "--amps", "0.6;0.8", "--n", "20000", "--seed", "9"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0
    assert first.stdout == second.stdout
    rows = _rows(first.stdout)[1:]
    assert sum(int(r[2]) for r in rows) == 20000


def test_verify_all_passes_and_is_deterministic(runner):
    first = runner.invoke(main, ["verify-all", "--seed", "42"])
    second = runner.invoke(main, ["verify-all", "--seed", "42"])
    assert first.exit_code == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["schema_version"] == 1
    assert payload["total_failures"] == 0
    assert len(payload["suites"]) == 9


def test_verify_all_overtight_tolerance_exits_nonzero(runner):
    result = runner.invoke(main, ["verify-all", "--tolerance", "1e-16"])
    assert result.exit_code == 1
    payload = json.loads(result.stdout)
    assert payload["total_failures"] > 0


@pytest.mark.parametrize("args", [
    ["converge", "--amps", "0.6;0.8", "--k", "0", "--ns", "4"],
    ["spectrum", "-d", "2", "--slots", "2", "--k", "0"],
    ["sequential", "--hamiltonian", "{h}", "--dt", "0.5", "--m", "0", "--n", "1",
     "--successions", "4"],
    ["verify-all"],
], ids=lambda args: args[0])
def test_tolerance_must_be_finite_and_non_negative(runner, tmp_path, args):
    # nan would pass every check ("error > nan" is never true); refuse it up front
    path = tmp_path / "h.json"
    path.write_text(json.dumps({
        "dim": 2,
        "rows": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
    }))
    args = [str(path) if a == "{h}" else a for a in args]
    for bad in ("nan", "inf", "-1"):
        result = runner.invoke(main, [*args, "--tolerance", bad])
        assert result.exit_code == 2, bad
        assert result.stdout == ""


def test_verify_all_seed_must_fit_a_signed_64_bit_key(runner):
    # seeds from 2**63 on would reach the generator key as float64, so two
    # different seeds could run identical inputs
    for bad in ("-1", str(2**63), str(10**50)):
        result = runner.invoke(main, ["verify-all", "--seed", bad])
        assert result.exit_code == 2, bad
        assert result.stdout == ""


def test_sample_seed_must_fit_a_128_bit_philox_key(runner):
    # the range is named by sampling, not by the generator's own message
    args = ["sample", "--amps", "0.6;0.8", "--n", "10", "--seed"]
    assert runner.invoke(main, [*args, str(2**128 - 1)]).exit_code == 0
    for bad in ("-1", str(2**128)):
        result = runner.invoke(main, [*args, bad])
        assert result.exit_code == 2, bad
        assert result.stdout == ""
        assert "seed must be an integer in 0..2**128 - 1" in result.stderr


def test_sample_refuses_more_draws_than_the_bound_before_drawing(runner, monkeypatch):
    # 10**9 draws take 10-14 s at d = 2 and about 30 s at d = 5000; a larger
    # --n is refused at once
    def no_generator(*args, **kwargs):
        raise AssertionError("a generator was made")

    monkeypatch.setattr("freqop.sampling.np.random.Philox", no_generator)
    for bad in ("1000000001", str(10**15)):
        result = runner.invoke(main, ["sample", "--amps", "0.6;0.8", "--n", bad])
        assert result.exit_code == 2, bad
        assert result.stdout == ""


def test_internal_error_exits_3(runner, monkeypatch):
    def crash(seed, tolerance):
        raise RuntimeError("internal fault")

    monkeypatch.setattr("freqop.verify.run_all", crash)
    result = runner.invoke(main, ["verify-all"])
    assert result.exit_code == 3
    assert result.stdout == ""
    assert "RuntimeError: internal fault" in result.stderr


# each command's route at its home module, and arguments that run it
_ROUTES = {
    "converge": ("frequency", "deviation_norm", ["--amps", "0.6;0.8", "--k", "0"]),
    "spectrum": ("oracle", "dense_spectrum", ["-d", "2", "--slots", "3", "--k", "0"]),
    "sequential": ("sequential", "succession_frequency",
                   ["--hamiltonian", "{h}", "--dt", "0.5", "--m", "0", "--n", "1"]),
    "epr": ("scenarios", "epr_check", []),
    "wigner": ("scenarios", "wigner_friend_check", []),
    "sample": ("sampling", "sample_ensemble", ["--amps", "0.6;0.8", "--n", "1000"]),
    "verify-all": ("verify", "run_all", []),
}


@pytest.mark.parametrize("command", sorted(_ROUTES))
def test_a_patch_on_a_route_at_its_home_reaches_the_command(runner, monkeypatch, tmp_path,
                                                            command):
    # the tracer counts a command's route by wrapping it in its home module
    module, name, args = _ROUTES[command]
    path = tmp_path / "h.json"
    path.write_text(json.dumps({
        "dim": 2,
        "rows": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
    }))
    args = [command, *(a.format(h=path) for a in args)]
    plain = runner.invoke(main, args)
    home = importlib.import_module(f"freqop.{module}")
    route = getattr(home, name)
    calls = []

    def recorder(*a, **kw):
        calls.append(a)
        return route(*a, **kw)

    monkeypatch.setattr(home, name, recorder)
    patched = runner.invoke(main, args)
    assert calls
    assert patched.exit_code == plain.exit_code == 0, plain.output
    assert patched.stdout == plain.stdout


@pytest.mark.parametrize(
    "command", ["converge", "spectrum", "epr", "wigner", "sample", "verify-all"]
)
def test_help_example_runs(runner, command):
    # the example a user copies out of --help is accepted and passes
    help_text = runner.invoke(main, [command, "--help"]).stdout
    line = next(ln for ln in help_text.splitlines() if "Example: freqop " in ln)
    args = shlex.split(line.split("Example: freqop ", 1)[1])
    assert args[0] == command
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "freqop", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "verify-all" in proc.stdout


# Fuzzed --amps and --ns text either runs (exit 0 or 1) or is refused (exit 2);
# it never crashes (exit 3 with a traceback). Parsed ensemble sizes stay at
# N <= 64 or N > 512 (the counted route), so every case runs in milliseconds.
_number_text = (
    st.floats(-2.0, 2.0).map(repr)
    | st.floats().map(repr)
    | st.integers(-3, 3).map(str)
    | st.integers(-(10**400), 10**400).map(str)
    | st.text(alphabet="0123456789.eE+-_ infa", max_size=8)
)
_amps_text = (
    st.lists(_number_text | st.tuples(_number_text, _number_text).map(",".join),
             max_size=4).map(";".join)
    | st.lists(st.floats(-2.0, 2.0).map(repr), min_size=2, max_size=4).map(";".join)
    | st.text(max_size=20)
)


def _assert_no_crash(result):
    assert result.exit_code in (0, 1, 2), result.stderr
    assert "Traceback" not in result.stderr


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_amps_text, st.integers(-1, 3), st.booleans())
def test_fuzz_amps_text(amps, k, normalize):
    args = ["converge", f"--amps={amps}", "--k", str(k), "--ns", "1,4"]
    _assert_no_crash(CliRunner().invoke(main, args + ["--normalize"] * normalize))


def _gram_sizes_in_range(text):
    for piece in text.split(","):
        try:
            if 64 < int(piece) <= 512:
                return True
        except ValueError:
            pass
    return False


_ns_text = (
    st.lists(
        st.integers(-2, 64).map(str)
        | st.integers(513, 10**400).map(str)
        | st.text(alphabet="0123456789+- x", max_size=5),
        max_size=4,
    ).map(",".join)
    | st.text(max_size=12)
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_ns_text)
def test_fuzz_ns_text(ns):
    assume(not _gram_sizes_in_range(ns))
    args = ["converge", "--amps", "0.6;0.8", "--k", "0", f"--ns={ns}"]
    _assert_no_crash(CliRunner().invoke(main, args))
