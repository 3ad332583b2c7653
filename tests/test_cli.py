import csv
import io as _io
import json
import subprocess
import sys
import time

import pytest
from click.testing import CliRunner

from freqop.cli import main


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


def test_spectrum_cap(runner):
    result = runner.invoke(main, ["spectrum", "-d", "2", "--slots", "11", "--k", "0"])
    assert result.exit_code == 2


def test_spectrum_refuses_huge_slot_count_at_once(runner):
    start = time.perf_counter()
    result = runner.invoke(main, ["spectrum", "-d", "3", "--slots", "30000000", "--k", "0"])
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


def test_internal_error_exits_3(runner, monkeypatch):
    def crash(seed, tolerance):
        raise RuntimeError("internal fault")

    monkeypatch.setattr("freqop.cli.run_all", crash)
    result = runner.invoke(main, ["verify-all"])
    assert result.exit_code == 3
    assert result.stdout == ""
    assert "RuntimeError: internal fault" in result.stderr


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "freqop", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "verify-all" in proc.stdout
