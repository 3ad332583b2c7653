"""Golden stdout for every CLI command.

Each case runs one command under CliRunner and compares its stdout, byte for
byte, and its exit code with the file of the same name under ``golden/``.
Inputs are small (d = 2, N <= 32): from N = 64 the gram route's matrix
products change in the last bits with the BLAS thread count.
"""

import json
import math
from pathlib import Path

import pytest
from click.testing import CliRunner

from freqop.cli import main
from freqop.verify import SuiteResult

GOLDEN = Path(__file__).parent / "golden"

_H = 1.0 / math.sqrt(2.0)

# File inputs, written to a temporary directory; "{name}" in a case's
# arguments is replaced by the path of file ``name``.
FILES = {
    "state": {"dim": 2, "amps": [[0.6, 0.0], [0.0, 0.8]]},
    "basis": {"dim": 2, "rows": [[[_H, 0.0], [_H, 0.0]], [[_H, 0.0], [-_H, 0.0]]]},
    "hamiltonian": {"dim": 2, "rows": [[[1.0, 0.0], [0.5, -0.25]],
                                       [[0.5, 0.25], [-1.0, 0.0]]]},
}

# The suites' worst errors move in the last bits with the BLAS thread count,
# so verify-all runs on these fixed results: its output code is what is pinned.
SUITES = [
    SuiteResult("deviation-identity", 54, 0, 1.734723475976807e-16),
    SuiteResult("orthogonality", 40, 0, 0.0),
    SuiteResult("sampling", 12, 0, 2.5),
]

# golden file name: (arguments, exit code)
CASES = {
    "converge.csv": (["converge", "--amps", "0.6;0.8", "--k", "1", "--ns", "1,4,16,32"], 0),
    "converge.json": (["converge", "--state", "{state}", "--basis", "{basis}", "--k", "0",
                       "--ns", "2,8", "--format", "json"], 0),
    "converge_fail.csv": (["converge", "--amps", "0.6;0.8", "--k", "0", "--ns", "4,32",
                           "--tolerance", "0"], 1),
    "spectrum.csv": (["spectrum", "-d", "2", "--slots", "3", "--k", "1"], 0),
    "spectrum.json": (["spectrum", "-d", "2", "--slots", "2", "--k", "0", "--format", "json"], 0),
    "sequential.csv": (["sequential", "--hamiltonian", "{hamiltonian}", "--dt", "0.5",
                        "--m", "0", "--n", "1", "--successions", "32"], 0),
    "sequential.json": (["sequential", "--hamiltonian", "{hamiltonian}", "--dt", "0.5",
                         "--m", "1", "--n", "1", "--successions", "16", "--format", "json"], 0),
    "epr.csv": (["epr", "--alpha", "0.6", "--beta", "0,0.8"], 0),
    "epr.json": (["epr", "--format", "json"], 0),
    "wigner.csv": (["wigner", "--alpha", "0.6", "--beta", "0.8"], 0),
    "wigner.json": (["wigner", "--alpha", "0.6", "--beta", "0,0.8", "--format", "json"], 0),
    "sample.csv": (["sample", "--amps", "0.6;0.8", "--n", "64", "--seed", "7"], 0),
    "sample.json": (["sample", "--state", "{state}", "--basis", "{basis}", "--n", "64",
                     "--seed", "11", "--format", "json"], 0),
    "verify-all.json": (["verify-all", "--seed", "7", "--tolerance", "1e-09"], 0),
    "usage_error.out": (["converge", "--amps", "zero;one", "--k", "0"], 2),
}


def run_case(name: str, tmp_path: Path, monkeypatch) -> tuple[int, bytes]:
    """Run case ``name`` and return its exit code and stdout bytes."""
    paths = {}
    for key, obj in FILES.items():
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(obj), encoding="utf-8")
    monkeypatch.setattr("freqop.cli.run_all", lambda seed, tolerance: SUITES)
    args = [a.format(**paths) for a in CASES[name][0]]
    result = CliRunner().invoke(main, args)
    return result.exit_code, result.stdout_bytes


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name, tmp_path, monkeypatch):
    code, stdout = run_case(name, tmp_path, monkeypatch)
    assert code == CASES[name][1]
    assert stdout == (GOLDEN / name).read_bytes()
