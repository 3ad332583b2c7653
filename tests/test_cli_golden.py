"""Golden stdout for every CLI command.

Each case runs one command under CliRunner and compares its stdout, byte for
byte, and its exit code with the file of the same name under ``golden/``.
The bytes do not depend on the BLAS thread count, which a test checks by
running commands at 1 and at 2 threads.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from freqop import io
from freqop.cli import main
from freqop.hilbert import random_state, random_unitary
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

# verify-all runs on these fixed results, so this case pins its output code
# alone; the real suites' bytes are pinned by verify-all_42.json, which the
# BLAS thread count test compares at one and at two threads.
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
    # <s|s> rounds to 0.9999999999999999, so these bytes pin the tail factors
    # of the gram route: a kernel that drops them prints other digits.
    "converge_tail.csv": (["converge", "--amps", "0.2;0.4;0.6", "--normalize", "--k", "2",
                           "--ns", "3,17,32"], 0),
    # the gram route up to its crossover N = 512
    "converge_512.csv": (["converge", "--amps", "0.6;0.8", "--k", "0", "--ns", "64,256,512"], 0),
    "converge_fail.csv": (["converge", "--amps", "0.6;0.8", "--k", "0", "--ns", "4,32",
                           "--tolerance", "0"], 1),
    "spectrum.csv": (["spectrum", "-d", "2", "--slots", "3", "--k", "1"], 0),
    "spectrum.json": (["spectrum", "-d", "2", "--slots", "2", "--k", "0", "--format", "json"], 0),
    # 5/7 is an ulp off the grid unless j/N is rounded once
    "spectrum_7.csv": (["spectrum", "-d", "2", "--slots", "7", "--k", "0"], 0),
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
    # three draw blocks; the CDF edges 1/4, 1/2 and 3/4 lie on bucket boundaries
    "sample_d5.csv": (["sample", "--amps", "0.5;0,0.5;0.5;0.3;0.4", "--n", "3000001",
                       "--seed", "2024"], 0),
    "verify-all.json": (["verify-all", "--seed", "7", "--tolerance", "1e-09"], 0),
    "usage_error.out": (["converge", "--amps", "zero;one", "--k", "0"], 2),
}


def run_case(name: str, tmp_path: Path, monkeypatch) -> tuple[int, bytes]:
    """Run case ``name`` and return its exit code and stdout bytes."""
    paths = {}
    for key, obj in FILES.items():
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(obj), encoding="utf-8")
    monkeypatch.setattr("freqop.verify.run_all", lambda seed, tolerance: SUITES)
    args = [a.format(**paths) for a in CASES[name][0]]
    result = CliRunner().invoke(main, args)
    return result.exit_code, result.stdout_bytes


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name, tmp_path, monkeypatch):
    code, stdout = run_case(name, tmp_path, monkeypatch)
    assert code == CASES[name][1]
    assert stdout == (GOLDEN / name).read_bytes()


def _state_and_basis(tmp_path: Path, d: int, key: int) -> tuple[str, str]:
    """Files of a random state and a Haar unitary of dimension ``d``."""
    rng = np.random.Generator(np.random.Philox(key=key))
    state, basis = tmp_path / f"state{d}.json", tmp_path / f"basis{d}.json"
    state.write_text(json.dumps(io.state_to_dict(random_state(d, rng))))
    basis.write_text(json.dumps(io.matrix_to_dict(random_unitary(d, rng).entries)))
    return str(state), str(basis)


def test_stdout_does_not_depend_on_the_blas_thread_count(tmp_path):
    # from about d = 64 on a BLAS product of the basis and the state would
    # split its sums by thread, so sample --basis runs at d = 300
    state300, basis300 = _state_and_basis(tmp_path, 300, 300)
    # the gram route's slot overlaps in a random basis: elementwise sums
    state64, basis64 = _state_and_basis(tmp_path, 64, 64)
    cases = [
        (CASES["converge_tail.csv"][0], "converge_tail.csv"),
        (CASES["converge_512.csv"][0], "converge_512.csv"),
        (["converge", "--state", state64, "--basis", basis64, "--k", "5",
          "--ns", "512"], None),
        # the real suites, whose worst errors include the dense oracle's norm
        (["verify-all", "--seed", "42"], "verify-all_42.json"),
        (["sample", "--state", state300, "--basis", basis300, "--n", "1000",
          "--seed", "3"], None),
    ]
    for args, golden in cases:
        runs = [
            subprocess.run([sys.executable, "-m", "freqop"] + args, capture_output=True,
                           timeout=120,
                           env={**os.environ, "OPENBLAS_NUM_THREADS": str(threads)})
            for threads in (1, 2)
        ]
        assert [r.returncode for r in runs] == [0, 0], args
        assert runs[0].stdout == runs[1].stdout, args
        if golden is not None:
            assert runs[0].stdout == (GOLDEN / golden).read_bytes()
