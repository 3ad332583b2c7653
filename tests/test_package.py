"""The package namespace reads each name from its home module on first use,
and a ``python -m freqop`` command loads only the modules of its route."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import freqop
from freqop import oracle

# the names the package exported when it imported every module eagerly
EXPORTED = {
    "BipartiteState", "DenseVector", "EprReport", "FrequencyReport", "FrequencySpec",
    "HermitianOperator", "MeasurementRecord", "ProductState", "ProductTerm", "Projector",
    "SequentialSpec", "StateVector", "TruthValue", "UnitaryMatrix", "WignerBranch",
    "WignerReport", "ZeroBranchError", "add", "apply_frequency", "branch_probability",
    "cauchy_gap", "cauchy_gap_grid", "condition_on", "cross_orthogonality",
    "dense_apply_frequency", "dense_deviation", "dense_embed", "dense_frequency_matrix",
    "dense_spectrum", "deviation_norm", "eig_hermitian", "eigencheck_standard_basis",
    "ensemble", "epr_check", "epr_pair", "evolve", "inner", "inner_infinite",
    "kron_power", "norm", "propagator", "random_hermitian", "random_projector",
    "random_state", "random_unitary", "sample_ensemble", "scale", "subsystem_truth_value",
    "succession_frequency", "succession_probabilities", "truth_value",
    "wigner_friend_check",
}


def test_every_exported_name_is_its_home_definition():
    assert len(freqop.__all__) == len(EXPORTED) == 52
    assert set(freqop.__all__) == EXPORTED
    for name in freqop.__all__:
        value = getattr(freqop, name)
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("freqop.")
        assert getattr(home, name) is value, name


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from freqop import *", namespace)
    assert EXPORTED <= set(namespace)
    for name in EXPORTED:
        assert namespace[name] is getattr(freqop, name)
    assert EXPORTED <= set(dir(freqop))


def test_an_unknown_name_is_refused_by_name():
    with pytest.raises(AttributeError, match="no_such_name"):
        freqop.no_such_name


def test_a_stand_in_reads_through_the_package_but_is_never_bound(monkeypatch):
    # a tracing wrapper or a test's patch over a home definition must not
    # outlive its undo in the package, so only the definition itself is bound
    vars(freqop).pop("kron_power", None)
    original = oracle.kron_power

    def stand_in(s, n_slots):
        return original(s, n_slots)

    with monkeypatch.context() as m:
        m.setattr(oracle, "kron_power", stand_in)
        assert freqop.kron_power is stand_in
        assert "kron_power" not in vars(freqop)
    assert freqop.kron_power is original
    assert vars(freqop)["kron_power"] is original


_H = {"dim": 2, "rows": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]}
_BASE = {"cli", "hilbert", "io"}
# run the package as ``python -m freqop`` does, and name the freqop modules
# loaded when the process exits
_RUN = """
import atexit, runpy, sys
atexit.register(lambda: print(sorted(m for m in sys.modules if m.startswith("freqop."))))
runpy.run_module("freqop", run_name="__main__", alter_sys=True)
"""


def test_each_command_loads_only_its_route(tmp_path):
    h = tmp_path / "h.json"
    h.write_text(json.dumps(_H))
    runs = {
        None: (set(), ["-c", "import freqop, sys; print(sorted(sys.modules))"]),
        "--help": (_BASE, ["--help"]),
        "epr": (_BASE | {"scenarios"}, ["epr"]),
        "wigner": (_BASE | {"scenarios"}, ["wigner"]),
        "sample": (_BASE | {"sampling"}, ["sample", "--amps", "0.6;0.8", "--n", "10"]),
        "converge": (_BASE | {"frequency", "product"}, ["converge", "--amps", "0.6;0.8",
                                                         "--k", "0"]),
        "sequential": (_BASE | {"frequency", "product", "sequential"},
                       ["sequential", "--hamiltonian", str(h), "--dt", "0.5",
                        "--m", "0", "--n", "1", "--successions", "4"]),
        "spectrum": (_BASE | {"oracle"}, ["spectrum", "-d", "2", "--slots", "3", "--k", "0"]),
    }
    # the processes run side by side; each prints its list last, on stdout
    procs = {
        command: subprocess.Popen(
            [sys.executable, *(args if command is None else ["-c", _RUN, *args])],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for command, (_, args) in runs.items()
    }
    for command, proc in procs.items():
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, (command, err)
        modules = ast.literal_eval(out.splitlines()[-1])
        loaded = {m.partition(".")[2] for m in modules if m.startswith("freqop.")}
        assert loaded - {"__main__"} == runs[command][0], command


def test_every_imported_name_is_read_by_its_module():
    # a name a module imports but never reads is an alias kept for callers
    # of an old location; each name lives in, and is read from, its home
    unread = {}
    for path in sorted(Path(freqop.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - read:
            unread[path.name] = sorted(imported - read)
    assert not unread
