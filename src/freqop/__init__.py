"""Frequency operators on product ensembles, with verification tooling.

Every public name is read from its home module: ``import freqop`` loads no
module, and the first read of a name loads its module (PEP 562), so a
program loads only the routes it uses. After that read the name is bound
here and costs a plain lookup.
"""

import importlib

_HOME = {
    "BipartiteState": "scenarios",
    "DenseVector": "oracle",
    "EprReport": "scenarios",
    "FrequencyReport": "frequency",
    "FrequencySpec": "frequency",
    "HermitianOperator": "hilbert",
    "MeasurementRecord": "sampling",
    "ProductState": "product",
    "ProductTerm": "product",
    "Projector": "hilbert",
    "SequentialSpec": "sequential",
    "StateVector": "hilbert",
    "TruthValue": "hilbert",
    "UnitaryMatrix": "hilbert",
    "WignerBranch": "scenarios",
    "WignerReport": "scenarios",
    "ZeroBranchError": "scenarios",
    "add": "product",
    "apply_frequency": "frequency",
    "branch_probability": "scenarios",
    "cauchy_gap": "frequency",
    "cauchy_gap_grid": "frequency",
    "condition_on": "scenarios",
    "cross_orthogonality": "frequency",
    "dense_apply_frequency": "oracle",
    "dense_deviation": "oracle",
    "dense_embed": "oracle",
    "dense_frequency_matrix": "oracle",
    "dense_spectrum": "oracle",
    "deviation_norm": "frequency",
    "eig_hermitian": "hilbert",
    "eigencheck_standard_basis": "oracle",
    "ensemble": "product",
    "epr_check": "scenarios",
    "epr_pair": "scenarios",
    "evolve": "hilbert",
    "inner": "hilbert",
    "inner_infinite": "product",
    "kron_power": "oracle",
    "norm": "product",
    "propagator": "sequential",
    "random_hermitian": "hilbert",
    "random_projector": "hilbert",
    "random_state": "hilbert",
    "random_unitary": "hilbert",
    "sample_ensemble": "sampling",
    "scale": "product",
    "subsystem_truth_value": "scenarios",
    "succession_frequency": "sequential",
    "succession_probabilities": "sequential",
    "truth_value": "hilbert",
    "wigner_friend_check": "scenarios",
}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import ``name``'s module and return what it binds to ``name``.

    Only the module's own definition is bound here. A stand-in over it, such
    as a test's patch or a tracing wrapper, is returned but not kept, so the
    package reads the definition again once the stand-in is undone.
    """
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_HOME[name]}", __name__)
    value = getattr(module, name)
    if getattr(value, "__module__", None) == module.__name__:
        globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
