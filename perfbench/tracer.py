"""Span recorder for the traced run, and the per-layer metrics built from it.

While installed, every public function of the freqop modules is replaced by
a wrapper in its defining module and in every module that binds it by name
(``frequency``'s import of ``pairwise_term_gram``, the package namespace,
...). A wrapper records one span: name, start, end, parent span and, for a
few functions, work counts read off the arguments or the result. Spans stay
in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import math
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("product", "frequency", "oracle", "sampling", "sequential", "scenarios",
          "verify", "hilbert", "io")
CLI_COMMANDS = ("converge", "spectrum", "sequential", "epr", "wigner", "sample",
                "verify-all")


def _gram_counts(a, b, rule=None):
    ta, tb = len(a.terms), len(b.terms)
    span = max(a.max_prefix_len, b.max_prefix_len)
    return {
        "ta": ta, "tb": tb, "span": span,
        "pair_slots": ta * tb * span,
        # per slot: read both stacks of slot vectors, write one ta x tb product
        "computed_bytes": 16 * span * (a.dim * (ta + tb) + ta * tb),
    }


def _amplitudes(n_slots, d):
    return {"amplitudes": d**n_slots}


# Work counts taken at the layer boundary: name -> (from arguments, from result).
COUNTERS = {
    "product.pairwise_term_gram": (_gram_counts, None),
    "frequency.apply_frequency": (None, lambda r: {"terms_out": len(r.terms)}),
    "oracle.dense_deviation": (
        lambda s, k, n_slots, basis=None: _amplitudes(n_slots, s.dim), None),
    "oracle.dense_frequency_matrix": (
        lambda k, n_slots, d, basis=None: _amplitudes(n_slots, d), None),
    "oracle.eigencheck_standard_basis": (
        lambda k, n_slots, d, chunk=None: _amplitudes(n_slots, d), None),
    "sampling.sample_ensemble": (
        lambda s, n_samples, seed, basis=None: {"draws": n_samples}, None),
}


class Tracer:
    """Spans as lists ``[id, parent, name, start, end, counts]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [len(self.spans), self._stack[-1] if self._stack else None, name,
               time.perf_counter(), 0.0, None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield rec
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        from_args, from_result = COUNTERS.get(name, (None, None))
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            counts = {}
            if from_args:
                counts.update(from_args(**sig.bind(*args, **kwargs).arguments))
            if from_result:
                counts.update(from_result(result))
            rec[5] = counts or None
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every public freqop function wherever a module binds it."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"freqop.{layer}")
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        modules = [m for n, m in sys.modules.items()
                   if n == "freqop" or n.startswith("freqop.")]
        patched = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(mod, attr, wrappers[id(value)][1])
                    patched.append((mod, attr, value))
        try:
            yield
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end", "counts"],
                       "spans": self.spans}, fh)


def _slope(points: dict[float, list[float]]) -> float:
    """Least-squares slope of log(median time) against log(size); 0 if < 2 sizes."""
    xs = [math.log(x) for x in sorted(points)]
    ys = [math.log(statistics.median(points[x])) for x in sorted(points)]
    if len(xs) < 2:
        return 0.0
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


GRAM_FIT_MIN_SPAN = 64   # below this the Gram call is dominated by fixed overhead


def per_layer(spans: list[list], rounds: int) -> dict[str, float]:
    """Per-layer metrics per traced round: self times, calls, work counts, fits."""
    child_time = defaultdict(float)
    for sid, parent, name, t0, t1, counts in spans:
        if parent is not None:
            child_time[parent] += t1 - t0
    self_s = defaultdict(float)
    calls = defaultdict(int)
    totals = defaultdict(lambda: defaultdict(int))
    gram_fit = defaultdict(list)
    eig_fit = defaultdict(list)
    cli_times = defaultdict(list)
    for sid, parent, name, t0, t1, counts in spans:
        counts = counts or {}   # a call that raised records no counts
        self_s[name] += (t1 - t0) - child_time[sid]
        calls[name] += 1
        for key, value in counts.items():
            totals[name][key] += value
        if name == "product.pairwise_term_gram" and counts and (
                counts["ta"] == counts["tb"] == counts["span"] >= GRAM_FIT_MIN_SPAN):
            gram_fit[counts["span"]].append(t1 - t0)
        elif name == "oracle.eigencheck_standard_basis" and counts:
            eig_fit[counts["amplitudes"]].append(t1 - t0)
        elif name.startswith("cli."):
            cli_times[name].append(t1 - t0)

    def per_round(x):
        return x / rounds

    gram = "product.pairwise_term_gram"
    sample = "sampling.sample_ensemble"
    out = {
        f"{gram}.calls": per_round(calls[gram]),
        f"{gram}.self_s": per_round(self_s[gram]),
        f"{gram}.pair_slots": per_round(totals[gram]["pair_slots"]),
        f"{gram}.computed_bytes": per_round(totals[gram]["computed_bytes"]),
        f"{gram}.exponent": _slope(gram_fit),
        "product.inner_infinite.self_s": per_round(self_s["product.inner_infinite"]),
        "frequency.apply_frequency.calls": per_round(calls["frequency.apply_frequency"]),
        "frequency.apply_frequency.self_s": per_round(self_s["frequency.apply_frequency"]),
        "frequency.apply_frequency.terms_out": per_round(
            totals["frequency.apply_frequency"]["terms_out"]),
    }
    for name in ("frequency.deviation_norm", "frequency.cauchy_gap_grid",
                 "frequency.cross_orthogonality", "oracle.dense_deviation",
                 "oracle.dense_apply_frequency", "oracle.kron_power",
                 "oracle.dense_frequency_matrix", "oracle.dense_spectrum",
                 "oracle.eigencheck_standard_basis"):
        out[f"{name}.self_s"] = per_round(self_s[name])
    out["oracle.eigencheck_standard_basis.exponent"] = _slope(eig_fit)
    out["oracle.amplitudes"] = per_round(
        sum(totals[n]["amplitudes"] for n in ("oracle.dense_deviation",
                                               "oracle.dense_frequency_matrix",
                                               "oracle.eigencheck_standard_basis")))
    out[f"{sample}.self_s"] = per_round(self_s[sample])
    out[f"{sample}.draws_per_s"] = (totals[sample]["draws"] / self_s[sample]
                                    if self_s[sample] else 0.0)
    for name in ("sequential.succession_frequency", "scenarios.epr_check",
                 "scenarios.wigner_friend_check", "verify.run_all"):
        out[f"{name}.self_s"] = per_round(self_s[name])
    for command in CLI_COMMANDS:
        times = cli_times[f"cli.{command}"]
        out[f"cli.{command.replace('-', '_')}_s"] = statistics.median(times) if times else 0.0
    return out


def _unit(name: str) -> str:
    if name.endswith(".draws_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".computed_bytes"):
        return "B"
    if name.endswith(".exponent"):
        return "1"
    return "count"


# Every per-layer metric a traced run reports, with its unit. Counts and
# times are per traced round; exponents are fitted over the round's sizes.
UNITS = {name: _unit(name) for name in (
    "product.pairwise_term_gram.calls",
    "product.pairwise_term_gram.self_s",
    "product.pairwise_term_gram.pair_slots",
    "product.pairwise_term_gram.computed_bytes",
    "product.pairwise_term_gram.exponent",
    "product.inner_infinite.self_s",
    "frequency.apply_frequency.calls",
    "frequency.apply_frequency.self_s",
    "frequency.apply_frequency.terms_out",
    "frequency.deviation_norm.self_s",
    "frequency.cauchy_gap_grid.self_s",
    "frequency.cross_orthogonality.self_s",
    "oracle.dense_deviation.self_s",
    "oracle.dense_apply_frequency.self_s",
    "oracle.kron_power.self_s",
    "oracle.dense_frequency_matrix.self_s",
    "oracle.dense_spectrum.self_s",
    "oracle.eigencheck_standard_basis.self_s",
    "oracle.eigencheck_standard_basis.exponent",
    "oracle.amplitudes",
    "sampling.sample_ensemble.self_s",
    "sampling.sample_ensemble.draws_per_s",
    "sequential.succession_frequency.self_s",
    "scenarios.epr_check.self_s",
    "scenarios.wigner_friend_check.self_s",
    "verify.run_all.self_s",
    "cli.startup_s",
    *(f"cli.{c.replace('-', '_')}_s" for c in CLI_COMMANDS),
    "trace.overhead_s",
)}
