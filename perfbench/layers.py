"""The layers of dyncert as the traced run sees them.

:func:`install` wraps, from outside, the module attributes through which
each layer calls the next, at the name the caller looks up: a function
imported into another module is wrapped there too. :data:`METRICS` turns
the recorded spans into the per-layer metrics, and says for each which
end-to-end metric on which workload it should move. ``models`` holds only
constructors and gets no metric.
"""

from collections import defaultdict

import numpy as np

from tracer import self_times

MODEL_KINDS = ("harmonic", "kerr", "pendulum", "morse", "well")


def _model_tag(tags, args, kwargs, result):
    model = args[0] if args else kwargs.get("model")
    tags["model"] = getattr(model, "kind", None)


def _eigenfunction_tag(tags, args, kwargs, result):
    _model_tag(tags, args, kwargs, result)
    qs = args[2] if len(args) > 2 else kwargs.get("qs")
    tags["points"] = int(np.size(qs))
    tags["family"] = "pendulum" if tags["model"] == "pendulum" else "closed_form"


def _oracle_tag(tags, args, kwargs, result):
    _model_tag(tags, args, kwargs, result)
    if result is not None:
        tags["samples"] = args[3] if len(args) > 3 else kwargs.get("n_samples")


def _slice_tag(tags, args, kwargs, result):
    if result is not None:
        tags["dim"] = result.dim


def _scan_tag(tags, args, kwargs, result):
    if result is not None:
        tags["points"] = len(result)
        tags["error_points"] = sum(p.error is not None for p in result)


def _rounds_tag(tags, args, kwargs, result):
    if result is not None:
        tags["rounds"] = result.n_rounds


def _cells_tag(tags, args, kwargs, result):
    if result is not None:
        tags["cells"] = int(result.values.size)


def _eig_tag(tags, args, kwargs, result):
    from dyncert import numerics
    tags["kind"] = ("operator" if isinstance(args[0], numerics.HermitianOperator)
                    else "dense")


def _exit_tag(tags, args, kwargs, result):
    tags["exit"] = result if result is not None else -1


def _counting_operator(tracer, cls):
    """Stand-in for HermitianOperator that counts calls of its matvec."""
    def make(dim, matvec, norm_bound):
        def counted(v):
            tracer.count("numerics.matvec.calls")
            return matvec(v)
        return cls(dim, counted, norm_bound)
    return make


def install(tracer):
    """Wrap every layer boundary; undo with ``tracer.restore()``."""
    from dyncert import (classical, cli, phasespace, protocol, simulate,
                         spectra)
    wrap = tracer.wrap
    # numerics, at the names its callers use
    wrap(spectra, "mathieu_eigensystem", "numerics.mathieu_eigensystem")
    wrap(protocol, "hermitian_max_eigenpair",
         "numerics.hermitian_max_eigenpair", _eig_tag)
    wrap(classical, "quad_inverse_sqrt", "numerics.quad_inverse_sqrt")
    tracer.replace(protocol, "HermitianOperator",
                   _counting_operator(tracer, protocol.HermitianOperator))
    # spectra; simulate, phasespace and sgn_quadrature all reach
    # eigenfunction_grid through the spectra module
    wrap(spectra, "levels", "spectra.levels")
    wrap(spectra, "sgn_matrix", "spectra.sgn_matrix", _model_tag)
    wrap(spectra, "sgn_quadrature", "spectra.sgn_quadrature")
    wrap(spectra, "eigenfunction_grid", "spectra.eigenfunction_grid",
         _eigenfunction_tag)
    wrap(spectra, "spectrum_slice", "spectra.spectrum_slice", _slice_tag)
    # protocol; its own functions call each other through module globals
    for attr in ("max_score", "score_state", "maximize_over_tau"):
        wrap(protocol, attr, f"protocol.{attr}")
    wrap(protocol, "truncated_slice", "protocol.truncated_slice", _slice_tag)
    wrap(protocol, "scan_tau", "protocol.scan_tau", _scan_tag)
    # classical, imported by name into protocol and cli
    for owner in (classical, protocol, cli):
        wrap(owner, "energy_window", "classical.energy_window")
    for owner in (classical, cli):
        wrap(owner, "trapping_times", "classical.trapping_times")
    wrap(classical, "classical_score_oracle", "classical.oracle", _oracle_tag)
    wrap(simulate, "run_protocol", "simulate.run_protocol", _rounds_tag)
    for attr in ("wigner_cartesian", "wigner_angular"):
        wrap(phasespace, attr, f"phasespace.{attr}", _cells_tag)
    # cli: make-figures re-enters main through the module global
    wrap(cli, "main", "cli.main", _exit_tag)
    wrap(spectra.SpectrumSlice, "load", "cli.slice_cache.hit")
    wrap(spectra.SpectrumSlice, "save", "cli.slice_cache.miss")


class Stats:
    """Calls, self time and tag sums per span name and per tagged variant
    (``name.<model>``, ``name.<family>``, ``name.<kind>``)."""

    def __init__(self, spans, counters):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.sums = defaultdict(int)
        self.maxima = defaultdict(int)
        self.counters = counters
        self.errors = defaultdict(int)
        self.nonzero_exits = 0
        for span, own in zip(spans, self_times(spans)):
            if "error" in span.tags:
                self.errors[span.name] += 1
            if span.name == "cli.main" and span.tags.get("exit") != 0:
                self.nonzero_exits += 1
            keys = [span.name] + [f"{span.name}.{span.tags[t]}"
                                  for t in ("model", "family", "kind")
                                  if span.tags.get(t)]
            for key in keys:
                self.calls[key] += 1
                self.self_s[key] += own
                for tag, value in span.tags.items():
                    if isinstance(value, (int, float)) and not isinstance(value, bool):
                        self.sums[key, tag] += value
                        self.maxima[key, tag] = max(self.maxima[key, tag], value)

    def rate(self, key, tag):
        busy = self.self_s[key]
        return self.sums[key, tag] / busy if busy > 0 else 0.0


def _calls(key):
    return lambda st, extra: st.calls[key]


def _self(key):
    return lambda st, extra: st.self_s[key]


def _sum(key, tag):
    return lambda st, extra: st.sums[key, tag]


def _rate(key, tag):
    return lambda st, extra: st.rate(key, tag)


def _extra(key):
    return lambda st, extra: extra[key]


def _max_dim(st, extra):
    return max(st.maxima["spectra.spectrum_slice", "dim"],
               st.maxima["protocol.truncated_slice", "dim"])


# (name, unit, better, what it should move, how to compute it)
METRICS = [
    ("numerics.mathieu_eigensystem.calls", "count", "lower",
     "wall_s on numerical; not closed-form",
     _calls("numerics.mathieu_eigensystem")),
    ("numerics.mathieu_eigensystem.self_s", "s", "lower",
     "wall_s on numerical; not closed-form",
     _self("numerics.mathieu_eigensystem")),
    ("numerics.hermitian_max_eigenpair.dense_calls", "count", "lower",
     "not closed-form, which runs thousands of tiny dense solves",
     _calls("numerics.hermitian_max_eigenpair.dense")),
    ("numerics.hermitian_max_eigenpair.operator_calls", "count", "lower",
     "wall_s and peak_rss_mb on numerical",
     _calls("numerics.hermitian_max_eigenpair.operator")),
    ("numerics.hermitian_max_eigenpair.self_s", "s", "lower",
     "wall_s and peak_rss_mb on numerical; not closed-form",
     _self("numerics.hermitian_max_eigenpair")),
    ("numerics.matvec.calls", "count", "lower",
     "wall_s on numerical",
     lambda st, extra: st.counters.get("numerics.matvec.calls", 0)),
    ("numerics.quad_inverse_sqrt.calls", "count", "lower",
     "none yet: bounds uses closed-form trapping times and never calls it",
     _calls("numerics.quad_inverse_sqrt")),
    ("numerics.quad_inverse_sqrt.self_s", "s", "lower",
     "none yet: bounds uses closed-form trapping times and never calls it",
     _self("numerics.quad_inverse_sqrt")),
    ("spectra.levels.self_s", "s", "lower", "wall_s on numerical",
     _self("spectra.levels")),
] + [
    (f"spectra.sgn_matrix.{kind}.self_s", "s", "lower",
     {"harmonic": "wall_s on numerical",
      "morse": "wall_s on numerical"}.get(kind, "wall_s where the model runs"),
     _self(f"spectra.sgn_matrix.{kind}"))
    for kind in MODEL_KINDS
] + [
    ("spectra.sgn_quadrature.calls", "count", "lower",
     "question_p50_s on closed-form", _calls("spectra.sgn_quadrature")),
    ("spectra.sgn_quadrature.self_s", "s", "lower",
     "question_p50_s on closed-form", _self("spectra.sgn_quadrature")),
    ("spectra.eigenfunction_grid.points", "count", "lower",
     "wall_s on numerical; not closed-form",
     _sum("spectra.eigenfunction_grid", "points")),
    ("spectra.eigenfunction_grid.self_s", "s", "lower",
     "wall_s on numerical; not closed-form",
     _self("spectra.eigenfunction_grid")),
    ("spectra.eigenfunction_grid.pendulum.points_per_s", "1/s", "higher",
     "wall_s on numerical",
     _rate("spectra.eigenfunction_grid.pendulum", "points")),
    ("spectra.eigenfunction_grid.closed_form.points_per_s", "1/s", "higher",
     "no end-to-end metric: closed-form is the control",
     _rate("spectra.eigenfunction_grid.closed_form", "points")),
    ("spectra.slice.max_dim", "count", "lower",
     "peak_rss_mb on numerical", _max_dim),
    ("protocol.max_score.calls", "count", "lower", "wall_s on closed-form",
     _calls("protocol.max_score")),
    ("protocol.max_score.self_s", "s", "lower",
     "wall_s on closed-form and numerical",
     _self("protocol.max_score")),
    ("protocol.score_state.calls", "count", "lower", "wall_s on closed-form",
     _calls("protocol.score_state")),
    ("protocol.score_state.self_s", "s", "lower", "wall_s on closed-form",
     _self("protocol.score_state")),
    ("protocol.truncated_slice.self_s", "s", "lower", "wall_s on closed-form",
     _self("protocol.truncated_slice")),
    ("protocol.maximize_over_tau.self_s", "s", "lower",
     "wall_s on closed-form", _self("protocol.maximize_over_tau")),
    ("protocol.scan_tau.points", "count", "lower", "wall_s on closed-form",
     _sum("protocol.scan_tau", "points")),
    ("protocol.scan_tau.error_points", "count", "lower",
     "failed operations on closed-form and numerical",
     _sum("protocol.scan_tau", "error_points")),
    ("classical.energy_window.self_s", "s", "lower", "wall_s on closed-form",
     _self("classical.energy_window")),
    ("classical.trapping_times.calls", "count", "lower", "wall_s on numerical",
     _calls("classical.trapping_times")),
    ("classical.trapping_times.self_s", "s", "lower", "wall_s on numerical",
     _self("classical.trapping_times")),
    ("classical.oracle.self_s", "s", "lower",
     "wall_s on closed-form and numerical", _self("classical.oracle")),
] + [
    (f"classical.oracle.{kind}.samples_per_s", "1/s", "higher",
     "wall_s on numerical" if kind in ("pendulum", "morse")
     else "no end-to-end metric: exact flows on closed-form",
     _rate(f"classical.oracle.{kind}", "samples"))
    for kind in MODEL_KINDS
] + [
    ("simulate.run_protocol.calls", "count", "lower", "wall_s on closed-form",
     _calls("simulate.run_protocol")),
    ("simulate.run_protocol.self_s", "s", "lower", "wall_s on closed-form",
     _self("simulate.run_protocol")),
    ("simulate.run_protocol.failed", "count", "lower",
     "failed operations on numerical",
     lambda st, extra: st.errors["simulate.run_protocol"]),
    ("simulate.rounds_per_s", "1/s", "higher", "wall_s on closed-form",
     _rate("simulate.run_protocol", "rounds")),
    ("phasespace.wigner_cartesian.self_s", "s", "lower", "wall_s on numerical",
     _self("phasespace.wigner_cartesian")),
    ("phasespace.wigner_angular.self_s", "s", "lower", "wall_s on numerical",
     _self("phasespace.wigner_angular")),
    ("phasespace.cells", "count", "lower", "wall_s on numerical",
     lambda st, extra: (st.sums["phasespace.wigner_cartesian", "cells"]
                        + st.sums["phasespace.wigner_angular", "cells"])),
    ("cli.main.self_s", "s", "lower", "wall_s on numerical", _self("cli.main")),
    ("cli.commands", "count", "lower", "wall_s on numerical", _calls("cli.main")),
    ("cli.exit_nonzero", "count", "lower", "failed operations on numerical",
     lambda st, extra: st.nonzero_exits),
    ("cli.bytes_written", "count", "lower", "wall_s on numerical",
     _extra("cli.bytes_written")),
    ("cli.slice_cache.hits", "count", "higher", "wall_s on numerical",
     _calls("cli.slice_cache.hit")),
    ("cli.slice_cache.misses", "count", "lower", "wall_s on numerical",
     _calls("cli.slice_cache.miss")),
    ("src.lines", "count", "lower", "nothing: recorded, not gated",
     _extra("src.lines")),
    ("trace.overhead_s", "s", "lower", "nothing: traced minus untraced wall_s",
     _extra("trace.overhead_s")),
]


def layer_metrics(spans, counters, extra):
    """Every per-layer metric, in the order of :data:`METRICS`."""
    st = Stats(spans, counters)
    return {name: {"value": fn(st, extra), "unit": unit}
            for name, unit, _better, _moves, fn in METRICS}
