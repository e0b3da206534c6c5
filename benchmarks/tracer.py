"""In-memory span tracer that instruments ordext from outside its source.

``instrument(tracer)`` replaces chosen ordext functions, wherever a module
of the package holds a reference to them, by wrappers that record a span
per call, and restores the originals on exit.  A span's self time is its
duration minus the time covered by spans opened inside it, so self times
partition the traced wall time.  Nothing is written out while tracing;
the caller reads the aggregates when the run ends.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Per-name call counts, inclusive time and self time, plus counters."""

    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self._child = []            # time covered by children, per open span

    def _close(self, name, start):
        duration = perf_counter() - start
        child = self._child.pop()
        if self._child:
            self._child[-1] += duration
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - child

    def wrap(self, name, fn, after=None):
        """fn recording one span per call; after(result, args, kwargs) runs
        once the span has closed, to update counters from the call."""
        child = self._child

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, start)
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced


def _ordext_modules():
    return [mod for name, mod in list(sys.modules.items())
            if name == "ordext" or name.startswith("ordext.")]


def _replace(original, replacement, undo, modules=None):
    for mod in modules or _ordext_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, attr, value))
                setattr(mod, attr, replacement)


@contextmanager
def instrument(tracer: Tracer):
    """Trace every ordext layer the benchmark reports on, then restore."""
    from ordext import (dependence, diagnostics, estimation, margins,
                        measure, simulate)

    counts = tracer.counts
    undo = []

    def patch(original, span, after=None, modules=None):
        _replace(original, tracer.wrap(span, original, after), undo, modules)

    def after_fit(fit, _args, _kwargs):
        counts["estimation.fit.outer_iters"] += len(fit.trace) - 1
        counts["estimation.fit.capped"] += int(not fit.converged)

    def after_minimize(res, _args, kwargs):
        method = kwargs["method"].lower().replace("-", "")
        counts[f"estimation.scalar.{method}_nfev"] += int(res.nfev)

    def after_write(_result, args, kwargs):
        path = args[1] if len(args) > 1 else kwargs["path_or_buf"]
        if isinstance(path, str):
            counts["diagnostics.write.bytes"] += os.path.getsize(path)

    patch(estimation.fit_restricted, "estimation.fit", after_fit)
    patch(estimation._initial_state, "estimation.init")
    patch(estimation._trial_boundary, "estimation.boundary")
    patch(estimation.pickands_curve, "estimation.pickands")
    patch(estimation.estimate_c_hat, "estimation.c_hat")
    # the closed forms count only as called by the fit's likelihood
    patch(estimation._v_closed, "measure.v_closed", modules=[estimation])
    patch(estimation._v_partials, "measure.v_partials", modules=[estimation])
    patch(estimation.minimize, "estimation.scalar", after_minimize,
          modules=[estimation])
    patch(measure.c_from_margins, "measure.c_from_margins")
    patch(measure.v_numeric, "measure.v_numeric")
    patch(simulate.sample_pairs, "simulate.sample_pairs")
    patch(simulate.run_study, "simulate.run_study")
    patch(margins.exp_scale, "margins.exp_scale")
    patch(diagnostics.pp_qq_tables, "diagnostics.pp_qq")
    patch(diagnostics.write_table, "diagnostics.write", after_write)
    patch(diagnostics.render_svg, "diagnostics.svg")

    traced_trend = tracer.wrap("estimation.trend", estimation.trend_penalized)

    def trend_penalized(objective, *args, **kwargs):
        def counted(g):
            counts["estimation.trend.objective_evals"] += 1
            return objective(g)
        return traced_trend(counted, *args, **kwargs)

    _replace(estimation.trend_penalized, trend_penalized, undo)

    lik = estimation._RestrictedLikelihood
    undo.append((lik, "terms", lik.terms))
    lik.terms = tracer.wrap("estimation.lik", lik.terms)

    for cls in vars(dependence).values():
        if (isinstance(cls, type) and issubclass(cls, dependence.DependenceModel)
                and cls is not dependence.DependenceModel):
            for meth in ("a", "a_prime", "h"):
                if meth in vars(cls):
                    undo.append((cls, meth, vars(cls)[meth]))
                    setattr(cls, meth, tracer.wrap("dependence", vars(cls)[meth]))
    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
