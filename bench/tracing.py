"""In-memory spans around the teff layer boundaries.

Each span is ``[name, start, end, parent, request]``: ``parent`` is the
index of the enclosing span (-1 at top level) and ``request`` the id of
the request that caused it.  Wrappers are installed from outside the
package: a function is replaced in every teff module that binds it, so
``from .x import y`` bindings are traced as well as the defining module.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict

# (module, function) at each layer boundary; the span name is
# "<module>.<function>"
LAYER_FUNCTIONS = (
    ("potentials", "analyze_slice"),
    ("quadrature", "reduced_moment"),
    ("quadrature", "action_I"),
    ("transforms", "chi_d"),
    ("transforms", "chi_infinity"),
    ("transforms", "chi_profile"),
    ("spectrum", "quantize_energy"),
    ("spectrum", "enumerate_bound_states"),
    ("ordering", "diagram_data"),
    ("oracle", "solve_bound_state"),
    ("oracle", "bracket_bound_state"),
    ("oracle", "numerov_eigenvalue"),
)


class Tracer:
    """Records spans and call counts for one traced run."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.request = None
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def count_method(self, cls, attr, name):
        """Count calls of ``cls.attr`` without recording spans (too many)."""
        fn = getattr(cls, attr)
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(cls, attr, counted)

    def install(self):
        """Wrap every layer function in each loaded teff module that binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "teff" or key.startswith("teff."))]
        for mod_name, attr in LAYER_FUNCTIONS:
            original = getattr(sys.modules[f"teff.{mod_name}"], attr)
            traced = self.wrap(f"{mod_name}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
        self.count_method(sys.modules["teff.potentials"].Potential, "W", "potentials.W")


def self_times(spans):
    """Per-span self time: duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children.get(i, ())):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def has_ancestor(spans, i, name):
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


# per-layer call counts and self times, "<module>.<function>.calls|self_s",
# both per work unit of the workload (a level or a chi point) so that
# traced runs compare however long their prefix took
PER_UNIT = (
    "potentials.analyze_slice.calls", "potentials.analyze_slice.self_s",
    "quadrature.reduced_moment.calls", "quadrature.reduced_moment.self_s",
    "quadrature.action_I.calls", "quadrature.action_I.self_s",
    "transforms.chi_d.calls", "transforms.chi_d.self_s",
    "transforms.chi_infinity.calls", "transforms.chi_infinity.self_s",
    "spectrum.quantize_energy.calls", "spectrum.quantize_energy.self_s",
    "ordering.diagram_data.self_s",
    "oracle.solve_bound_state.calls", "oracle.solve_bound_state.self_s",
    "oracle.bracket_bound_state.self_s", "oracle.numerov_eigenvalue.self_s",
)


def _mean(xs):
    return statistics.fmean(xs) if xs else 0.0


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def layer_metrics(tracer, items, outcomes, import_s, tf_build_s, overhead):
    """The per-layer metrics from the spans of one traced prefix.

    Layers a workload never calls read 0.  The ``table.*`` entries are
    the rows of the ROADMAP baseline table, timed with tracing on.

    ``items[k]`` is the request whose spans carry request id ``k``.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for span, own in zip(spans, selfs):
        calls[span[0]] += 1
        self_s[span[0]] += own
    units = sum(o.units for o in outcomes)

    def per_unit(x):
        return x / units if units else 0.0

    def durations(name, keep=lambda item: True):
        return [s[2] - s[1] for s in spans if s[0] == name and keep(items[s[4]])]

    attempts = calls["spectrum.quantize_energy"]
    n1_evals = sum(1 for i, s in enumerate(spans) if s[0] == "quadrature.action_I"
                   and has_ancestor(spans, i, "spectrum.quantize_energy"))
    iterations = [k for o in outcomes for k in o.iterations]
    out = {
        "potentials.W.calls": per_unit(tracer.counts["potentials.W"]),
        "potentials.tf_table.build_s": tf_build_s,
        "spectrum.n1_evals_per_level": n1_evals / attempts if attempts else 0.0,
        "spectrum.outer_iterations_per_level": _mean(iterations),
        "spectrum.useful_frac": len(iterations) / attempts if attempts else 0.0,
        "ordering.crossings": per_unit(sum(o.crossings for o in outcomes)),
        "trace.overhead": overhead,
        "table.import_teff_s": import_s,
        "table.analyze_slice_ms": 1e3 * _mean(durations("potentials.analyze_slice")),
        "table.action_I_ms": 1e3 * _mean(durations("quadrature.action_I")),
        "table.chi_profile_yukawa_ms": 1e3 * _mean(durations(
            "transforms.chi_profile", lambda it: it.tag == "table1:screened:kind=exp,Z=1")),
        "table.chi_profile_tf_e0_ms": 1e3 * _mean(durations(
            "transforms.chi_profile", lambda it: it.tag == "table1:screened:kind=tf,Z=1")),
        "table.quantize_energy_screened_ms": 1e3 * _median(durations(
            "spectrum.quantize_energy", lambda it: it.spec.startswith("screened:"))),
        "table.quantize_energy_linear_ms": 1e3 * _median(durations(
            "spectrum.quantize_energy", lambda it: it.tag == "anchor:linear")),
        "table.yukawa_z50_enumeration_s": _mean(durations(
            "spectrum.enumerate_bound_states", lambda it: it.tag == "anchor:yukawa50")),
        "table.oracle_level_s": _median(durations("oracle.solve_bound_state")),
    }
    for name in PER_UNIT:
        layer, _, kind = name.rpartition(".")
        out[name] = per_unit(calls[layer] if kind == "calls" else self_s[layer])
    return out
