"""Spans around the program's layer entry points, and the metrics they give.

The program itself is not instrumented: ``install`` replaces each public
entry point at the name its callers look it up by (a module attribute or a
class attribute) with a wrapper that records a span, and ``uninstall``
puts the originals back.  A span records its name, the layer whose code it
times, its start and end, its parent span and the operation it belongs to.
Spans stay in memory until the run ends.

A layer's self time is the time of its spans minus the time of their
direct children.  The span around ``FixedPointProblem.apply`` counts as the
model family's layer, because that callback is the family's operator code.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import json
import statistics
from time import perf_counter

LAYERS = (
    "estimator", "numdiff", "fixed_point", "measures", "implicit_diff",
    "prop_odds", "missing_cov", "simulation",
)
FAMILIES = ("prop_odds", "missing_cov")


class Span:
    __slots__ = ("name", "layer", "parent", "op", "start", "end", "attrs")

    def __init__(self, name, layer, parent, op):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.attrs = None

    @property
    def duration(self):
        return self.end - self.start

    def to_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}


class Tracer:
    """In-memory span recorder for one single-threaded run.

    Operation ids count up from 0 in the order operation spans open; spans
    outside every operation get op -1.  A call made while a span of the
    same name is open (a density derivative calling the density, say)
    records no span of its own.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = -1
        self.n_ops = 0

    def call(self, name, layer, fn, args, kwargs, attrs=None, op=False):
        stack = self._stack
        if stack and self.spans[stack[-1]].name == name:
            return fn(*args, **kwargs)
        outer_op = self._op
        if op:
            self._op = self.n_ops
            self.n_ops += 1
        span = Span(name, layer, stack[-1] if stack else -1, self._op)
        stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            stack.pop()
            self._op = outer_op
        if attrs is not None:
            span.attrs = attrs(args, result)
        return result

    def write(self, path):
        """Write the spans as gzipped JSON lines, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")


def _solution_attrs(args, sol):
    return {"iterations": sol.iterations, "contraction": sol.contraction_estimate}


def _resolvent_attrs(args, v):
    m = v.shape[0]
    k = v.shape[1] if v.ndim == 2 else 1
    return {"m": m, "k": k, "flop": 2.0 / 3.0 * m**3 + 4.0 * m * m * k}


def _linear_map_attrs(args, _):
    return {"bytes": args[0].matrix.size * 8}


def install(tracer):
    """Wrap the layer entry points; returns the patches for ``uninstall``."""
    from profix import (
        estimator, implicit_diff, measures, missing_cov, prop_odds, simulation,
    )

    patches = []

    def wrap(owner, attr, name, layer, attrs=None, adapt=None):
        original = owner.__dict__[attr]
        fn = original.__func__ if isinstance(original, classmethod) else original
        if adapt is not None:
            fn = adapt(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, layer, fn, args, kwargs, attrs)

        setattr(owner, attr, classmethod(traced) if isinstance(original, classmethod) else traced)
        patches.append((owner, attr, original))

    def traced_apply(family):
        def adapt(solve):
            def run(problem, eta0, *args, **kwargs):
                apply = problem.apply

                def timed(v):
                    return tracer.call("fixed_point.apply", family, apply, (v,), {})

                return solve(dataclasses.replace(problem, apply=timed), eta0, *args, **kwargs)
            return run
        return adapt

    wrap(estimator, "profile_mle", "estimator.profile_mle", "estimator")
    wrap(estimator, "efficient_information", "estimator.efficient_information", "estimator")
    wrap(estimator, "confidence_interval", "estimator.confidence_interval", "estimator")
    for family, profile_cls, model_cls in (
        (prop_odds, prop_odds.PropOddsProfile, prop_odds.PropOddsModel),
        (missing_cov, missing_cov.MissingCovProfile, missing_cov.MissingCovModel),
    ):
        layer = family.__name__.rsplit(".", 1)[1]
        for method in ("score", "mean_score", "jacobian"):
            wrap(profile_cls, method, f"{layer}.{method}", layer)
        wrap(model_cls, "from_arrays", f"{layer}.model_build", layer)
        wrap(family, "psi_derivatives", f"{layer}.psi_derivatives", layer)
        wrap(family, "solve_fixed_point", "fixed_point.solve", "fixed_point",
             attrs=_solution_attrs, adapt=traced_apply(layer))
    wrap(prop_odds, "psi_apply", "prop_odds.psi_apply", "prop_odds")
    wrap(prop_odds, "fd_theta", "numdiff.fd_theta", "numdiff")
    # the fixed-point iteration calls psi_masses; psi_apply is the same operator
    wrap(missing_cov, "psi_masses", "missing_cov.psi_apply", "missing_cov")
    wrap(missing_cov, "psi_apply", "missing_cov.psi_apply", "missing_cov")
    wrap(missing_cov, "score_jacobian", "missing_cov.score_jacobian", "missing_cov")
    for method in ("density", "dtheta", "d2theta"):
        wrap(missing_cov.NormalRegression, method, "missing_cov.density", "missing_cov")
    wrap(implicit_diff, "resolvent_apply", "implicit_diff.resolvent", "implicit_diff",
         attrs=_resolvent_attrs)
    wrap(measures.StepFunction, "__init__", "measures.step_build", "measures")
    wrap(measures.LinearMap, "__init__", "measures.linear_map", "measures",
         attrs=_linear_map_attrs)
    wrap(simulation, "gen_prop_odds", "simulation.generate", "simulation")
    wrap(simulation, "gen_missing_cov", "simulation.generate", "simulation")
    wrap(simulation, "run_replication", "simulation.replication", "simulation")
    return patches


def uninstall(patches):
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


#: Per-layer metrics: name -> unit.  A layer the workload never calls has
#: zero counts and times.
METRICS = {
    "estimator.newton_steps": "1/op",
    "estimator.halvings": "1/op",
    "estimator.score_calls": "1/op",
    "estimator.jacobian_s": "s/op",
    "estimator.information_s": "s/op",
    "numdiff.fd_theta_calls": "1/op",
    "numdiff.fd_theta_s": "s/op",
    "fixed_point.solves": "1/op",
    "fixed_point.iterations": "1/op",
    "fixed_point.solve_s": "s/op",
    "fixed_point.apply_s": "s/op",
    "fixed_point.contraction_p50": "ratio",
    "measures.step_builds": "1/op",
    "measures.step_build_s": "s/op",
    "measures.dense_bytes_computed": "B/op",
    "implicit_diff.resolvent_calls": "1/op",
    "implicit_diff.resolvent_s": "s/op",
    "implicit_diff.resolvent_m_max": "count",
    "implicit_diff.resolvent_gflop_computed": "GFLOP/op",
    "prop_odds.psi_apply_calls": "1/op",
    "prop_odds.psi_apply_s": "s/op",
    "prop_odds.psi_derivatives_s": "s/op",
    "prop_odds.score_s": "s/op",
    "prop_odds.model_build_s": "s/op",
    "missing_cov.psi_apply_calls": "1/op",
    "missing_cov.psi_apply_s": "s/op",
    "missing_cov.psi_derivatives_s": "s/op",
    "missing_cov.score_jacobian_s": "s/op",
    "missing_cov.density_evals": "1/op",
    "missing_cov.density_s": "s/op",
    "simulation.generate_s": "s/op",
    "simulation.replication_s": "s/op",
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "trace.op_s_traced": "s/op",
    "trace.op_s_untraced": "s/op",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(spans, counted_ops, op_s_untraced):
    """Per-operation layer metrics from a finished trace.

    Counts are averaged over the operations with id below ``counted_ops``
    (a fixed set for a fixed seed, so they repeat exactly); times over all
    traced operations.  ``op_s_untraced`` is the mean time of the same
    operations run without tracing.
    """
    ops = [s for s in spans if s.name == "bench.op"]
    n_ops = len(ops)
    counted = [s for s in spans if 0 <= s.op < counted_ops]

    def tally(*names):
        return sum(1 for s in counted if s.name in names)

    def count(*names):
        return tally(*names) / counted_ops

    def seconds(*names):
        return sum(s.duration for s in spans if s.name in names) / n_ops

    def each_family(method):
        return tuple(f"{family}.{method}" for family in FAMILIES)

    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration
    self_time = dict.fromkeys(LAYERS + ("bench",), 0.0)
    for s, covered in zip(spans, child_time):
        self_time[s.layer] += s.duration - covered
    total = sum(s.duration for s in spans if s.parent < 0)

    # a call that raised has no attributes
    solves = [s.attrs for s in counted if s.name == "fixed_point.solve" and s.attrs]
    resolvents = [s.attrs for s in counted if s.name == "implicit_diff.resolvent" and s.attrs]
    # profile_mle scores its start once, then each Newton step (one Jacobian)
    # scores one candidate per halving plus the candidate it accepts
    candidates = sum(
        1 for s in counted
        if s.name in each_family("mean_score") and s.parent >= 0
        and spans[s.parent].name == "estimator.profile_mle"
    )
    halvings = candidates - tally("estimator.profile_mle") - tally(*each_family("jacobian"))
    op_s_traced = sum(s.duration for s in ops) / n_ops

    out = {
        "estimator.newton_steps": count(*each_family("jacobian")),
        "estimator.halvings": halvings / counted_ops,
        "estimator.score_calls": count(*each_family("score")),
        "estimator.jacobian_s": seconds(*each_family("jacobian")),
        "estimator.information_s": seconds("estimator.efficient_information"),
        "numdiff.fd_theta_calls": count("numdiff.fd_theta"),
        "numdiff.fd_theta_s": seconds("numdiff.fd_theta"),
        "fixed_point.solves": len(solves) / counted_ops,
        "fixed_point.iterations": sum(a["iterations"] for a in solves) / counted_ops,
        "fixed_point.solve_s": seconds("fixed_point.solve"),
        "fixed_point.apply_s": seconds("fixed_point.apply"),
        "fixed_point.contraction_p50": (
            statistics.median(a["contraction"] for a in solves) if solves else 0.0
        ),
        "measures.step_builds": count("measures.step_build"),
        "measures.step_build_s": seconds("measures.step_build"),
        "measures.dense_bytes_computed": sum(
            s.attrs["bytes"] for s in counted if s.name == "measures.linear_map"
        ) / counted_ops,
        "implicit_diff.resolvent_calls": len(resolvents) / counted_ops,
        "implicit_diff.resolvent_s": seconds("implicit_diff.resolvent"),
        "implicit_diff.resolvent_m_max": max((a["m"] for a in resolvents), default=0),
        "implicit_diff.resolvent_gflop_computed": (
            sum(a["flop"] for a in resolvents) / counted_ops / 1e9
        ),
        "prop_odds.psi_apply_calls": count("prop_odds.psi_apply"),
        "prop_odds.psi_apply_s": seconds("prop_odds.psi_apply"),
        "prop_odds.psi_derivatives_s": seconds("prop_odds.psi_derivatives"),
        "prop_odds.score_s": seconds("prop_odds.score"),
        "prop_odds.model_build_s": seconds("prop_odds.model_build"),
        "missing_cov.psi_apply_calls": count("missing_cov.psi_apply"),
        "missing_cov.psi_apply_s": seconds("missing_cov.psi_apply"),
        "missing_cov.psi_derivatives_s": seconds("missing_cov.psi_derivatives"),
        "missing_cov.score_jacobian_s": seconds("missing_cov.score_jacobian"),
        "missing_cov.density_evals": count("missing_cov.density"),
        "missing_cov.density_s": seconds("missing_cov.density"),
        "simulation.generate_s": seconds("simulation.generate"),
        "simulation.replication_s": seconds("simulation.replication"),
        **{f"{layer}.self_share": self_time[layer] / total for layer in LAYERS},
        "trace.op_s_traced": op_s_traced,
        "trace.op_s_untraced": op_s_untraced,
        "trace.overhead_frac": op_s_traced / op_s_untraced - 1.0,
    }
    return {name: out[name] for name in METRICS}
