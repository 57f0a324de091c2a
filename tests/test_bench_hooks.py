"""The benchmark's tracer still finds every entry point it wraps.

``bench/tracing.py`` wraps the program's layer entry points by the names
their callers look them up by.  A refactor that moves one of them makes
``install`` fail here, in a fraction of a second.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracing = load_tracing()
    patches = tracing.install(tracing.Tracer())
    tracing.uninstall(patches)
    assert patches
    for owner, attr, original in patches:
        assert owner.__dict__[attr] is original


def test_tracer_records_each_familys_layers():
    # a call that routes around a wrapped name would silently zero the
    # per-layer metrics built on these spans
    from profix import estimator, simulation

    tracing = load_tracing()
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        # the survival audit design has the linear baseline
        for name, n in (("missing_cov", 100), ("prop_odds", 200)):
            family = simulation.get_family(name)
            rng = simulation.replication_rng(7, 0)
            model = simulation.draw_model(family, family.audit_design, n, rng)
            estimator.profile_mle(
                family.profile(model), family.default_start(model), force=True
            )
    finally:
        tracing.uninstall(patches)
    recorded = {span.name for span in tracer.spans}
    assert {
        "missing_cov.psi_derivatives", "missing_cov.score_jacobian",
        "prop_odds.psi_derivatives", "fixed_point.apply",
    } <= recorded
    # no solve of these fits fails, so every application is an iteration
    # of a completed solve, and fixed_point.iterations counts them all
    applies = sum(span.name == "fixed_point.apply" for span in tracer.spans)
    iterations = sum(span.attrs["iterations"] for span in tracer.spans
                     if span.name == "fixed_point.solve")
    assert applies == iterations


def test_tracer_counts_a_survival_fit():
    # the per-layer counts rest on profile_mle scoring its start and each
    # candidate through mean_score and taking one Jacobian per Newton step
    from profix import estimator, simulation

    tracing = load_tracing()
    tracer = tracing.Tracer()
    family = simulation.get_family("prop_odds")
    model = simulation.draw_model(
        family, family.audit_design, 200, simulation.replication_rng(7, 0)
    )

    def fit():
        return estimator.profile_mle(
            family.profile(model), family.default_start(model), force=True
        )

    patches = tracing.install(tracer)
    try:
        result = tracer.call("bench.op", "bench", fit, (), {}, op=True)
    finally:
        tracing.uninstall(patches)
    metrics = tracing.layer_metrics(tracer.spans, 1, 1.0)
    steps = metrics["estimator.newton_steps"]
    assert steps == result.iterations
    assert metrics["estimator.halvings"] >= 0
    assert metrics["numdiff.fd_theta_calls"] == 0
    assert metrics["estimator.score_calls"] == steps + metrics["estimator.halvings"] + 1
