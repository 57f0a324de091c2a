"""Batch front door: fit datasets, audit derivatives, run Monte Carlo studies.

Configuration is strict JSON (unknown keys are rejected) with command-line
flags overriding config fields.  Exit codes are a stable contract:

    0  success
    1  parse or configuration error
    2  estimating equation did not converge
    3  a model condition check failed (use --force to override)
    4  a derivative audit exceeded its tolerance
    5  Monte Carlo harness alarm (too many failed replications)
    6  any other numerical failure (singular information or Jacobian, an
       empty risk set, a collapsed density, ...)
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import audits, estimator, simulation
from .errors import (
    ContractionViolation,
    HarnessAlarm,
    InvalidConfig,
    InvalidInput,
    NoConvergence,
    ProfixError,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_CONVERGENCE = 2
EXIT_CONDITION = 3
EXIT_AUDIT = 4
EXIT_ALARM = 5
EXIT_NUMERICAL = 6

#: Exit codes of the errors beside the usage errors that have their own.
_ERROR_EXITS = {NoConvergence: EXIT_NO_CONVERGENCE,
                ContractionViolation: EXIT_CONDITION, HarnessAlarm: EXIT_ALARM}


def _load_config(path, allowed):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise InvalidConfig(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidConfig(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(payload, dict):
        raise InvalidConfig(f"{path}: top level must be a JSON object")
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise InvalidConfig(f"{path}: unknown config keys {unknown}")
    return payload


def _merge(config, flags):
    merged = dict(config)
    for key, value in flags.items():
        if value is not None:
            merged[key] = value
    return merged


def _merge_into(payload, fields):
    """Add fields to payload, merging the dictionaries both have."""
    for key, value in fields.items():
        if isinstance(value, dict) and isinstance(payload.get(key), dict):
            _merge_into(payload[key], value)
        else:
            payload[key] = value


def _parse_vector(text):
    try:
        return [float(part) for part in str(text).split(",")]
    except ValueError as exc:
        raise InvalidConfig(f"cannot parse vector {text!r}") from exc


def _cell(value, width):
    """value right-aligned in width after a space, in %g form if %f overflows."""
    text = f"{value:.6f}"
    if len(text) >= width:
        text = f"{value:.6g}"
    return f" {text:>{width - 1}}"


def _print_fit_table(fit, intervals, labels):
    print(f"{'component':<12}{'estimate':>14}{'se':>12}{'ci_low':>12}{'ci_high':>12}")
    for label, est, se, (lo, hi) in zip(labels, fit.theta_hat, fit.se, intervals):
        cells = (_cell(est, 14), _cell(se, 12), _cell(lo, 12), _cell(hi, 12))
        print(f"{label:<11} " + "".join(cells))


_FIT_KEYS = ("model", "data", "out", "theta0", "tol", "max_newton", "force", "level")


def cmd_fit(args):
    config = _merge(
        _load_config(args.config, _FIT_KEYS),
        {
            "model": args.model,
            "data": args.data,
            "out": args.out,
            "theta0": _parse_vector(args.theta0) if args.theta0 else None,
            "tol": args.tol,
            "max_newton": args.max_newton,
            "force": True if args.force else None,
            "level": args.level,
        },
    )
    family = simulation.get_family(config.get("model"))
    data_path = config.get("data")
    if not data_path:
        raise InvalidConfig("a data file is required")
    if not os.path.exists(data_path):
        raise InvalidConfig(f"data file not found: {data_path}")

    model = family.load_csv(data_path)
    profile = family.profile(model)
    theta0 = family.default_start(model)
    if config.get("theta0") is not None:
        theta0 = np.asarray(config["theta0"], dtype=float)

    level = float(config.get("level", 0.95))
    estimator.check_level(level)
    force = bool(config.get("force", False))
    try:
        fit = estimator.profile_mle(
            profile,
            theta0,
            tol=float(config.get("tol", 1e-8)),
            max_newton=int(config.get("max_newton", 50)),
            force=force,
        )
    except ContractionViolation as exc:
        print(f"condition check failed: {exc}", file=sys.stderr)
        return EXIT_CONDITION
    except NoConvergence as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE

    intervals = estimator.confidence_interval(fit, level)
    payload = fit.to_dict()
    payload["model"] = family.name
    payload["level"] = level
    payload["ci"] = intervals
    _merge_into(payload, family.fit_payload(profile, fit.theta_hat))

    out_path = config.get("out")
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
    _print_fit_table(fit, intervals, family.labels(model))
    return EXIT_OK


_CHECK_KEYS = ("model", "data", "population", "seed", "n")


def cmd_check_derivs(args):
    config = _merge(
        _load_config(args.config, _CHECK_KEYS),
        {
            "model": args.model,
            "data": args.data,
            "population": True if args.population else None,
            "seed": args.seed,
            "n": args.n,
        },
    )
    family = simulation.get_family(config.get("model"))
    population = bool(config.get("population", False))
    model = None
    if not population and config.get("data"):
        model = family.load_csv(config["data"])
    rows = audits.run_audits(
        family.name,
        model=model,
        seed=int(config.get("seed", 0)),
        n=int(config.get("n", 20)),
        population=population,
        corrupt=args.corrupt,
    )
    width = max(len(r.name) for r in rows)
    print(f"{'audit':<{width + 2}}{'max_rel_err':>14}{'tol':>10}  status")
    offenders = []
    for row in rows:
        status = "ok" if row.passed else "FAIL"
        print(f"{row.name:<{width + 2}}{row.value:>14.3e}{row.tol:>10.0e}  {status}")
        if not row.passed:
            offenders.append(row.name)
    if offenders:
        print(f"audits failed: {', '.join(offenders)}", file=sys.stderr)
        return EXIT_AUDIT
    return EXIT_OK


_MC_KEYS = (
    "model", "n", "replications", "seed", "design", "theta_start",
    "fit_tol", "max_newton", "solver_tol", "out_prefix",
)


def _build_design(family, payload):
    if payload is None:
        return None
    if not isinstance(payload, dict):
        raise InvalidConfig("design must be a JSON object")
    allowed = {f.name for f in dataclasses.fields(family.design)}
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise InvalidConfig(f"unknown design keys {unknown}")
    cleaned = {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in payload.items()
    }
    design = family.design(**cleaned)
    design.validate()
    return design


def cmd_monte_carlo(args):
    config = _merge(
        _load_config(args.config, _MC_KEYS),
        {
            "seed": args.seed,
            "out_prefix": args.out_prefix,
        },
    )
    family = simulation.get_family(config.get("model"))
    for key in ("n", "replications"):
        if key not in config:
            raise InvalidConfig(f"missing required config key {key!r}")
    design = _build_design(family, config.get("design"))
    sim = simulation.SimConfig(
        model=family.name,
        n=int(config["n"]),
        replications=int(config["replications"]),
        seed=int(config.get("seed", 0)),
        design=design,
        theta_start=(
            tuple(config["theta_start"]) if config.get("theta_start") else None
        ),
        fit_tol=float(config.get("fit_tol", 1e-8)),
        max_newton=int(config.get("max_newton", 50)),
        solver_tol=float(config.get("solver_tol", 1e-10)),
    )
    if args.jobs < 1:
        raise InvalidConfig(f"--jobs must be at least 1, got {args.jobs}")
    out_prefix = config.get("out_prefix")

    alarmed = False
    try:
        report = simulation.monte_carlo(sim, jobs=args.jobs)
    except HarnessAlarm as exc:
        print(f"harness alarm: {exc}", file=sys.stderr)
        report = exc.report
        alarmed = True
    if out_prefix:
        with open(f"{out_prefix}_report.json", "w") as fh:
            fh.write(report.to_json())
        report.write_records_csv(f"{out_prefix}_replications.csv")
    print(report.to_json())
    return EXIT_ALARM if alarmed else EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="profix",
        description=(
            "Profile likelihood estimation for semiparametric models whose "
            "nuisance parameter solves a fixed-point equation"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a dataset and report estimates")
    fit.add_argument("--config", help="JSON config file")
    fit.add_argument("--model", choices=tuple(simulation.FAMILIES))
    fit.add_argument("--data", help="CSV data file")
    fit.add_argument("--out", help="write the fit result JSON here")
    fit.add_argument("--theta0", help="comma-separated starting point")
    fit.add_argument("--tol", type=float)
    fit.add_argument("--max-newton", dest="max_newton", type=int)
    fit.add_argument("--force", action="store_true",
                     help="skip the model condition gate")
    fit.add_argument("--level", type=float, help="confidence level")
    fit.set_defaults(func=cmd_fit)

    check = sub.add_parser(
        "check-derivs",
        help="audit every analytic derivative against difference quotients",
    )
    check.add_argument("--config", help="JSON config file")
    check.add_argument("--model", choices=tuple(simulation.FAMILIES))
    check.add_argument("--data", help="CSV data file (default: seeded synthetic)")
    check.add_argument("--population", action="store_true",
                       help="run the population-level checks instead")
    check.add_argument("--seed", type=int)
    check.add_argument("--n", type=int, help="synthetic dataset size")
    check.add_argument("--corrupt", help=argparse.SUPPRESS)
    check.set_defaults(func=cmd_check_derivs)

    mc = sub.add_parser("monte-carlo", help="run a Monte Carlo study")
    mc.add_argument("--config", help="JSON config file (SimConfig schema)")
    mc.add_argument("--out-prefix", dest="out_prefix",
                    help="prefix for the report JSON and replication CSV")
    mc.add_argument("--seed", type=int)
    mc.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                    help="parallel worker processes")
    mc.set_defaults(func=cmd_monte_carlo)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidConfig, InvalidInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ProfixError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _ERROR_EXITS.get(type(exc), EXIT_NUMERICAL)


if __name__ == "__main__":
    sys.exit(main())
