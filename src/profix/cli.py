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
import collections
import dataclasses
import json
import os
import sys
import typing

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


#: One option of a subcommand: its config key, its type (a key of _JSON_TYPES,
#: optional as in ``tuple | None``, or ``object``, the family's design), its
#: flag (or None) and the flag's help.
Option = collections.namedtuple("Option", "key kind flag help", defaults=(None, None))

#: The JSON type of a config value, by the option type it gives.
_JSON_TYPES = {str: "a string", bool: "true or false", int: "an integer",
               float: "a number", tuple: "an array of numbers"}

FIT_OPTIONS = (
    Option("model", str, "--model"),
    Option("data", str, "--data", "CSV data file"),
    Option("out", str, "--out", "write the fit result JSON here"),
    Option("theta0", tuple, "--theta0", "comma-separated starting point"),
    Option("tol", float, "--tol"),
    Option("max_newton", int, "--max-newton"),
    Option("force", bool, "--force", "skip the model condition gate"),
    Option("level", float, "--level", "confidence level"),
)

CHECK_OPTIONS = (
    Option("model", str, "--model"),
    Option("data", str, "--data", "CSV data file (default: seeded synthetic)"),
    Option("population", bool, "--population", "run the population-level checks instead"),
    Option("seed", int, "--seed"),
    Option("n", int, "--n", "synthetic dataset size"),
)

#: The fields of SimConfig, typed by their annotations, then out_prefix.
MC_OPTIONS = tuple(
    Option(name, kind, "--seed" if name == "seed" else None)
    for name, kind in typing.get_type_hints(simulation.SimConfig).items()
) + (Option("out_prefix", str, "--out-prefix",
            "prefix for the report JSON and replication CSV"),)


def _typed(value, kind, where):
    """value as an option of type kind, or InvalidConfig naming where.

    A design (a dataclass) is a JSON object of its fields, each typed by the
    field's annotation.  An integer may be written as an integral number.
    """
    if type(None) in typing.get_args(kind):
        if value is None:
            return None
        kind, = set(typing.get_args(kind)) - {type(None)}
    if dataclasses.is_dataclass(kind) and isinstance(value, dict):
        hints = typing.get_type_hints(kind)
        unknown = sorted(set(value) - set(hints))
        if unknown:
            raise InvalidConfig(f"{where}: unknown design keys {unknown}")
        design = kind(**{key: _typed(item, hints[key], f"{where}.{key}")
                         for key, item in value.items()})
        design.validate()
        return design
    number = type(value) in (int, float)  # bool is neither
    if kind is float and number:
        return float(value)
    if kind is int and number and (type(value) is int or value.is_integer()):
        return int(value)
    if kind is tuple and isinstance(value, list) and all(
            type(item) in (int, float) for item in value):
        return tuple(map(float, value))
    if kind in (str, bool) and type(value) is kind:
        return value
    expected = _JSON_TYPES.get(kind, "an object")
    raise InvalidConfig(f"{where} must be {expected}, got {json.dumps(value)}")


def _options(args, table):
    """The options of table that args sets, by key, each typed.

    A given flag wins over the key in the JSON config file ``args.config``;
    a null config value leaves the key unset.  Unknown config keys and
    values of the wrong JSON type raise InvalidConfig.
    """
    path, config = args.config, {}
    if path is not None:
        try:
            with open(path) as fh:
                config = json.load(fh)
        except OSError as exc:
            raise InvalidConfig(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InvalidConfig(
                f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        if not isinstance(config, dict):
            raise InvalidConfig(f"{path}: top level must be a JSON object")
    unknown = sorted(set(config) - {opt.key for opt in table})
    if unknown:
        raise InvalidConfig(f"{path}: unknown config keys {unknown}")
    values = {}
    for opt in table:
        if opt.key in args:  # flags default to unset
            value, where = getattr(args, opt.key), opt.flag
            if opt.kind is tuple:
                try:
                    value = [float(part) for part in value.split(",")]
                except ValueError as exc:
                    raise InvalidConfig(f"cannot parse vector {value!r}") from exc
        elif config.get(opt.key) is not None:
            value, where = config[opt.key], f"{path}: {opt.key}"
        else:
            continue
        kind = opt.kind
        if kind is object:  # the family's design, whose fields give its keys
            kind = simulation.get_family(values.get("model")).design
        values[opt.key] = _typed(value, kind, where)
    return values


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


def cmd_fit(args):
    options = _options(args, FIT_OPTIONS)
    family = simulation.get_family(options.pop("model", None))
    data_path = options.pop("data", None)
    if not data_path:
        raise InvalidConfig("a data file is required")
    out_path = options.pop("out", None)
    level = options.pop("level", estimator.LEVEL)
    estimator.check_level(level)

    model = family.load_csv(data_path)
    profile = family.profile(model)
    theta0 = options.pop("theta0") if "theta0" in options else family.default_start(model)
    try:
        fit = estimator.profile_mle(profile, theta0, **options)
    except ContractionViolation as exc:
        print(f"condition check failed: {exc}", file=sys.stderr)
        return EXIT_CONDITION
    except NoConvergence as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE

    intervals = estimator.confidence_interval(fit, level)
    payload = estimator.plain_fields(fit)
    payload.update(family.fit_payload(profile, fit.theta_hat),
                   model=family.name, level=level, ci=intervals)
    # the nuisance derivative's norm at the fit's accepted point, at theta_hat
    payload["diagnostics"]["nuisance"]["sup_norm"] = (
        profile.last_point.derivs.d_eta.sup_norm())

    if out_path:
        with open(out_path, "w") as fh:
            fh.write(estimator.to_json(payload))
    _print_fit_table(fit, intervals, family.labels(model))
    return EXIT_OK


def cmd_check_derivs(args):
    options = _options(args, CHECK_OPTIONS)
    family = simulation.get_family(options.pop("model", None))
    data_path = options.pop("data", None)
    if data_path and options.get("population"):
        raise InvalidConfig("the population checks read no data file")
    if data_path:
        options["model"] = family.load_csv(data_path)
    if "corrupt" in args:
        options["corrupt"] = args.corrupt
    rows = audits.run_audits(family.name, **options)
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


def cmd_monte_carlo(args):
    options = _options(args, MC_OPTIONS)
    out_prefix = options.pop("out_prefix", None)
    for field in dataclasses.fields(simulation.SimConfig):
        if field.default is dataclasses.MISSING and field.name not in options:
            raise InvalidConfig(f"missing required config key {field.name!r}")
    sim = simulation.SimConfig(**options)
    if args.jobs < 1:
        raise InvalidConfig(f"--jobs must be at least 1, got {args.jobs}")

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


def _add_subcommand(sub, name, help, table, func):
    """A subcommand parser with --config and the flags of table, unset if not given."""
    parser = sub.add_parser(name, help=help)
    parser.add_argument("--config", help="JSON config file")
    for opt in table:
        if opt.flag is None:
            continue
        kind = {"action": "store_true"} if opt.kind is bool else {
            "type": opt.kind if opt.kind in (int, float) else str,
            "choices": tuple(simulation.FAMILIES) if opt.key == "model" else None}
        parser.add_argument(opt.flag, default=argparse.SUPPRESS, help=opt.help, **kind)
    parser.set_defaults(func=func)
    return parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="profix",
        description=(
            "Profile likelihood estimation for semiparametric models whose "
            "nuisance parameter solves a fixed-point equation"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_subcommand(sub, "fit", "fit a dataset and report estimates", FIT_OPTIONS, cmd_fit)
    check = _add_subcommand(sub, "check-derivs", "audit every analytic derivative "
                            "against difference quotients", CHECK_OPTIONS, cmd_check_derivs)
    check.add_argument("--corrupt", default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    mc = _add_subcommand(sub, "monte-carlo", "run a Monte Carlo study", MC_OPTIONS,
                         cmd_monte_carlo)
    mc.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                    help="parallel worker processes")
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
