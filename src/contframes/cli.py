"""Command-line front end for the verification suites.

Subcommands: ``verify`` runs a seeded suite, ``gabor`` / ``wavelet`` run the
two concrete transform studies, ``multiplier`` evaluates a configured
multiplier from a JSON file, and ``report`` re-renders a saved report.
The process exits 0 when every check passed, 1 on failing checks and 2 on
usage or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import InvalidParameterError, ShapeMismatchError
from .reporting import Report
from .suites import (
    CALDERON_DEFAULTS,
    CONFIG_KEYS,
    SUITES,
    SuiteConfig,
    run_gabor,
    run_multiplier,
    run_suite,
    run_wavelet,
)
from .tf_frames import WindowSpec


def _parse_tolerances(pairs: list[str] | None) -> dict[str, float]:
    tolerances: dict[str, float] = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise InvalidParameterError(f"expected KEY=VALUE, got {pair!r}")
        tolerances[key] = float(value)
    return tolerances


def _suite_config(args: argparse.Namespace) -> SuiteConfig:
    """The configuration of a verify run: its --config file, which no flag
    setting a key of CONFIG_KEYS may accompany, or else its flags."""
    given = {key: getattr(args, key) for key in CONFIG_KEYS
             if getattr(args, key, None) is not None}
    if args.config:
        if given:
            raise InvalidParameterError(
                "--config sets the whole suite configuration; drop "
                + ", ".join(args.flags[key] for key in given))
        return SuiteConfig.from_dict(json.loads(Path(args.config).read_text()))
    if "tolerances" in given:
        given["tolerances"] = _parse_tolerances(given["tolerances"])
    return SuiteConfig.from_dict(given)


def _number(value: float | None, spec: str) -> str:
    return "n/a" if value is None else format(value, spec)


def _emit(report: Report, fmt: str, out: str | None) -> None:
    text = report.to_json() if fmt == "json" else report.to_csv()
    if out:
        Path(out).write_text(text)
    for check in report.sorted_checks():
        status = "PASS" if check.passed else "FAIL"
        line = (f"[{status}] {check.check_id}: "
                f"measured={_number(check.measured, '.6g')} "
                f"budget={_number(check.budget, '.6g')} "
                f"tol={_number(check.tolerance, 'g')}")
        if check.detail:
            line += f"  ({check.detail})"
        if check.error:
            line += f"  (error: {check.error})"
        print(line)
    summary = report.summary
    print(f"{report.suite}: {summary['passed']}/{summary['total']} checks passed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contframes",
        description="verification suites for sampled continuous frames and "
                    "frame multipliers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a seeded verification suite")
    # each flag sets the key of CONFIG_KEYS its dest names, as a --config file does
    flags = [verify.add_argument("--suite", help=f"one of {', '.join(SUITES)}"),
             verify.add_argument("--seed", type=int),
             verify.add_argument("--trials", type=int),
             verify.add_argument("--d", type=int),
             verify.add_argument("--n", type=int),
             verify.add_argument("--tol", dest="tolerances", action="append",
                                 metavar="KEY=VAL",
                                 help="override one check tolerance (repeatable)")]
    verify.add_argument("--config", default=None, metavar="PATH",
                        help="load the whole suite configuration from a JSON "
                             "file instead of the flags above")
    verify.add_argument("--out", default=None, metavar="PATH")
    flags.append(verify.add_argument("--format", choices=("json", "csv")))
    verify.set_defaults(flags={flag.dest: flag.option_strings[0] for flag in flags})

    gabor = sub.add_parser("gabor", help="tightness report for a cyclic Gabor system")
    gabor.add_argument("--d", type=int, default=8)
    gabor.add_argument("--window", default="gaussian",
                       help="'gaussian' or a path to a JSON list of samples")
    gabor.add_argument("--out", default=None, metavar="PATH")
    gabor.add_argument("--format", choices=("json", "csv"), default="json")

    wavelet = sub.add_parser("wavelet", help="admissibility and reconstruction report")
    wavelet.add_argument("--d", type=int, default=CALDERON_DEFAULTS["d"])
    wavelet.add_argument("--a-min", type=float, default=CALDERON_DEFAULTS["a_min"])
    wavelet.add_argument("--a-max", type=float, default=CALDERON_DEFAULTS["a_max"])
    wavelet.add_argument("--n-a", type=int, default=CALDERON_DEFAULTS["n_a"])
    wavelet.add_argument("--n-b", type=int, default=None)
    wavelet.add_argument("--band", type=float, nargs=2, default=CALDERON_DEFAULTS["band"],
                         metavar=("LO", "HI"))
    wavelet.add_argument("--taper", type=float, default=CALDERON_DEFAULTS["taper"])
    wavelet.add_argument("--out", default=None, metavar="PATH")
    wavelet.add_argument("--format", choices=("json", "csv"), default="json")

    multiplier = sub.add_parser("multiplier",
                                help="the algebra suite checks of one configured multiplier")
    multiplier.add_argument("--config", required=True, metavar="PATH",
                            help="JSON file with analysis_frame, synthesis_frame, symbol")
    multiplier.add_argument("--out", default=None, metavar="PATH")
    multiplier.add_argument("--sigma-csv", default=None, metavar="PATH",
                            help="write the singular values as index,sigma CSV")
    multiplier.add_argument("--format", choices=("json", "csv"), default="json")

    render = sub.add_parser("report", help="re-render a saved JSON report")
    render.add_argument("--in", dest="input", required=True, metavar="PATH")
    render.add_argument("--out", default=None, metavar="PATH")
    render.add_argument("--format", choices=("json", "csv"), default="csv")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0

    try:
        if args.command == "verify":
            config = _suite_config(args)
            args.out, args.format = args.out or config.output, config.format
            report = run_suite(config)
        elif args.command == "gabor":
            if args.window == "gaussian":
                window = WindowSpec("gaussian")
            else:
                samples = json.loads(Path(args.window).read_text())
                window = WindowSpec("given-samples", samples=samples)
            report = run_gabor(args.d, window)
        elif args.command == "wavelet":
            report = run_wavelet(d=args.d, a_min=args.a_min, a_max=args.a_max,
                                 n_a=args.n_a, n_b=args.n_b,
                                 band=tuple(args.band), taper=args.taper)
        elif args.command == "multiplier":
            config = json.loads(Path(args.config).read_text())
            report, sigma_csv = run_multiplier(config)
            if args.sigma_csv:
                Path(args.sigma_csv).write_text(sigma_csv)
        else:  # report
            data = json.loads(Path(args.input).read_text())
            report = Report.from_dict(data)
    except (InvalidParameterError, ShapeMismatchError, KeyError,
            json.JSONDecodeError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    _emit(report, args.format, args.out)
    return 0 if report.all_passed else 1


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
