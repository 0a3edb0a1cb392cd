"""Command-line entry point.

Exit codes: 0 on success, 2 when the analysis fails on the given data,
3 when the invocation itself is invalid.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .pipeline import (
    METHOD_NAMES,
    ConfigError,
    PipelineError,
    RunConfig,
    run_pipeline,
)
from .record_io import FormatError


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; remap to the config error
    # channel so the caller sees one consistent exit code.
    def error(self, message):
        raise ConfigError(message)


def _split_csv(value: str, what: str) -> tuple[str, ...]:
    items = tuple(part.strip() for part in value.split(","))
    if any(not part for part in items):
        raise ConfigError(f"empty entry in {what} list: {value!r}")
    return items


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cardiocausal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    analyze = sub.add_parser("analyze", help="run the full analysis")
    analyze.add_argument("--input", required=True, help="signal directory or parameter CSV")
    analyze.add_argument(
        "--input-kind", required=True, choices=("signals", "params"), dest="input_kind"
    )
    analyze.add_argument("--positions", default="supine,standing")
    analyze.add_argument("--methods", default=",".join(METHOD_NAMES))
    analyze.add_argument(
        "--seed", type=int, default=0,
        help="echoed in report.json; every method is deterministic, so it has no effect",
    )
    analyze.add_argument("--out", required=True, help="output directory")
    analyze.add_argument(
        "--mask-derived", choices=("exclude", "post-hoc"), default="exclude",
        dest="mask_derived",
    )
    analyze.add_argument(
        "--mediation", action="append", default=[], metavar="X,M,Y",
        help="mediation path to test; may repeat",
    )
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    mediation_paths = tuple(_split_csv(item, "mediation") for item in args.mediation)
    return RunConfig(
        input_path=args.input,
        input_kind=args.input_kind,
        positions=_split_csv(args.positions, "positions"),
        methods=_split_csv(args.methods, "methods"),
        seed=args.seed,
        out_dir=args.out,
        mask_derived=args.mask_derived,
        mediation_paths=mediation_paths,
    )


def _print_warnings(lines) -> None:
    for line in lines:
        print(f"warning: {line}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _config_from_args(args)
        if not Path(config.input_path).exists():
            raise ConfigError(f"input path does not exist: {config.input_path}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    try:
        report = run_pipeline(config)
    except (PipelineError, FormatError) as exc:
        _print_warnings(getattr(exc, "warnings", ()))  # a FormatError has none
        print(f"analysis failed: {exc}", file=sys.stderr)
        return 2

    _print_warnings(report.warnings)
    print(f"report written to {config.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
