"""Command-line front end for pipeline runs, combiner fitting, and ingestion.

Bad input, I/O errors and solver or training failures surface as one
structured JSON line on stderr with exit code 1 so callers can script
against failures; TRK_LOG sets the logging level (its only configuration
channel).  Floating-point errors numpy meets during a command (overflow,
invalid values, division by zero) are logged at DEBUG instead of printed
as warnings, so stderr stays machine-readable.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .pipeline import (
    PipelineConfig,
    _read_risk_table,
    fit_combiner,
    ingest_dataset,
    run,
)

logger = logging.getLogger("trk")


def _configure_logging() -> None:
    level = os.environ.get("TRK_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


def _log_fp_error(kind: str, _flag: int) -> None:
    caller = sys._getframe(1)  # the frame whose numpy operation raised the error
    logger.debug("floating-point %s at %s:%d", kind, caller.f_code.co_filename, caller.f_lineno)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trk", description="Transfer-risk experiments and reports."
    )
    parser.add_argument("--version", action="version", version=f"trk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a configured experiment")
    run_p.add_argument("--config", required=True, help="path to the JSON run config")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--out", default=None, help="override the output directory")
    run_p.add_argument(
        "--override-risks",
        default=None,
        help="CSV of precomputed (source,target,input_risk,output_risk[,accuracy]) rows; "
        "skips training and only combines (empirical mode)",
    )

    fit_p = sub.add_parser("fit-combiner", help="fit combiner coefficients to observed rows")
    fit_p.add_argument(
        "--rows", required=True, help="CSV with input_risk, output_risk, accuracy columns"
    )
    fit_p.add_argument("--form", required=True, choices=["linear", "polynomial2"])
    fit_p.add_argument("--grid-size", type=int, default=50)
    fit_p.add_argument("--grid-max", type=float, default=2.0)

    ing_p = sub.add_parser("ingest-check", help="validate a dataset file and print its shape")
    ing_p.add_argument("--path", required=True)
    ing_p.add_argument("--format", default=None, choices=["csv", "json"])
    ing_p.add_argument("--label-column", default="label")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    overrides: dict = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    cfg = PipelineConfig.from_json(args.config, overrides)
    report = run(cfg, override_risks=args.override_risks)
    logger.info("wrote %s rows to %s", len(report["rows"]), cfg.out_dir)
    print(json.dumps({"out_dir": str(cfg.out_dir), "rows": len(report["rows"])}))
    return 0


def _cmd_fit_combiner(args: argparse.Namespace) -> int:
    table = _read_risk_table(args.rows, ("input_risk", "output_risk", "accuracy"))
    rows = [(e_in, e_out, accuracy) for _, e_in, e_out, accuracy in table if accuracy is not None]
    combiner, corr = fit_combiner(rows, args.form, args.grid_size, args.grid_max)
    fitted = {"form": args.form, **asdict(combiner)}
    print(json.dumps({"combiner": fitted, "correlation": corr}, sort_keys=True))
    return 0


def _cmd_ingest_check(args: argparse.Namespace) -> int:
    dist, _ = ingest_dataset(args.path, args.format, args.label_column)
    weighted = bool(len(set(dist.weights)) > 1)
    print(json.dumps({"rows": dist.size, "dim": dist.dim, "weighted": weighted}))
    return 0


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "fit-combiner": _cmd_fit_combiner,
        "ingest-check": _cmd_ingest_check,
    }
    try:
        with np.errstate(divide="call", over="call", invalid="call", call=_log_fp_error):
            return handlers[args.command](args)
    except (ValueError, OSError, RuntimeError) as err:
        print(json.dumps({"error": str(err)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
