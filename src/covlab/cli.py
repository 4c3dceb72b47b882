"""Command-line entry points.

``covlab run --config path`` runs one experiment from a flat config
file; ``covlab suite --all`` runs the full acceptance matrix.  Exit
status 0 means every pass/fail row passed (informational rows carry no
verdict).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .harness import FORMATS, LEDGERS, emit_report, load_config, run_experiment, run_suite

# every ledger by its name, and the printed one also as "paper"
_LEDGER_ALIASES = {name: name for name in LEDGERS} | {"paper": "paper-printed"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covlab",
        description="lattice experiments for covariant field dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment from a config file")
    run_p.add_argument("--config", required=True, help="flat key: value config file")
    run_p.add_argument("--out", default=None, help="write the report here")
    run_p.add_argument("--format", choices=FORMATS, default=None)
    run_p.add_argument("--seed", type=int, default=None, help="override the seed")
    run_p.add_argument(
        "--ledger",
        choices=tuple(_LEDGER_ALIASES),
        default=None,
        help="sign-ledger flag (resolved | paper)",
    )

    suite_p = sub.add_parser("suite", help="run the acceptance matrix")
    suite_p.add_argument(
        "--all", action="store_true", help="run every experiment for both theories"
    )
    suite_p.add_argument("--out", default=None, help="write the combined report here")
    suite_p.add_argument("--format", choices=FORMATS, default="csv")
    suite_p.add_argument("--seed", type=int, default=42)
    suite_p.add_argument(
        "--ledger", choices=tuple(_LEDGER_ALIASES), default="resolved"
    )
    return parser


def _cmd_run(args) -> int:
    overrides = {
        "seed": args.seed,
        "sign_ledger": _LEDGER_ALIASES.get(args.ledger),
        "format": args.format,
        "out": args.out,
    }
    cfg = replace(
        load_config(args.config), **{k: v for k, v in overrides.items() if v is not None}
    )
    report = run_experiment(cfg)
    text = emit_report(report, cfg.out or None, cfg.format)
    sys.stdout.write(text)
    return 0 if report.all_pass else 1


def _cmd_suite(args) -> int:
    if not args.all:
        sys.stderr.write("suite requires --all (the full acceptance matrix)\n")
        return 2
    reports = run_suite(seed=args.seed, sign_ledger=_LEDGER_ALIASES[args.ledger])
    sys.stdout.write(emit_report(reports, args.out, args.format))
    return 0 if all(r.all_pass for r in reports) else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_suite(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"covlab: error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
