"""Command-line front end.

    oss list
    oss check SCENARIO [--variant NAME] [--json]
    oss run SCENARIO [--out DIR] [--h STEP] [--t-end T] [--variant NAME] [--sweep] [--json]

SCENARIO is a bundled name (see ``oss list``) or a path to a scenario JSON
file.  Exit codes: 0 all expectations pass, 1 an expectation failed,
2 input error (a bad document, or a file that cannot be read or written),
3 the integration diverged.  An error in a scenario document names the
dotted path of the bad field, such as ``variants[0].sim.h``.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import OssError
from .scenarios import bundled_scenarios, check_scenario, load_scenario, run_scenario


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("scenario", help="bundled scenario name or path to a scenario JSON file")
    p.add_argument("--variant", default=None, help="run only this named variant")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="emit the report as JSON instead of text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oss",
        description="Optimal steady-state control: scenario checks, simulation, traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list bundled scenarios")

    p_check = sub.add_parser("check", help="run robustness/stabilizability checks (no simulation)")
    _add_common(p_check)

    p_run = sub.add_parser("run", help="simulate the closed loop and evaluate all expectations")
    _add_common(p_run)
    p_run.add_argument("--out", default=None, metavar="DIR",
                       help="directory for CSV trajectory traces")
    p_run.add_argument("--h", type=float, default=None, help="override integration step")
    p_run.add_argument("--t-end", type=float, default=None, help="override horizon")
    p_run.add_argument("--sweep", action="store_true",
                       help="also integrate each variant at every uncertainty sample")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name in bundled_scenarios():
            print(name)
        return 0
    try:
        sc = load_scenario(args.scenario)
        if args.command == "check":
            report = check_scenario(sc, variant=args.variant)
        else:
            report, _ = run_scenario(sc, variant=args.variant, out_dir=args.out,
                                     h=args.h, t_end=args.t_end, sweep=args.sweep)
    except (OSError, ValueError, OssError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.as_json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
