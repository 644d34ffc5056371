"""CLI for the determinism sanitizer.

Usage::

    # static nondeterminism lint (CI gate; exit 1 on findings)
    PYTHONPATH=src python -m repro.sanitize lint src/repro

    # list the lint rules
    PYTHONPATH=src python -m repro.sanitize rules

    # dual-replay a figure preset (downscaled) under two hash seeds
    PYTHONPATH=src python -m repro.sanitize replay --preset fig12 \
        --duration-s 0.3 --seed 7

    # sweep every preset (the nightly job)
    PYTHONPATH=src python -m repro.sanitize replay --all-presets \
        --duration-s 0.3

    # run every entry point under cProfile; fail on functions none enters
    PYTHONPATH=src python -m repro.sanitize reach --report reach-report.txt
"""

from __future__ import annotations

import argparse
import sys

from repro.sanitize.lint import RULES, lint_paths
from repro.sanitize.replay import dual_replay, replay_child_main


def _cmd_lint(args: argparse.Namespace) -> int:
    findings = lint_paths(args.paths)
    for finding in findings:
        print(finding.format())
    if findings:
        print(f"\n{len(findings)} nondeterminism finding(s)")
        return 1
    print("sanitize lint: clean")
    return 0


def _cmd_rules(_args: argparse.Namespace) -> int:
    for rule in RULES.values():
        print(f"{rule.code}  {rule.name:<20} {rule.summary}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.api import PRESETS, preset_spec

    if args.all_presets:
        names = sorted(PRESETS)
    elif args.preset:
        names = [args.preset]
    else:
        print("replay: pass --preset NAME or --all-presets",
              file=sys.stderr)
        return 2

    overrides: dict = {"seed": args.seed}
    if args.duration_s is not None:
        overrides["duration_s"] = args.duration_s

    status = 0
    for name in names:
        spec = preset_spec(name, **overrides)
        report = dual_replay(spec, hashseeds=tuple(args.hashseeds))
        print(f"== {name} (seed={args.seed}) ==")
        print(report.describe())
        if not report.ok:
            status = 1
    return status


def _cmd_reach(args: argparse.Namespace) -> int:
    from repro.sanitize import reach

    return reach.main(keep=args.keep, profiles=args.profiles,
                      report=args.report)


def _cmd_replay_child(_args: argparse.Namespace) -> int:
    print(replay_child_main(sys.stdin.read()))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.sanitize")
    sub = parser.add_subparsers(dest="command", required=True)

    p_lint = sub.add_parser("lint", help="static nondeterminism lint")
    p_lint.add_argument("paths", nargs="+",
                        help="files or directories to lint")
    p_lint.set_defaults(fn=_cmd_lint)

    p_rules = sub.add_parser("rules", help="list lint rules")
    p_rules.set_defaults(fn=_cmd_rules)

    p_replay = sub.add_parser(
        "replay", help="dual-replay divergence check on figure presets"
    )
    p_replay.add_argument("--preset", default=None,
                          help="preset name (see repro.api.PRESETS)")
    p_replay.add_argument("--all-presets", action="store_true",
                          help="sweep every preset")
    p_replay.add_argument("--seed", type=int, default=7,
                          help="experiment seed (default 7)")
    p_replay.add_argument("--duration-s", type=float, default=None,
                          help="override simulated duration in seconds")
    p_replay.add_argument("--hashseeds", type=int, nargs="+",
                          default=[1, 2],
                          help="PYTHONHASHSEED values for the hash leg")
    p_replay.set_defaults(fn=_cmd_replay)

    p_reach = sub.add_parser(
        "reach", help="fail on functions no entry point reaches"
    )
    p_reach.add_argument("--report", default=None, metavar="FILE",
                         help="also write the report to FILE")
    p_reach.add_argument("--keep", default=None, metavar="DIR",
                         help="keep each leg's profiles and log in DIR")
    p_reach.add_argument("--profiles", default=None, metavar="DIR",
                         help="judge the profiles a --keep run left in DIR; "
                              "run no leg")
    p_reach.set_defaults(fn=_cmd_reach)

    p_child = sub.add_parser(
        "replay-child",
        help="internal: one digest run, spec as JSON on stdin",
    )
    p_child.set_defaults(fn=_cmd_replay_child)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
