"""gllc_lint command line.

    python3 -m gllc_lint                      # run every checker
    python3 -m gllc_lint --checkers a,b       # a subset
    python3 -m gllc_lint --json findings.json # machine-readable
    python3 -m gllc_lint --json -             # JSON to stdout
    python3 -m gllc_lint --list-checkers
    python3 -m gllc_lint --update-metrics-doc # rewrite docs/METRICS.md

with tools/ on the module path (`PYTHONPATH=tools` from the repo
root).  The repository root is found from this file's location.

Exits 0 when clean, 1 with a file:line report otherwise.  A finding
on a given line is suppressed by a comment on that line containing
`gllc-lint: allow(<checker-name>)`.
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import checkers  # noqa: F401  (importing registers them)
from .core import all_checkers, get_checker, run_checkers

JSON_SCHEMA = "gllc-lint-v1"


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gllc_lint", description="gllc repo linter")
    parser.add_argument(
        "--root", type=Path, default=None,
        help="repository root (default: two levels up from tools/)")
    parser.add_argument(
        "--checkers", default=None, metavar="NAME[,NAME...]",
        help="run only these checkers")
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write findings as JSON to PATH ('-' = stdout)")
    parser.add_argument(
        "--list-checkers", action="store_true",
        help="list registered checkers and exit")
    parser.add_argument(
        "--update-metrics-doc", action="store_true",
        help="regenerate docs/METRICS.md from the code and exit")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    root = args.root or Path(__file__).resolve().parent.parent.parent

    if args.list_checkers:
        for checker in all_checkers():
            print(f"{checker.name:16} {checker.description}")
        return 0

    if args.update_metrics_doc:
        from .core import RepoContext, walk_files

        repo = RepoContext(root, list(walk_files(root)))
        path = get_checker("metrics-doc").update(repo)
        print(f"lint: wrote {path.relative_to(root)}")
        return 0

    if args.checkers is None:
        selected = all_checkers()
    else:
        try:
            selected = [get_checker(name.strip())
                        for name in args.checkers.split(",")]
        except KeyError as missing:
            known = ", ".join(c.name for c in all_checkers())
            print(f"lint: unknown checker {missing}; known: {known}",
                  file=sys.stderr)
            return 2

    findings, checked = run_checkers(root, selected)

    if args.json is not None:
        document = json.dumps(
            {
                "schema": JSON_SCHEMA,
                "files_checked": checked,
                "checkers": [c.name for c in selected],
                "findings": [dataclasses.asdict(f) for f in findings],
            },
            indent=2) + "\n"
        if args.json == "-":
            sys.stdout.write(document)
        else:
            Path(args.json).write_text(document, encoding="utf-8")

    if args.json != "-":
        for finding in findings:
            print(finding.render())
        if findings:
            print(f"lint: {len(findings)} finding(s) in {checked} "
                  f"files")
        else:
            print(f"lint: OK ({checked} files, "
                  f"{len(selected)} checkers)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
