"""CLI entry point: ``python -m tools.lintkit [paths...] [--json]``.

Exit codes (the contract ``make lint`` and CI rely on):

* 0 — tree is clean (warning-severity findings are reported but do
  not fail the run; the committed baseline keeps them from
  accumulating silently)
* 1 — error-severity violations found (listed on stdout), or new
  findings vs ``--baseline``
* 2 — usage error (unknown rule id, missing path, unreadable baseline)
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import REGISTRY, lint
from .reporters import diff_baseline, render_json, render_text

#: Default target when invoked bare from the repo root.
REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.lintkit",
        description="Two-phase AST invariant linter (determinism, RNG "
        "discipline, iteration order, layering, shared state, telemetry "
        "registry, async safety, error contracts).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: <repo>/src)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the versioned JSON report"
    )
    parser.add_argument(
        "--select",
        metavar="RPxxx[,RPxxx...]",
        help="run only these rule ids",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        type=Path,
        help="diff findings against a committed --json payload; exit 1 "
        "only on findings not present in the baseline",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list registered passes"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in REGISTRY.select():
            print(f"{rule.id}  {rule.name:24s} {rule.description}")
        return 0

    paths = args.paths or [REPO_ROOT / "src"]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(
            f"lintkit: path(s) do not exist: "
            f"{', '.join(str(p) for p in missing)}",
            file=sys.stderr,
        )
        return 2

    select = None
    if args.select:
        select = [part.strip() for part in args.select.split(",") if part.strip()]
    try:
        rules = REGISTRY.select(select)
    except KeyError as exc:
        print(f"lintkit: {exc.args[0]}", file=sys.stderr)
        return 2

    violations, checked = lint(paths, root=REPO_ROOT, select=select)

    if args.baseline is not None:
        try:
            baseline = json.loads(args.baseline.read_text())
        except (OSError, ValueError) as exc:
            print(
                f"lintkit: cannot read baseline {args.baseline}: {exc}",
                file=sys.stderr,
            )
            return 2
        delta, has_new = diff_baseline(violations, baseline)
        print(delta)
        return 1 if has_new else 0

    render = render_json if args.json else render_text
    print(render(violations, rules, checked))
    return 1 if any(v.severity == "error" for v in violations) else 0


if __name__ == "__main__":
    sys.exit(main())
