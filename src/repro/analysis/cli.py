"""``repro-lint`` / ``python -m repro.analysis`` — the lint CLI.

Exit codes: 0 clean (all findings baselined or suppressed — including
a clean-but-empty source tree, which is *not* a usage error), 1 new
violations or a failed ``--check-baseline``, 2 usage errors (unknown
rule code, a lint path that does not exist, unreadable baseline,
conflicting flags).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from collections.abc import Sequence

from ..exceptions import ValidationError
from .baseline import Baseline
from .project_rules import ALL_PROJECT_RULES
from .report import render_json, render_sarif, render_text
from .rules import ALL_RULES
from .runner import lint_paths

__all__ = ["main", "build_parser", "DEFAULT_BASELINE_NAME"]

#: Picked up from the working directory when ``--baseline`` is absent.
DEFAULT_BASELINE_NAME = "repro-lint-baseline.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST invariant checker for the repro codebase: enforces the "
            "determinism and architecture rules documented in "
            "docs/determinism.md"
        ),
        epilog="rules: "
        + "; ".join(
            f"{rule.code} {rule.name}"
            for rule in (*ALL_RULES, *ALL_PROJECT_RULES)
        ),
    )
    parser.add_argument(
        "paths",
        nargs="+",
        help="files or directories to lint (e.g. src/)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help=(
            "baseline file of grandfathered violations (JSON); default: "
            f"{DEFAULT_BASELINE_NAME} in the working directory, if present"
        ),
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file (report grandfathered findings too)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help=(
            "rewrite --baseline to absorb every current violation and "
            "prune entries that no longer fire (pruned entries are "
            "reported; edit new justifications afterwards), then exit 0"
        ),
    )
    parser.add_argument(
        "--check-baseline",
        action="store_true",
        help=(
            "CI mode: additionally fail (exit 1) when the baseline "
            "contains stale entries that matched no current violation"
        ),
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="RPLxxx",
        help="run only these rule codes (repeatable)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        metavar="RPLxxx",
        help="skip these rule codes (repeatable)",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="also list baselined violations in the text report",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)
    if options.no_baseline and (
        options.baseline or options.update_baseline or options.check_baseline
    ):
        parser.error(
            "--no-baseline conflicts with "
            "--baseline/--update-baseline/--check-baseline"
        )
    if options.update_baseline and options.check_baseline:
        parser.error("--update-baseline conflicts with --check-baseline")
    if options.baseline is None and not options.no_baseline:
        default = Path(DEFAULT_BASELINE_NAME)
        if default.exists() or options.update_baseline:
            options.baseline = default
    try:
        baseline = None
        if options.baseline is not None and options.baseline.exists():
            baseline = Baseline.load(options.baseline)
        if options.update_baseline:
            # Re-lint without the old baseline so every violation lands
            # in the refreshed file, then carry old justifications over.
            raw = lint_paths(
                options.paths,
                select=options.select,
                ignore=options.ignore,
            )
            refreshed = Baseline()
            for violation in raw.violations:
                if baseline is not None and baseline.contains(violation):
                    refreshed.add(
                        violation, baseline.justification_for(violation)
                    )
                else:
                    refreshed.add(violation, "TODO: justify or fix")
            refreshed.save(options.baseline)
            print(
                f"baseline updated: {len(refreshed)} entr(y/ies) -> "
                f"{options.baseline}",
                file=sys.stderr,
            )
            if baseline is not None:
                kept = {key for key, _ in refreshed.items()}
                pruned = [key for key in baseline.keys() if key not in kept]
                if pruned:
                    print(
                        f"pruned {len(pruned)} stale entr(y/ies):",
                        file=sys.stderr,
                    )
                    for code, path, qualname, message in pruned:
                        print(
                            f"  {code} {path} {qualname}: {message}",
                            file=sys.stderr,
                        )
            return 0
        result = lint_paths(
            options.paths,
            baseline=baseline,
            select=options.select,
            ignore=options.ignore,
        )
    except ValidationError as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2
    if options.format == "json":
        print(render_json(result))
    elif options.format == "sarif":
        print(render_sarif(result))
    else:
        print(render_text(result, verbose=options.verbose))
    if options.check_baseline and result.stale_baseline:
        print(
            f"repro-lint: {len(result.stale_baseline)} stale baseline "
            "entr(y/ies) matched no violation (run --update-baseline):",
            file=sys.stderr,
        )
        for code, path, qualname, message in result.stale_baseline:
            print(f"  {code} {path} {qualname}: {message}", file=sys.stderr)
        return 1
    return result.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
