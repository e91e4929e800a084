"""Reporters: human-readable text, machine JSON, and SARIF.

The JSON schema (``version`` / ``summary`` / ``violations`` /
``baselined``) is part of the tool's contract — CI annotations and the
framework tests both consume it — so changes must bump ``version``.
Version 2 added ``stale_baseline`` to the summary; version 3 dropped
the incremental cache's ``files_parsed`` / ``cache_hits`` keys along
with the cache.

The SARIF reporter emits SARIF 2.1.0, the interchange format GitHub
code scanning ingests: one ``run``, one ``result`` per violation,
baselined findings included with an ``external`` suppression so they
render as reviewed rather than vanishing.  Its shape is locked by a
schema test exactly like the JSON reporter's.
"""

from __future__ import annotations

import json
from collections import Counter

from .runner import LintResult, all_rule_classes

__all__ = ["render_text", "render_json", "render_sarif", "REPORT_VERSION", "SARIF_VERSION"]

REPORT_VERSION = 3

SARIF_VERSION = "2.1.0"
_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def render_text(result: LintResult, *, verbose: bool = False) -> str:
    """The human reporter: one line per violation + a summary."""
    lines = [violation.render() for violation in result.violations]
    if verbose and result.baselined:
        lines.append("")
        lines.append(f"baselined ({len(result.baselined)} grandfathered):")
        lines.extend(f"  {violation.render()}" for violation in result.baselined)
    if verbose and result.stale_baseline:
        lines.append("")
        lines.append(
            f"stale baseline entries ({len(result.stale_baseline)} matched "
            "nothing — prune with --update-baseline):"
        )
        lines.extend(
            f"  {code} {path} {qualname}: {message}"
            for code, path, qualname, message in result.stale_baseline
        )
    by_code = Counter(violation.code for violation in result.violations)
    summary = (
        f"{len(result.violations)} violation(s) in {result.files_checked} "
        f"file(s) [{result.suppressed} pragma-suppressed, "
        f"{len(result.baselined)} baselined]"
    )
    if by_code:
        breakdown = ", ".join(
            f"{code}: {count}" for code, count in sorted(by_code.items())
        )
        summary += f" — {breakdown}"
    if lines:
        lines.append("")
    lines.append(summary)
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """The JSON reporter (schema locked by the framework tests)."""
    payload = {
        "version": REPORT_VERSION,
        "summary": {
            "files_checked": result.files_checked,
            "violations": len(result.violations),
            "baselined": len(result.baselined),
            "suppressed": result.suppressed,
            "stale_baseline": len(result.stale_baseline),
            "exit_code": result.exit_code,
        },
        "violations": [v.to_json() for v in result.violations],
        "baselined": [v.to_json() for v in result.baselined],
        "stale_baseline": [list(key) for key in result.stale_baseline],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _sarif_rules(result: LintResult) -> list[dict[str, object]]:
    """``tool.driver.rules`` descriptors for every code that fired."""
    fired = sorted(
        {v.code for v in result.violations}
        | {v.code for v in result.baselined}
    )
    registry = all_rule_classes()
    descriptors: list[dict[str, object]] = []
    for code in fired:
        rule = registry.get(code)
        descriptors.append(
            {
                "id": code,
                "name": getattr(rule, "name", "parse-error"),
                "shortDescription": {
                    "text": getattr(
                        rule, "description", "file could not be parsed"
                    )
                },
            }
        )
    return descriptors


def _sarif_result(violation, *, suppressed: bool) -> dict[str, object]:
    record: dict[str, object] = {
        "ruleId": violation.code,
        "level": "error",
        "message": {"text": violation.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": violation.path},
                    "region": {
                        "startLine": max(violation.line, 1),
                        "startColumn": violation.column + 1,
                    },
                },
                "logicalLocations": [
                    {"fullyQualifiedName": violation.qualname}
                ],
            }
        ],
    }
    if suppressed:
        record["suppressions"] = [
            {"kind": "external", "justification": "baselined"}
        ]
    return record


def render_sarif(result: LintResult) -> str:
    """The SARIF 2.1.0 reporter (schema locked by the framework tests).

    Actionable violations come first, then baselined ones (carrying a
    suppression), each group in the result's deterministic order.
    """
    payload = {
        "$schema": _SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": (
                            "https://github.com/repro/repro"
                            "/blob/main/docs/determinism.md"
                        ),
                        "rules": _sarif_rules(result),
                    }
                },
                "results": [
                    _sarif_result(v, suppressed=False)
                    for v in result.violations
                ]
                + [
                    _sarif_result(v, suppressed=True)
                    for v in result.baselined
                ],
            }
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
