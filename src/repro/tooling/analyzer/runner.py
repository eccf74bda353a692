"""Analyzer orchestration: sources -> symbols -> call graph -> effects -> rules.

Public entry points:

* :func:`analyze_sources` — analyze in-memory ``{path: source}`` (tests);
* :func:`analyze_paths` — analyze files/directories on disk;
* :func:`main` — the CLI behind ``python -m repro.tooling.analyzer`` and
  ``repro analyze``.

Both analysis functions return an :class:`AnalysisResult` whose findings
are already ``# noqa``-suppressed and baseline-filtered, in deterministic
order.  The CLI prints text/JSON/SARIF through the shared reporting
engine (:mod:`repro.tooling.report`) and exits 0/1/2.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigError
from repro.tooling.analyzer.callgraph import CallGraph, build_call_graph
from repro.tooling.analyzer.effects import (
    EffectTable,
    format_effect_table,
    named_seed_table,
    propagate_effects,
    scan_pattern_sites,
)
from repro.tooling.analyzer.rules import (
    RULES,
    Project,
    engine_entry_points,
    run_all_rules,
)
from repro.tooling.analyzer.symbols import SymbolTable
from repro.tooling.report import (
    Baseline,
    BaselineEntry,
    EXIT_USAGE,
    Finding,
    OUTPUT_FORMATS,
    baseline_warnings,
    drop_suppressed,
    exit_code,
    render,
    sort_findings,
)

TOOL_NAME = "repro.tooling.analyzer"

#: Baseline file picked up automatically when it exists in the CWD.
DEFAULT_BASELINE = "analyzer_baseline.json"


@dataclass
class AnalysisResult:
    """Everything one analyzer run produced."""

    findings: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    unused_baseline: List[BaselineEntry] = field(default_factory=list)
    effects: EffectTable = field(default_factory=dict)
    table: Optional[SymbolTable] = None
    graph: Optional[CallGraph] = None

    @property
    def ok(self) -> bool:
        return not self.findings


def build_project(table: SymbolTable) -> Project:
    """Assemble the symbol/call-graph/effect bundle the rules consume."""
    graph = build_call_graph(table)
    seeds = named_seed_table(table)
    pattern_sites = scan_pattern_sites(table)
    # Pattern seeds attach to their containing functions so effects
    # propagate from them like any named seed.
    for site in pattern_sites:
        if site.function:
            seeds.setdefault(site.function, set()).add(site.effect)
    barriers = engine_entry_points(table)
    effects = propagate_effects(table, graph, seeds)
    frontdoor = propagate_effects(table, graph, seeds, barriers=barriers)
    return Project(
        table=table,
        graph=graph,
        effects=effects,
        frontdoor_effects=frontdoor,
        seeds=seeds,
        pattern_sites=pattern_sites,
        barriers=barriers,
    )


def analyze_sources(
    sources: Dict[str, str], baseline: Optional[Baseline] = None
) -> AnalysisResult:
    """Analyze in-memory sources; the core everything else wraps."""
    table = SymbolTable.from_sources(sources)
    project = build_project(table)
    findings = sort_findings(run_all_rules(project))
    findings = drop_suppressed(findings, sources)
    baselined: List[Finding] = []
    unused: List[BaselineEntry] = []
    if baseline is not None:
        findings, baselined, unused = baseline.split(findings)
    return AnalysisResult(
        findings=findings,
        baselined=baselined,
        unused_baseline=unused,
        effects=project.effects,
        table=table,
        graph=project.graph,
    )


def analyze_paths(
    paths: Sequence[str], baseline: Optional[Baseline] = None
) -> AnalysisResult:
    """Analyze ``.py`` files under the given files/directories."""
    sources: Dict[str, str] = {}
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            for file in sorted(p.rglob("*.py")):
                sources[str(file)] = file.read_text(encoding="utf-8")
        elif p.suffix == ".py" and p.exists():
            sources[str(p)] = p.read_text(encoding="utf-8")
        else:
            raise ConfigError(f"no such file or directory: {raw}")
    return analyze_sources(sources, baseline=baseline)


def _resolve_baseline(arg: Optional[str]) -> Optional[Baseline]:
    if arg is not None:
        return Baseline.load(arg)
    if os.path.exists(DEFAULT_BASELINE):
        return Baseline.load(DEFAULT_BASELINE)
    return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tooling.analyzer",
        description=(
            "static analyzer: module-local source rules and whole-program "
            f"effect & determinism contracts (rules {min(RULES)}-{max(RULES)}; "
            "see --list-rules)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--format", choices=OUTPUT_FORMATS, default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help=(
            "baseline file of grandfathered findings (default: "
            f"{DEFAULT_BASELINE} if present in the working directory)"
        ),
    )
    parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the report here instead of stdout",
    )
    parser.add_argument(
        "--effects", action="store_true",
        help="also print the inferred effect table (text format only)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    args = parser.parse_args(argv)
    if args.list_rules:
        for code, summary in sorted(RULES.items()):
            print(f"{code}  {summary}")
        return 0
    try:
        baseline = _resolve_baseline(args.baseline)
        result = analyze_paths(args.paths, baseline=baseline)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = render(result.findings, args.format, TOOL_NAME, RULES)
    if args.effects and args.format == "text":
        report = format_effect_table(result.effects) + "\n" + report
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report)
        print(f"wrote {args.format} report -> {args.output}")
    else:
        sys.stdout.write(report)
    warnings = baseline_warnings(result.unused_baseline)
    if warnings is not None:
        print(warnings, file=sys.stderr)
    if result.baselined and args.format == "text":
        print(
            f"({len(result.baselined)} baselined finding(s) suppressed; "
            "see the baseline file for justifications)",
            file=sys.stderr,
        )
    return exit_code(result.findings)
