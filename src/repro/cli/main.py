"""``pepo`` — suggest / optimize / profile / bench from the shell.

The CLI is the paper's Eclipse surface translated: the toolbar button
(Fig. 1) is the program itself, the pop-up menu's two actions (Fig. 3)
are the ``profile`` and ``suggest`` subcommands, the profiler view
(Fig. 4) and optimizer view (Fig. 5) are their outputs.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from repro.core import PEPO

#: Default run-store location, co-located with the sweep cache so
#: ``pepo cache stats`` reports both from one root.
_STORE_DEFAULT = Path(".pepo_cache/store")


def _add_store_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        type=Path,
        default=_STORE_DEFAULT,
        metavar="DIR",
        help=f"run-store directory (default: {_STORE_DEFAULT})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pepo",
        description="Python Energy Profiler & Optimizer "
        "(JEPO reproduction, IPPS 2020).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    suggest = sub.add_parser(
        "suggest", help="energy-efficiency suggestions for a file or project"
    )
    suggest.add_argument("path", type=Path)
    suggest.add_argument(
        "--watch",
        action="store_true",
        help="re-analyze when the file changes (Fig. 2 dynamic mode)",
    )
    suggest.add_argument(
        "--interval", type=float, default=1.0, help="watch poll seconds"
    )
    suggest.add_argument(
        "--once", action="store_true", help=argparse.SUPPRESS
    )  # test hook: single watch iteration
    suggest.add_argument(
        "--json",
        action="store_true",
        help="emit findings as JSON lines (alias for --format json)",
    )
    suggest.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="output format; json emits one Finding record per line "
        "(same records as `pepo check --format json`)",
    )
    suggest.add_argument(
        "--extended",
        action="store_true",
        help="also run the extension rules (R14, R15)",
    )
    suggest.add_argument(
        "--summary",
        action="store_true",
        help="print the per-rule rollup and hotspot files instead of "
        "individual findings",
    )
    _add_sweep_options(suggest)

    optimize = sub.add_parser(
        "optimize", help="apply automatic energy rewrites"
    )
    optimize.add_argument("path", type=Path)
    optimize.add_argument(
        "--write", action="store_true", help="rewrite files in place"
    )
    optimize.add_argument(
        "--diff", action="store_true", help="print unified diffs"
    )
    _add_sweep_options(optimize)

    check = sub.add_parser(
        "check",
        help="CI gate: analyze and fail when new findings reach a "
        "severity threshold",
    )
    check.add_argument("path", type=Path)
    check.add_argument(
        "--fail-on",
        choices=["advice", "medium", "high"],
        default="medium",
        help="minimum severity that fails the build (default: medium)",
    )
    check.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="baseline file of accepted fingerprints; only findings "
        "NOT in it gate the build (incremental adoption)",
    )
    check.add_argument(
        "--write-baseline",
        type=Path,
        default=None,
        metavar="FILE",
        help="record every current finding's fingerprint to FILE and "
        "exit 0 (then commit the file and gate on --baseline)",
    )
    check.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="text verdict, JSON lines, or a SARIF 2.1.0 document",
    )
    check.add_argument(
        "-o",
        "--output",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the formatted report to FILE instead of stdout "
        "(the CI-artifact path for SARIF uploads)",
    )
    check.add_argument(
        "--extended",
        action="store_true",
        help="also run the extension rules (R14, R15)",
    )
    _add_sweep_options(check)

    cache = sub.add_parser(
        "cache",
        help="inspect or clear the .pepo_cache sweep-result cache",
    )
    cache.add_argument("action", choices=["stats", "clear"])
    cache.add_argument(
        "path",
        type=Path,
        nargs="?",
        default=Path("."),
        help="project directory holding the cache (default: .)",
    )

    profile = sub.add_parser(
        "profile", help="method-granularity energy profile of a project"
    )
    profile.add_argument("path", type=Path)
    profile.add_argument(
        "--main", type=Path, default=None, help="entry-point file"
    )
    profile.add_argument("--limit", type=int, default=20)
    profile.add_argument(
        "--timeline",
        action="store_true",
        help="also sample power over time and print a sparkline",
    )
    profile.add_argument(
        "--resilience",
        action="store_true",
        help="survive backend read faults: retry with backoff, trip a "
        "circuit breaker, degrade to the simulated backend (flagged)",
    )
    profile.add_argument(
        "--follow-threads",
        action="store_true",
        help="trace worker threads too, attributing each method to the "
        "thread that ran it (per-context rows in the report)",
    )
    profile.add_argument(
        "--follow-tasks",
        action="store_true",
        help="attribute asyncio coroutines to their owning Task "
        "(implies --follow-threads)",
    )
    profile.add_argument(
        "--follow-subprocesses",
        action="store_true",
        help="capture child processes spawned while profiling and merge "
        "their profiles back, pid-stamped",
    )
    profile.add_argument(
        "--store",
        type=Path,
        nargs="?",
        const=_STORE_DEFAULT,
        default=None,
        metavar="DIR",
        help="also ingest the profile into the columnar run store "
        f"(default location: {_STORE_DEFAULT})",
    )

    ingest = sub.add_parser(
        "ingest",
        help="fold result.txt files / spool directories into the "
        "columnar run store",
    )
    ingest.add_argument(
        "paths",
        type=Path,
        nargs="+",
        help="result.txt files, or directories searched recursively for "
        "result.txt and spool-style *.result.txt files",
    )
    _add_store_option(ingest)

    store = sub.add_parser(
        "store", help="inspect the columnar run store"
    )
    store.add_argument("action", choices=["stats", "runs"])
    _add_store_option(store)

    dashboard = sub.add_parser(
        "dashboard",
        help="render a static HTML analytics dashboard from the run store",
    )
    dashboard.add_argument(
        "-o",
        "--output",
        type=Path,
        required=True,
        help="output HTML file (self-contained, no external assets)",
    )
    dashboard.add_argument(
        "--top",
        type=int,
        default=10,
        help="how many hot methods to chart (default: 10)",
    )
    _add_store_option(dashboard)

    compare = sub.add_parser(
        "compare",
        help="diff two result.txt profiles (before vs after a refactor)",
    )
    compare.add_argument("before", type=Path)
    compare.add_argument("after", type=Path)
    compare.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="exit 1 when any method regressed by more than 5%%",
    )

    sub.add_parser(
        "rules",
        help="rule catalog coverage matrix: detector / transform / "
        "micro-benchmark per rule",
    )

    facts = sub.add_parser(
        "facts",
        help="dump the flow-sensitive facts (CFG shape, def-use chains, "
        "purity, interprocedural hotness) per method",
    )
    facts.add_argument(
        "path", type=Path, help="a Python file or a project directory"
    )
    facts.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="text table, or one JSON record per method "
        "(predictor-ready feature vectors)",
    )

    bench = sub.add_parser(
        "bench", help="regenerate a paper table/figure or a perf bench"
    )
    bench.add_argument(
        "target",
        choices=["table1", "table2", "table3", "table4", "figures", "sweep",
                 "overhead", "chaos", "ingest", "semantics", "all"],
    )
    bench.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="sweep: worker processes for the parallel configuration",
    )
    bench.add_argument(
        "--check",
        action="store_true",
        help="sweep: exit 1 unless parallel/cached output matches the "
        "current serial sweep, the frozen corpus matches its golden "
        "findings, and parallel clears the speedup floor; "
        "overhead: exit 1 unless the new runtime beats the legacy tracer; "
        "chaos: exit 1 unless every fault-tolerance criterion holds; "
        "semantics: exit 1 unless the flow-fact layer stays within its "
        "ms-per-KLoC budget",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="overhead/semantics: small corpus / few repeats (CI smoke run)",
    )
    bench.add_argument(
        "--profile",
        action="store_true",
        help="sweep: also cProfile each stage and write the top-N report "
        "to BENCH_sweep_profile.txt",
    )
    bench.add_argument(
        "--checkpoint",
        type=Path,
        default=None,
        help="checkpoint file for table4: a killed run resumes from the "
        "last completed classifier instead of starting over",
    )
    bench.add_argument(
        "--dry-run",
        action="store_true",
        help="table1: verify micro-pairs and print the layout without "
        "running the energy harness",
    )
    return parser


def _add_sweep_options(parser: argparse.ArgumentParser) -> None:
    """Shared --jobs/--cache flags for directory sweeps."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="sweep a directory with N worker processes (output is "
        "byte-identical to serial)",
    )
    parser.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="reuse per-file results from .pepo_cache/ when file content "
        "and the rule set are unchanged (--no-cache disables)",
    )
    parser.add_argument(
        "--exclude",
        action="append",
        default=[],
        metavar="GLOB",
        help="skip files matching GLOB (relative path or any path "
        "component); repeatable; __pycache__/, .pepo_cache/, VCS and "
        "venv directories are always skipped",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-file wall-clock budget; a file that exceeds it is "
        "retried and then quarantined (default: no timeout)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help="retries before a crashing/hanging file is quarantined "
        "(default: 2, i.e. 3 strikes)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted sweep from its journal; the merged "
        "output is byte-identical to an uninterrupted run",
    )
    parser.add_argument(
        "--self-profile",
        action="store_true",
        help="profile the sweep itself (workers included under --jobs N) "
        "and print the hottest pepo methods to stderr",
    )


def _sweep_options(args: argparse.Namespace):
    """Build SweepOptions from the shared sweep flags."""
    from repro.sweep import SweepOptions

    return SweepOptions(
        timeout_seconds=args.timeout,
        max_retries=args.max_retries,
        resume=args.resume,
        self_profile=args.self_profile,
    )


def _sweep_jobs(args: argparse.Namespace) -> int:
    """``--jobs`` capped at the usable CPU count.

    The engine honors any worker count (tests need that); the CLI caps
    it here because ``--jobs 8`` on a 2-core container would spend its
    time on process churn, not analysis.
    """
    from repro.sweep import clamp_jobs

    return clamp_jobs(args.jobs)


def _report_sweep(stats, quarantine, *, err=None) -> None:
    """One-time stderr warnings after a directory sweep: a silent
    serial fallback and the quarantine roster both deserve eyeballs,
    but neither may corrupt a JSON/SARIF stream on stdout."""
    err = err if err is not None else sys.stderr
    if stats is not None and stats.serial_fallback:
        print(f"pepo: warning: {stats.serial_fallback}", file=err)
    if stats is not None and stats.skipped_unreadable:
        count = stats.skipped_unreadable
        print(
            f"pepo: warning: {count} file(s) could not be read or decoded "
            "and were skipped (reported as having no findings)",
            file=err,
        )
    if quarantine:
        print(
            f"pepo: warning: {len(quarantine)} file(s) quarantined "
            "after repeated failures (analyzed as empty):",
            file=err,
        )
        for entry in quarantine.entries:
            detail = f" - {entry.detail}" if entry.detail else ""
            print(
                f"  {entry.path}  [{entry.reason}, {entry.failures} "
                f"strike{'' if entry.failures == 1 else 's'}]{detail}",
                file=err,
            )
        print(
            "  (details in .pepo_cache/quarantine.json; quarantined "
            "files are retried on the next sweep)",
            file=err,
        )


def _report_profile(profile, *, err=None) -> None:
    """Render a sweep self-profile (``--self-profile``) to stderr so it
    never corrupts a JSON/SARIF stream on stdout."""
    if profile is None or not len(profile):
        return
    from repro.profiler import ProfilerReport

    err = err if err is not None else sys.stderr
    print("sweep self-profile (hottest pepo methods):", file=err)
    print(ProfilerReport(profile).render(limit=15), file=err)


def _cmd_suggest(args: argparse.Namespace, out) -> int:
    from repro.analyzer import Analyzer

    pepo = PEPO()
    analyzer = Analyzer(extended=args.extended)
    path: Path = args.path
    fmt = "json" if args.json else args.format
    if args.watch:
        return _watch(pepo, path, args.interval, out, once=args.once)
    if path.is_dir():
        findings_by_file = analyzer.analyze_project(
            path,
            jobs=_sweep_jobs(args),
            cache=args.cache,
            exclude=args.exclude,
            options=_sweep_options(args),
        )
        _report_sweep(analyzer.last_sweep_stats, analyzer.last_quarantine)
        _report_profile(analyzer.last_profile)
        if fmt == "json":
            from repro.check import iter_json_lines

            for line in iter_json_lines(findings_by_file):
                print(line, file=out)
            return 0
        if args.summary:
            from repro.analyzer.report import FindingsSummary

            print(FindingsSummary(findings_by_file).render(), file=out)
            return 0
        print(pepo.optimizer_view(findings_by_file), file=out)
        total = sum(len(v) for v in findings_by_file.values())
    else:
        findings = analyzer.analyze_file(path)
        if fmt == "json":
            from repro.check import iter_json_lines

            for line in iter_json_lines({str(path): findings}):
                print(line, file=out)
            return 0
        if args.summary:
            from repro.analyzer.report import FindingsSummary

            print(FindingsSummary.from_findings(findings).render(), file=out)
            return 0
        for finding in findings:
            print(finding.one_line(), file=out)
        total = len(findings)
    print(f"{total} suggestion(s)", file=out)
    return 0


def _cmd_check(args: argparse.Namespace, out) -> int:
    from repro.analyzer import Analyzer
    from repro.check import (
        Baseline,
        evaluate,
        format_findings,
    )
    from repro.check.gate import FAIL_ON_LEVELS

    analyzer = Analyzer(extended=args.extended)
    path: Path = args.path
    if path.is_dir():
        root = path
        findings_by_file = analyzer.analyze_project(
            path,
            jobs=_sweep_jobs(args),
            cache=args.cache,
            exclude=args.exclude,
            options=_sweep_options(args),
        )
        _report_sweep(analyzer.last_sweep_stats, analyzer.last_quarantine)
        _report_profile(analyzer.last_profile)
    else:
        root = path.parent
        findings_by_file = {str(path): analyzer.analyze_file(path)}
    quarantine = analyzer.last_quarantine

    if args.write_baseline is not None:
        baseline = Baseline.from_findings(findings_by_file, root=root)
        baseline.save(args.write_baseline)
        print(
            f"baseline written: {len(baseline.fingerprints)} fingerprint(s) "
            f"to {args.write_baseline}",
            file=out,
        )
        return 0

    baseline = (
        Baseline.load(args.baseline) if args.baseline is not None else None
    )
    result = evaluate(
        findings_by_file,
        fail_on=FAIL_ON_LEVELS[args.fail_on],
        baseline=baseline,
        root=root,
    )

    if args.output is not None:
        report = format_findings(
            findings_by_file, args.format, root=root, quarantine=quarantine
        )
        args.output.write_text(report + "\n", encoding="utf-8")
        print(f"report written to {args.output}", file=out)
    elif args.format != "text":
        print(
            format_findings(
                findings_by_file,
                args.format,
                root=root,
                quarantine=quarantine,
            ),
            file=out,
        )

    if args.format == "text" and args.output is None:
        for finding in result.new:
            print(finding.one_line(), file=out)
    # The verdict would corrupt a JSON/SARIF stream on stdout; emit it
    # only when stdout is the human channel (text, or report in a file).
    if args.format == "text" or args.output is not None:
        if result.baselined:
            print(
                f"{len(result.baselined)} baselined finding(s) suppressed",
                file=out,
            )
        gate = result.gating
        verdict = (
            f"FAIL: {len(gate)} new finding(s) at or above {args.fail_on}"
            if gate
            else f"OK: no new findings at or above {args.fail_on} "
            f"({result.total} total, {len(result.new)} new)"
        )
        if quarantine:
            # The gate cannot vouch for files it never analyzed.
            verdict += (
                f" [{len(quarantine)} file(s) quarantined, not analyzed]"
            )
        print(verdict, file=out)
    return result.exit_code


def _watch(pepo: PEPO, path: Path, interval: float, out, once: bool) -> int:
    """Fig. 2: poll a file, print finding deltas on change."""
    dyn = pepo.dynamic_analyzer(filename=str(path))
    last_mtime = None
    while True:
        mtime = path.stat().st_mtime
        if mtime != last_mtime:
            last_mtime = mtime
            delta = dyn.update(path.read_text())
            for finding in delta.added:
                print(f"+ {finding.one_line()}", file=out)
            for finding in delta.removed:
                print(f"- [{finding.rule_id}] resolved: {finding.snippet}",
                      file=out)
        if once:
            return 0
        try:
            time.sleep(interval)
        except KeyboardInterrupt:
            return 0


def _cmd_optimize(args: argparse.Namespace, out) -> int:
    pepo = PEPO()
    path: Path = args.path
    if path.is_dir():
        results = pepo.optimize_project(
            path,
            write=args.write,
            jobs=_sweep_jobs(args),
            cache=args.cache,
            exclude=args.exclude,
            options=_sweep_options(args),
        )
        _report_sweep(pepo.last_sweep_stats, pepo.last_quarantine)
        _report_profile(pepo.last_profile)
    else:
        results = {str(path): pepo.optimize_file(path, write=args.write)}
    total = 0
    for filename, result in results.items():
        if not result.changed:
            continue
        total += len(result.changes)
        print(f"{filename}: {len(result.changes)} change(s)", file=out)
        for change in result.changes:
            print(f"  line {change.line}: [{change.rule_id}] "
                  f"{change.description}", file=out)
        if args.diff:
            print(result.diff(), file=out)
    mode = "applied" if args.write else "available (dry run; use --write)"
    print(f"{total} change(s) {mode}", file=out)
    unfixable = [
        (filename, finding)
        for filename, result in results.items()
        for finding in result.unfixable
    ]
    if unfixable:
        print(
            f"{len(unfixable)} finding(s) detected but not auto-fixable:",
            file=out,
        )
        for filename, finding in unfixable:
            print(f"  {finding.one_line()}", file=out)
    return 0


def _cmd_rules(args: argparse.Namespace, out) -> int:
    print(PEPO.rules_view(), file=out)
    return 0


def _cmd_cache(args: argparse.Namespace, out) -> int:
    from repro.sweep import SweepCache

    cache = SweepCache.for_project(args.path)
    if args.action == "stats":
        print(cache.stats().render(), file=out)
    else:
        removed = cache.clear()
        print(
            f"cleared {removed} cached result(s) from {cache.root}", file=out
        )
    return 0


def _cmd_profile(args: argparse.Namespace, out) -> int:
    resilience = None
    if args.resilience:
        from repro.resilience import ResiliencePolicy

        resilience = ResiliencePolicy()
    pepo = PEPO(resilience=resilience)
    follow = dict(
        follow_threads=args.follow_threads,
        follow_tasks=args.follow_tasks,
        follow_subprocesses=args.follow_subprocesses,
    )
    if args.timeline:
        from repro.rapl.domains import Domain
        from repro.rapl.timeline import TimelineSampler

        sampler = TimelineSampler(pepo.backend, sample_interval=0.02)
        result, timeline = sampler.run(
            lambda: pepo.profile_project(args.path, main=args.main, **follow)
        )
        print(pepo.profiler_view(result, limit=args.limit), file=out)
        print(file=out)
        print("package power over time:", file=out)
        print(f"  {timeline.ascii_sparkline()}", file=out)
        print(
            f"  peak {timeline.peak_watts(Domain.PACKAGE):.2f} W, "
            f"mean {timeline.mean_watts(Domain.PACKAGE):.2f} W, "
            f"total {timeline.total_joules(Domain.PACKAGE):.3f} J",
            file=out,
        )
    else:
        result = pepo.profile_project(args.path, main=args.main, **follow)
        print(pepo.profiler_view(result, limit=args.limit), file=out)
    if result.degraded:
        print(
            "warning: degraded run — some readings came from the fallback "
            "backend",
            file=out,
        )
    if result.suspect_count():
        print(
            f"warning: {result.suspect_count()} suspect measurement(s) "
            "(backend fault or counter wrap)",
            file=out,
        )
    print(f"result.txt written to {Path(args.path) / 'result.txt'}", file=out)
    if args.store is not None:
        info = _open_store(args.store).ingest_result(
            result, label=Path(args.path).name, source=str(args.path)
        )
        print(
            f"ingested into run store as run {info.run_id} "
            f"({info.rows} row(s))",
            file=out,
        )
    return 0


def _open_store(path: Path):
    """Import gate for the numpy-only store; ImportError → exit 2."""
    from repro.store import RunStore

    return RunStore(path)


def _cmd_ingest(args: argparse.Namespace, out) -> int:
    store = _open_store(args.store)
    total = 0
    for path in args.paths:
        for info in store.ingest_path(path):
            total += 1
            print(
                f"run {info.run_id}: {info.label} — {info.rows} row(s), "
                f"{info.total_package_joules:.3f} J from {info.source}",
                file=out,
            )
    print(f"{total} run(s) ingested into {store.root}", file=out)
    return 0


def _cmd_store(args: argparse.Namespace, out) -> int:
    store = _open_store(args.store)
    if args.action == "stats":
        print(store.stats().render(), file=out)
        return 0
    runs = store.runs()
    if not runs:
        print(f"no runs in store {store.root}", file=out)
        return 0
    for info in runs:
        flags = []
        if info.suspect_rows:
            flags.append(f"{info.suspect_rows} suspect")
        if info.degraded:
            flags.append("degraded")
        suffix = f"  [{', '.join(flags)}]" if flags else ""
        print(
            f"{info.run_id:>4}  {info.ingested_at}  {info.label:<24} "
            f"{info.rows:>8} row(s) {info.total_package_joules:>12.3f} J"
            f"{suffix}",
            file=out,
        )
    return 0


def _cmd_dashboard(args: argparse.Namespace, out) -> int:
    from repro.views.dashboard import write_dashboard

    store = _open_store(args.store)
    write_dashboard(store, args.output, top=args.top)
    stats = store.stats()
    print(
        f"dashboard written to {args.output} "
        f"({stats.runs} run(s), {stats.rows} row(s))",
        file=out,
    )
    return 0


def _cmd_compare(args: argparse.Namespace, out) -> int:
    from repro.profiler import ProfileComparison, ProfileResult

    before = ProfileResult.read_result_txt(args.before)
    after = ProfileResult.read_result_txt(args.after)
    comparison = ProfileComparison(before, after)
    print(comparison.render(), file=out)
    regressions = comparison.regressions()
    if regressions:
        print(f"{len(regressions)} regression(s):", file=out)
        for delta in regressions:
            print(
                f"  {delta.method}: {delta.improvement_percent:+.1f} %",
                file=out,
            )
        if args.fail_on_regression:
            return 1
    return 0


def _cmd_facts(args: argparse.Namespace, out) -> int:
    import json as _json

    from repro.bench.semantics import corpus_files
    from repro.metrics import FEATURE_NAMES, file_flow_features
    from repro.views.tables import render_table

    path: Path = args.path
    if not path.exists():
        raise FileNotFoundError(path)
    total = 0
    for file in corpus_files(path):
        try:
            rows = file_flow_features(file)
        except SyntaxError as error:
            print(f"pepo: skipping {file}: {error}", file=sys.stderr)
            continue
        total += len(rows)
        if args.format == "json":
            for row in rows:
                record = {"file": str(file)}
                record.update(row.to_dict())
                print(_json.dumps(record), file=out)
            continue
        if not rows:
            continue
        print(
            render_table(
                ("Function", "Line", *FEATURE_NAMES),
                [
                    (row.qualname, str(row.line))
                    + tuple(str(getattr(row, name)) for name in FEATURE_NAMES)
                    for row in rows
                ],
                title=str(file),
                right_align=tuple(range(1, len(FEATURE_NAMES) + 2)),
            ),
            file=out,
        )
        print(file=out)
    if args.format == "text":
        print(f"{total} method(s)", file=out)
    return 0


def _cmd_bench(args: argparse.Namespace, out) -> int:
    from repro.bench.__main__ import main as bench_main

    argv = [args.target]
    if args.checkpoint is not None:
        argv += ["--checkpoint", str(args.checkpoint)]
    if args.dry_run:
        argv += ["--dry-run"]
    if args.jobs is not None:
        argv += ["--jobs", str(args.jobs)]
    if args.check:
        argv += ["--check"]
    if args.quick:
        argv += ["--quick"]
    if args.profile:
        argv += ["--profile"]
    return bench_main(argv)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out = sys.stdout
    handlers = {
        "suggest": _cmd_suggest,
        "check": _cmd_check,
        "optimize": _cmd_optimize,
        "profile": _cmd_profile,
        "compare": _cmd_compare,
        "rules": _cmd_rules,
        "cache": _cmd_cache,
        "facts": _cmd_facts,
        "bench": _cmd_bench,
        "ingest": _cmd_ingest,
        "store": _cmd_store,
        "dashboard": _cmd_dashboard,
    }
    try:
        return handlers[args.command](args, out)
    except FileNotFoundError as error:
        print(f"pepo: {error}", file=sys.stderr)
        return 2
    except ImportError as error:
        # The run store / dashboard require numpy; everything else in
        # pepo runs without it, so fail those commands cleanly.
        print(f"pepo: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt as interrupt:
        # A SweepInterrupted carries a flushed journal: tell the user
        # the sweep is resumable, then exit 128+SIGINT like any
        # interrupted process.
        from repro.sweep import SweepInterrupted

        if isinstance(interrupt, SweepInterrupted):
            print(f"pepo: {interrupt}", file=sys.stderr)
            print(
                "pepo: re-run the same command with --resume to finish "
                "the sweep (output will match an uninterrupted run)",
                file=sys.stderr,
            )
        return 130
    except BrokenPipeError:
        # Downstream consumer (e.g. ``pepo ... --format json | head``)
        # closed the pipe; suppress the late stdout flush and exit the
        # conventional 128+SIGPIPE so shells see a signal death, not a
        # traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
