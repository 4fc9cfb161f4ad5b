"""Command-line experiment runner: ``python -m repro.bench <target>``."""

from __future__ import annotations

import argparse
import sys

from repro.bench.sweep import SweepBenchError

# The table/figure modules pull in numpy via the datasets package;
# import them per-target inside main() so numpy-free targets (sweep,
# overhead) work on a bare interpreter.


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(argv)
    except SweepBenchError as exc:  # no frozen corpus, or a stale golden
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _main(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "target",
        choices=["table1", "table2", "table3", "table4", "figures", "sweep",
                 "overhead", "chaos", "ingest", "semantics", "all"],
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="paper-scale Table IV (10k instances, 10 folds, 10 repeats) "
        "— takes many minutes",
    )
    parser.add_argument("--instances", type=int, default=None)
    parser.add_argument("--folds", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--checkpoint",
        default=None,
        help="checkpoint file for table4; a killed run resumes from the "
        "last completed classifier",
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="table1: verify every micro-pair and print the table layout "
        "without running the energy harness (CI smoke-check)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=2,
        help="sweep: worker processes for the parallel configuration",
    )
    parser.add_argument(
        "--project",
        default=None,
        help="sweep/semantics: project directory to bench (default: the "
        "frozen corpus, src/repro at the pinned commit)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="sweep/overhead: where to write the BENCH_*.json result",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="sweep: exit 1 unless parallel/cached output is identical "
        "to the current serial sweep, the frozen corpus matches its "
        "golden findings, AND the cold parallel sweep clears the "
        "speedup floor for the jobs used; overhead: exit 1 unless the new "
        "runtime's per-call overhead is within the legacy tracer's; "
        "semantics: exit 1 unless the flow-fact layer stays within its "
        "ms-per-KLoC budget (CI smoke assertions)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="sweep: also cProfile one run of each stage and write the "
        "top-N report to BENCH_sweep_profile.txt (CI artifact)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="overhead/ingest/semantics: small corpus / few repeats "
        "(CI smoke run)",
    )
    parser.add_argument(
        "--records",
        type=int,
        default=1_000_000,
        help="ingest: synthetic record count (default 1M; --quick uses "
        "150k regardless)",
    )
    args = parser.parse_args(argv)

    targets = (
        ["table1", "table2", "table3", "table4", "figures"]
        if args.target == "all"
        else [args.target]
    )
    for target in targets:
        if target == "table1":
            from repro.bench.table1 import render_table1, run_table1

            print(render_table1(run_table1(measure=not args.dry_run)))
        elif target == "table2":
            from repro.bench.table2 import render_table2, run_table2

            print(render_table2(run_table2()))
        elif target == "table3":
            from repro.bench.table3 import render_table3, run_table3

            print(render_table3(run_table3()))
        elif target == "table4":
            from repro.bench.table4 import (
                Table4Config,
                render_table4,
                run_table4,
            )

            if args.full:
                config = Table4Config(
                    n_instances=args.instances or 10_000,
                    folds=args.folds or 10,
                    repeats=args.repeats or 10,
                )
            else:
                config = Table4Config(
                    n_instances=args.instances or 400,
                    folds=args.folds or 5,
                    repeats=args.repeats or 8,
                )
            print(render_table4(run_table4(config, checkpoint=args.checkpoint)))
        elif target == "figures":
            from repro.bench.figures import run_figures

            for name, text in run_figures().items():
                print(f"===== {name} =====")
                print(text)
        elif target == "sweep":
            from repro.bench.sweep import (
                DEFAULT_OUTPUT,
                profile_sweep_bench,
                render_sweep_bench,
                run_sweep_bench,
                write_sweep_bench,
                write_sweep_profile,
            )

            result = run_sweep_bench(project_dir=args.project, jobs=args.jobs)
            print(render_sweep_bench(result))
            output = write_sweep_bench(result, args.output or DEFAULT_OUTPUT)
            print(f"wrote {output}")
            if args.profile:
                report = profile_sweep_bench(
                    project_dir=args.project, jobs=args.jobs
                )
                profile_path = write_sweep_profile(report)
                print(f"wrote {profile_path}")
            if args.check and not result.meets_target():
                return 1
        elif target == "overhead":
            from repro.bench.overhead import (
                DEFAULT_OUTPUT as OVERHEAD_OUTPUT,
                render_overhead_bench,
                run_overhead_bench,
                write_overhead_bench,
            )

            result = run_overhead_bench(quick=args.quick)
            print(render_overhead_bench(result))
            output = write_overhead_bench(
                result, args.output or OVERHEAD_OUTPUT
            )
            print(f"wrote {output}")
            if args.check and not result.meets_target():
                return 1
        elif target == "ingest":
            from repro.bench.ingest import (
                DEFAULT_OUTPUT as INGEST_OUTPUT,
                render_ingest_bench,
                run_ingest_bench,
                write_ingest_bench,
            )

            result = run_ingest_bench(
                records=args.records, quick=args.quick
            )
            print(render_ingest_bench(result))
            output = write_ingest_bench(
                result, args.output or INGEST_OUTPUT
            )
            print(f"wrote {output}")
            if args.check and not result.meets_target():
                return 1
        elif target == "semantics":
            from repro.bench.semantics import (
                DEFAULT_OUTPUT as SEMANTICS_OUTPUT,
                render_semantics_bench,
                run_semantics_bench,
                write_semantics_bench,
            )

            result = run_semantics_bench(
                project_dir=args.project, quick=args.quick
            )
            print(render_semantics_bench(result))
            output = write_semantics_bench(
                result, args.output or SEMANTICS_OUTPUT
            )
            print(f"wrote {output}")
            if args.check and not result.meets_target():
                return 1
        elif target == "chaos":
            from repro.bench.chaos import (
                DEFAULT_OUTPUT as CHAOS_OUTPUT,
                render_chaos_bench,
                run_chaos_bench,
                write_chaos_bench,
            )

            result = run_chaos_bench(jobs=args.jobs)
            print(render_chaos_bench(result))
            output = write_chaos_bench(result, args.output or CHAOS_OUTPUT)
            print(f"wrote {output}")
            if args.check and not result.passed():
                return 1
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
