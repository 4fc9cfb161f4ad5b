"""The traced run: every path, timed layer by layer.

Each path function below drives one workload's path once and times
every layer it calls into, wrapping each call in a span.
:func:`traced_run` runs every path twice, with the span recorder off
and on; the difference of the wall times is the measured tracing
overhead, next to the overhead the spans account for by their measured
unit cost.  The spans are written as a Chrome trace and each layer's
self time is computed back from that file.
"""

from __future__ import annotations

import ast
import importlib
import runpy
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import oracle
from corpus import TEMPLATES, Block, SourceFile, count_loc
from spans import SpanRecorder, self_times
from workloads import ColdCheck, EditLoop, ProfileStore, Tally, Timed

#: Layers that get a ``self.<layer>_ms`` metric.
LAYERS = ("analyzer", "semantics", "rules", "sweep", "check", "optimizer",
          "profiler", "rapl", "store", "views")
#: Edit cycles in the traced pass: enough for ten re-sweeps above p90.
EDIT_CYCLES = 100
#: ``SimulatedBackend.snapshot`` calls timed for ``rapl.snapshot_us``.
SNAPSHOTS = 20_000
#: Empty spans per loop timed for ``trace.span_overhead_ms``.
SPAN_LOOP = 20_000


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _functions(tree: ast.Module) -> list[ast.AST]:
    return [n for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]


def cold_check_layers(seed: int, work: Path, spans: SpanRecorder, m: dict,
                      tally: Tally) -> None:
    from repro.analyzer import Analyzer
    from repro.check import evaluate, to_sarif
    from repro.rules import REGISTRY
    from repro.semantics import build_cfg, build_semantic_model

    with spans.span("cold_check setup", "bench"):
        bench = ColdCheck(seed, work / "cold", spans)
    kloc = bench.kloc
    with Timed() as t:
        outcome = bench.operation()
    tally.record(bench.verify(outcome))
    results, stats, _, _ = outcome
    m["check_kloc_per_s"] = kloc / t.wall
    m["sweep.serial_s"] = bench.serial_s
    m["sweep.parallel_s"] = bench.parallel_s
    for key in ("retries", "timeouts", "pool_restarts", "quarantined"):
        m[f"sweep.{key}"] = getattr(stats, key)
    with Timed() as t, spans.span("evaluate", "check"):
        evaluate(results, baseline=bench.baseline, root=bench.root)
    m["check.evaluate_ms"] = t.ms
    with Timed() as t, spans.span("to_sarif", "check"):
        to_sarif(results, root=bench.root)
    m["check.sarif_ms"] = t.ms

    sources = [(str(bench.root / rel), f.render())
               for rel, f in sorted(bench.files.items())]
    parse_s = 0.0
    trees = []
    for name, text in sources:
        with Timed() as t, spans.span("ast.parse", "analyzer"):
            trees.append(ast.parse(text, filename=name))
        parse_s += t.wall
    m["analyzer.parse_ms_per_kloc"] = parse_s * 1000.0 / kloc

    analyzer = Analyzer(extended=True)
    per_file = []
    kept = suppressed = 0
    for name, text in sources:
        with Timed() as t, spans.span("analyze_source_full", "analyzer"):
            found, silenced = analyzer.analyze_source_full(text, filename=name)
        per_file.append(t.wall)
        kept += len(found)
        suppressed += len(silenced)
    m["analyzer.analyze_ms_per_kloc"] = sum(per_file) * 1000.0 / kloc
    m["analyzer.findings"] = kept
    m["analyzer.suppressed"] = suppressed
    expected_suppressed = sum(len(f.expected_suppressed()) for f in bench.files.values())
    if suppressed != expected_suppressed:
        tally.record(oracle.Verdict([f"{suppressed} findings suppressed, "
                                     f"{expected_suppressed} expected"]))
    m["sweep.parallel_speedup"] = m["sweep.serial_s"] / m["sweep.parallel_s"]
    m["sweep.worker_wait_s"] = m["sweep.parallel_s"] - sum(per_file) / bench.jobs
    m["sweep.max_file_ms"] = max(per_file) * 1000.0

    layer_s: Counter = Counter()
    functions = 0
    for tree in trees:
        model = build_semantic_model(tree)
        funcs = _functions(tree)
        steps = (
            ("scopes", lambda: model.scopes),
            ("types", lambda: model.types),
            ("hotness", lambda: model.loop_depth(tree)),
            ("cfg", lambda: [build_cfg(fn, fn.body) for fn in funcs]),
            ("dataflow", lambda: [model.flow_unit(fn) for fn in funcs]),
            ("purity", lambda: model.purity),
        )
        for layer, step in steps:
            with Timed() as t, spans.span(layer, "semantics"):
                step()
            layer_s[layer] += t.wall
        functions += len(model.purity.functions())
    # flow_unit builds the CFG again before solving the dataflow.
    layer_s["dataflow"] -= layer_s["cfg"]
    for layer in ("scopes", "types", "cfg", "dataflow", "purity", "hotness"):
        m[f"semantics.{layer}_ms_per_kloc"] = layer_s[layer] * 1000.0 / kloc
    m["semantics.functions"] = functions

    # Each rule alone over every other file keeps the traced run short.
    sample = sources[::2]
    sample_kloc = sum(count_loc(text) for _, text in sample) / 1000.0
    for rule in REGISTRY.detector_classes(extended=True):
        single = Analyzer(rules=[rule])
        count = 0
        with Timed() as t, spans.span(rule.rule_id, "rules"):
            for name, text in sample:
                count += len(single.analyze_source(text, filename=name))
        m[f"rules.{rule.rule_id}.isolated_ms_per_kloc"] = t.ms / sample_kloc
        m[f"rules.{rule.rule_id}.findings"] = count


def edit_loop_layers(seed: int, work: Path, spans: SpanRecorder, m: dict,
                     tally: Tally) -> None:
    from repro.analyzer import Analyzer

    with spans.span("edit_loop setup", "bench"):
        bench = EditLoop(seed, work / "edit", spans)
    m["cache_fill_s"] = bench.fill_s
    with Timed() as t, spans.span("analyze_project uncached", "sweep"):
        Analyzer().analyze_project(bench.root, jobs=1)
    m["sweep.cache_write_overhead_s"] = bench.fill_s - t.wall
    with Timed() as t:
        stats = bench.resweep()
    m["sweep.cache_hits"] = stats.cache_hits
    m["sweep.cache_misses"] = stats.cache_misses
    m["sweep.cache_hit_ratio"] = stats.cache_hits / max(1, stats.files)
    m["sweep.warm_ms_per_file"] = t.ms / max(1, stats.files)
    for _ in range(EDIT_CYCLES):
        _, _, verdict = bench.operation()
        tally.record(verdict)
    tally.record(bench.final_differential())
    m["resweep_ms_p50"] = statistics.median(bench.swap_ms)
    m["resweep_ms_p90"] = quantile(bench.swap_ms, 0.9)
    m["fix_ms_p50"] = statistics.median(bench.fix_ms)
    m["sweep.cache_bytes"] = sum(
        p.stat().st_size for p in bench.cache_dir.rglob("*") if p.is_file()
    )

    # The optimizer re-analyzes what it rewrites; every fourth dense
    # file is enough to time it.
    optimize_s = 0.0
    changes = 0
    sample_kloc = 0.0
    for rel in bench.dense[::4]:
        text = bench.files[rel].render()
        sample_kloc += count_loc(text) / 1000.0
        with Timed() as t, spans.span("optimize_source", "optimizer"):
            changes += len(bench.optimizer.optimize_source(text, filename=rel).changes)
        optimize_s += t.wall
    m["optimizer.optimize_ms_per_kloc"] = optimize_s * 1000.0 / sample_kloc
    m["optimizer.changes"] = changes


def profile_store_layers(seed: int, work: Path, spans: SpanRecorder, m: dict,
                         tally: Tally) -> None:
    from repro.rapl.backends import SimulatedBackend
    from repro.store import RunColumns, RunStore
    from repro.views.dashboard import render_dashboard

    with spans.span("profile_store setup", "bench"):
        bench = ProfileStore(seed, work / "profile", spans)
    main = str(bench.root / "main.py")
    with Timed() as t, spans.span("untraced run", "bench"):
        runpy.run_path(main, run_name="__main__")
    m["profiler.untraced_ms"] = t.ms
    for follow, key in ((False, "probe"), (True, "follow")):
        name = f"profile_project {key}"
        with Timed() as t, spans.span(name, "profiler"):
            result = bench.session.profile_project(
                bench.root, write_result=False,
                follow_threads=follow, follow_tasks=follow,
            )
        m[f"profiler.{key}_run_s"] = t.wall
        if not follow:
            m["profiler.records"] = len(result)
    # The tracer-path profile: its rows carry thread and task tokens.
    with Timed() as t, spans.span("write_result_txt", "profiler"):
        result.write_result_txt(bench.root / "result.txt")
    m["profiler.write_result_ms"] = t.ms

    backend = SimulatedBackend()
    with Timed() as t, spans.span("snapshot loop", "rapl"):
        for _ in range(SNAPSHOTS):
            backend.snapshot()
    m["rapl.snapshot_us"] = t.wall * 1e6 / SNAPSHOTS

    with Timed() as t, spans.span("RunColumns.from_result_txt", "store"):
        rows = len(RunColumns.from_result_txt(bench.root / "result.txt"))
    parse_s = t.wall
    m["store.parse_rows_per_s"] = rows / parse_s

    _, _, verdict = bench.operation()
    tally.record(verdict)
    store = RunStore(bench.last_store)
    with Timed() as t, spans.span("ingest_result_txt", "store"):
        info = store.ingest_result_txt(bench.root / "result.txt")
    m["store.commit_ms"] = (t.wall - parse_s) * 1000.0
    m["store.segment_bytes_per_row"] = (
        (store.segments_dir / info.segment).stat().st_size / info.rows
    )
    for query, call in (
        ("load_all", store.load_all), ("top_methods", store.top_methods),
        ("drift_flags", store.drift_flags), ("outlier_runs", store.outlier_runs),
    ):
        with Timed() as t, spans.span(query, "store"):
            call()
        m[f"store.{query}_ms"] = t.ms
    with Timed() as t, spans.span("render_dashboard", "views"):
        html = render_dashboard(store)
    m["views.dashboard_bytes"] = len(html.encode("utf-8"))
    m["dashboard_ms"] = t.ms

    calls = bench.project.calls
    m["profile_us_per_call"] = statistics.median(bench.probe_s) * 1e6 / calls
    m["profile_follow_us_per_call"] = statistics.median(bench.follow_s) * 1e6 / calls
    m["ingest_rows_per_s"] = (
        sum(r for r, _ in bench.ingest) / sum(s for _, s in bench.ingest)
    )


PATHS = (("cold_check", cold_check_layers), ("edit_loop", edit_loop_layers),
         ("profile_store", profile_store_layers))


def warm_up() -> None:
    """Pay first-import and first-use costs before anything is timed."""
    from repro.analyzer import Analyzer
    from repro.optimizer import Optimizer

    for module in ("repro.check", "repro.profiler", "repro.rapl.backends",
                   "repro.semantics", "repro.store", "repro.views.dashboard"):
        importlib.import_module(module)
    blocks = [Block(t.name, i) for i, t in enumerate(TEMPLATES)]
    text = SourceFile("warm.py", blocks).render()
    Analyzer(extended=True).analyze_source(text, filename="warm.py")
    Optimizer().optimize_source(text, filename="warm.py")


def span_cost_us() -> float:
    """Microseconds one span adds: a tight loop of empty spans with the
    recorder on, minus the same loop with it off (median of 5)."""
    costs = []
    for _ in range(5):
        loop_s = []
        for enabled in (False, True):
            recorder = SpanRecorder(enabled)
            start = time.perf_counter()
            for _ in range(SPAN_LOOP):
                with recorder.span("empty", "bench"):
                    pass
            loop_s.append(time.perf_counter() - start)
        costs.append((loop_s[1] - loop_s[0]) * 1e6 / SPAN_LOOP)
    return statistics.median(costs)


def run_path(name: str, fn, seed: int, work: Path, spans: SpanRecorder,
             m: dict, tally: Tally) -> float:
    """One path, its failures tallied; returns its wall time in seconds."""
    start = time.perf_counter()
    with spans.span(name, "bench"):
        try:
            fn(seed, work, spans, m, tally)
        except Exception as exc:
            tally.crash(exc)
            print(f"{name}: {type(exc).__name__}: {exc}", file=sys.stderr)
    return time.perf_counter() - start


def traced_run(seed: int, work: Path, trace_path: Path) -> tuple[dict, dict]:
    """Every path untraced and traced; returns (metrics, per-workload tallies).

    Each path runs twice back to back, with the span recorder off and
    on, in alternating order from path to path, so that host drift over
    the run falls on both sides of the overhead alike.  Metrics come
    from the traced runs; the oracles check both.
    """
    warm_up()
    spans = SpanRecorder()
    metrics: dict = {}
    tallies: dict = {}
    overhead_s = 0.0
    for i, (name, fn) in enumerate(PATHS):
        tally, untraced = Tally(), Tally()
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                overhead_s += run_path(name, fn, seed, work / "traced", spans,
                                       metrics, tally)
            else:
                overhead_s -= run_path(name, fn, seed, work / "untraced",
                                       SpanRecorder(enabled=False), {}, untraced)
        tally.merge(untraced)
        tallies[name] = tally

    spans.write_chrome_trace(trace_path)
    own = self_times(trace_path)
    for layer in LAYERS:
        metrics[f"self.{layer}_ms"] = own.get(layer, 0.0)
    metrics["trace.spans"] = len(spans.spans)
    metrics["trace.overhead_ms"] = overhead_s * 1000.0
    metrics["trace.span_overhead_ms"] = len(spans.spans) * span_cost_us() / 1000.0
    for name, tally in tallies.items():
        metrics[f"{name}.failed_op_share"] = tally.disagreed / max(1, tally.attempted)
    return metrics, tallies
