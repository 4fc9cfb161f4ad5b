"""The three closed-loop workloads, driven through PEPO's public API.

Each workload builds its inputs from the seed, sets up once, then runs
one operation after another until the time budget is spent.  Every
operation is checked against the oracles in :mod:`oracle`; only the
operation itself is timed.

* ``cold_check`` — one operation is ``pepo check`` on a fresh checkout:
  a cold sweep with ``Analyzer(extended=True)``, no cache and
  ``jobs = nproc``, then ``evaluate`` against a baseline and SARIF.
* ``edit_loop`` — one operation is an edit cycle of ``pepo suggest
  --cache`` (default rules, ``jobs=1``): a template swap in one file and
  a re-sweep, then an optimizer auto-fix of another file and a re-sweep.
* ``profile_store`` — one operation is a round of ``pepo profile`` (R
  runs on the probe path, R on the thread/task tracer path), ``pepo
  ingest`` of every ``result.txt`` into a fresh store, and ``pepo
  dashboard`` with the store queries it shows.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import oracle
from corpus import Block, TEMPLATES, generate_corpus
from project import generate_project, result_txt_counts
from spans import SpanRecorder

#: Profiles per path in one profile_store round.
PROFILE_REPEATS = 2
#: Fresh-process set-ups timed per run for ``setup_s``.
SETUP_REPEATS = 7

SETUP_CODE = {
    "cold_check": (
        "from repro.analyzer import Analyzer\n"
        "from repro.check import Baseline, evaluate, to_sarif\n"
        "Analyzer(extended=True)\n"
    ),
    "edit_loop": (
        "from repro.analyzer import Analyzer\n"
        "from repro.optimizer import Optimizer\n"
        "Analyzer(); Optimizer()\n"
    ),
    "profile_store": (
        "from repro.profiler import ProfilerSession\n"
        "from repro.rapl.backends import SimulatedBackend\n"
        "from repro.store import RunStore\n"
        "from repro.views.dashboard import render_dashboard\n"
        "ProfilerSession(SimulatedBackend()); RunStore('.')\n"
    ),
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def measure_setup(workload: str, root: Path) -> float:
    """Median wall time of a fresh interpreter importing PEPO and
    building the workload's top-level objects (one untimed warm-up
    first, which also compiles the byte code)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    samples = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE[workload]],
            cwd=root / ".perfbench", env=env, check=True,
        )
        if i:
            samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def finding_tuples(findings) -> list[tuple]:
    """Everything a user sees of a finding list, for differential checks."""
    return [
        (f.file, f.line, f.col, f.rule_id, f.message, f.severity, f.snippet)
        for f in findings
    ]


def rel_findings(results: dict, root: Path) -> dict[str, list[tuple[str, int]]]:
    return {
        Path(path).relative_to(root).as_posix(): [(f.rule_id, f.line) for f in items]
        for path, items in results.items()
    }


def run_functions(source: str) -> dict:
    """Execute a generated module and call every ``run_<k>`` entry point."""
    namespace: dict = {"__name__": "generated"}
    exec(compile(source, "<generated>", "exec"), namespace)
    return {name: namespace[name]() for name in sorted(namespace)
            if name.startswith("run_")}


@dataclass
class Tally:
    """Operations, their latencies and CPU, and oracle disagreements."""

    latencies_ms: list[float] = field(default_factory=list)
    cpu_s: float = 0.0
    attempted: int = 0
    disagreed: int = 0
    failed: int = 0
    known: Counter = field(default_factory=Counter)
    errors: list[str] = field(default_factory=list)

    def record(self, verdict: oracle.Verdict) -> None:
        self.attempted += 1
        self.known.update(verdict.known)
        if verdict.disagreed:
            self.disagreed += 1
        if verdict.unexpected:
            self.failed += 1
            self.errors.extend(verdict.unexpected[:5])

    def merge(self, other: "Tally") -> None:
        """Fold in the operations of another pass (not its timings)."""
        self.attempted += other.attempted
        self.disagreed += other.disagreed
        self.failed += other.failed
        self.known.update(other.known)
        self.errors.extend(other.errors)

    def crash(self, exc: BaseException) -> None:
        self.attempted += 1
        self.disagreed += 1
        self.failed += 1
        self.errors.append(f"{type(exc).__name__}: {exc}")


class Timed:
    """Wall and CPU time of one operation."""

    def __enter__(self):
        self.cpu = cpu_seconds()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self.start
        self.cpu = cpu_seconds() - self.cpu
        return False

    @property
    def ms(self) -> float:
        return self.wall * 1000.0


# -- cold_check ---------------------------------------------------------


class ColdCheck:
    """``pepo check`` on a fresh checkout of the generated corpus."""

    def __init__(self, seed: int, work: Path, spans: SpanRecorder) -> None:
        from repro.analyzer import Analyzer
        from repro.check import Baseline

        self.spans = spans
        self.corpus = generate_corpus(seed)
        self.root = work / "corpus"
        self.corpus.write(self.root)
        self.files = self.corpus.by_path()
        self.kloc = self.corpus.loc() / 1000.0
        self.jobs = nproc()
        self.analyzer = Analyzer(extended=True)
        # The serial sweep is both the differential reference for the
        # parallel sweeps and the source of the baseline's fingerprints.
        with Timed() as t, spans.span("analyze_project serial", "sweep"):
            serial = self.analyzer.analyze_project(self.root, jobs=1)
        self.serial_s = t.wall
        self.reference = {p: finding_tuples(f) for p, f in serial.items()}
        rng = random.Random(seed)
        self.baselined = {p for p in serial if rng.random() < 0.3}
        self.baseline = Baseline.from_findings(
            {p: serial[p] for p in self.baselined}, root=self.root
        )

    def operation(self):
        from repro.check import evaluate, to_sarif

        with Timed() as t, self.spans.span("analyze_project parallel", "sweep"):
            results = self.analyzer.analyze_project(self.root, jobs=self.jobs)
        self.parallel_s = t.wall
        stats = self.analyzer.last_sweep_stats
        with self.spans.span("evaluate", "check"):
            checked = evaluate(results, baseline=self.baseline, root=self.root)
        with self.spans.span("to_sarif", "check"):
            sarif = json.dumps(to_sarif(
                results, root=self.root, quarantine=self.analyzer.last_quarantine
            ))
        return results, stats, checked, sarif

    def verify(self, outcome) -> oracle.Verdict:
        results, stats, checked, sarif = outcome
        verdict = oracle.Verdict()
        if stats.quarantined or stats.timeouts or stats.io_errors:
            verdict.fail(f"sweep degraded: {stats}")
        if {p: finding_tuples(f) for p, f in results.items()} != self.reference:
            verdict.fail("parallel findings differ from the serial sweep")
        found = rel_findings(results, self.root)
        if set(found) != set(self.files):
            verdict.fail("sweep did not return every corpus file")
        for rel, items in found.items():
            if rel in self.files:
                verdict.merge(oracle.check_findings(self.files[rel], items, True))
        in_baseline = sum(len(results[p]) for p in self.baselined)
        if (len(checked.baselined), len(checked.new)) != (
            in_baseline, sum(map(len, results.values())) - in_baseline
        ):
            verdict.fail("evaluate split new/baselined findings wrongly")
        verdict.merge(oracle.check_sarif(json.loads(sarif), found))
        return verdict


# -- edit_loop ----------------------------------------------------------


class EditLoop:
    """``pepo suggest --cache`` while a developer edits and auto-fixes."""

    def __init__(self, seed: int, work: Path, spans: SpanRecorder) -> None:
        from repro.analyzer import Analyzer
        from repro.optimizer import Optimizer

        self.spans = spans
        self.rng = random.Random(seed + 1)
        self.corpus = generate_corpus(seed)
        self.root = work / "tree"
        self.cache_dir = work / "cache"
        self.corpus.write(self.root)
        self.files = self.corpus.by_path()
        self.dense = sorted(p for p, f in self.files.items() if f.blocks)
        # Edits walk a seeded permutation of the dense files, so every run
        # touches the same heavy-tailed mix of file sizes.  The fix trails
        # the swap by half a lap: each file is swapped between two fixes.
        self.order = self.dense[:]
        self.rng.shuffle(self.order)
        self.cycle = 0
        self.fixed: dict[str, bool] = {p: False for p in self.files}
        self.analyzer = Analyzer()
        self.optimizer = Optimizer()
        with Timed() as fill, spans.span("analyze_project cache fill", "sweep"):
            self.results = self.analyzer.analyze_project(
                self.root, cache=True, cache_dir=self.cache_dir
            )
        self.fill_s = fill.wall
        self.swap_ms: list[float] = []
        self.fix_ms: list[float] = []

    def resweep(self):
        with self.spans.span("analyze_project cached", "sweep"):
            self.results = self.analyzer.analyze_project(
                self.root, cache=True, cache_dir=self.cache_dir
            )
        return self.analyzer.last_sweep_stats

    def swap(self) -> tuple[Timed, oracle.Verdict]:
        rel = self.order[self.cycle % len(self.order)]
        source = self.files[rel]
        index = self.rng.randrange(len(source.blocks))
        source.blocks[index] = Block(self.rng.choice(TEMPLATES).name,
                                     self.corpus.next_k)
        self.corpus.next_k += 1
        self.fixed[rel] = False
        text = source.render()
        with Timed() as t:
            (self.root / rel).write_text(text, encoding="utf-8")
            stats = self.resweep()
        self.swap_ms.append(t.ms)
        return t, self.verify(stats, 1)

    def fix(self) -> tuple[Timed, oracle.Verdict]:
        rel = self.order[(self.cycle + len(self.order) // 2) % len(self.order)]
        before = self.files[rel].render()
        with Timed() as t:
            with self.spans.span("optimize_source", "optimizer"):
                rewritten = self.optimizer.optimize_source(before, filename=rel)
            (self.root / rel).write_text(rewritten.optimized, encoding="utf-8")
            stats = self.resweep()
        self.fix_ms.append(t.ms)
        self.fixed[rel] = True
        verdict = self.verify(stats, 1 if rewritten.changed else 0)
        if run_functions(before) != run_functions(rewritten.optimized):
            verdict.fail(f"{rel}: auto-fix changed what run_<k>() returns")
        return t, verdict

    def operation(self) -> tuple[float, float, oracle.Verdict]:
        swap, verdict = self.swap()
        fix, fix_verdict = self.fix()
        self.cycle += 1
        return swap.ms + fix.ms, swap.cpu + fix.cpu, verdict.merge(fix_verdict)

    def verify(self, stats, misses: int) -> oracle.Verdict:
        verdict = oracle.Verdict()
        if (stats.cache_misses, stats.cache_hits) != (misses, len(self.files) - misses):
            verdict.fail(f"cache: {stats.cache_hits} hits, {stats.cache_misses} "
                         f"misses after a one-file edit")
        for rel, items in rel_findings(self.results, self.root).items():
            source = self.files[rel]
            if self.fixed[rel]:
                got = Counter(rule for rule, _ in items)
                verdict.merge(oracle.check_after_fix(source, got, False))
            else:
                verdict.merge(oracle.check_findings(source, items, False))
        return verdict

    def final_differential(self) -> oracle.Verdict:
        """Cached findings must equal a fresh uncached serial sweep."""
        from repro.analyzer import Analyzer

        verdict = oracle.Verdict()
        fresh = Analyzer().analyze_project(self.root, jobs=1)
        cached = {p: finding_tuples(f) for p, f in self.results.items()}
        if {p: finding_tuples(f) for p, f in fresh.items()} != cached:
            verdict.fail("cached findings differ from a fresh uncached sweep")
        return verdict


# -- profile_store ------------------------------------------------------


class ProfileStore:
    """profile → result.txt → ingest → store queries → dashboard."""

    def __init__(self, seed: int, work: Path, spans: SpanRecorder) -> None:
        from repro.profiler import ProfilerSession
        from repro.rapl.backends import SimulatedBackend

        self.spans = spans
        self.work = work
        self.project = generate_project(seed)
        self.root = self.project.write(work / "project")
        self.session = ProfilerSession(backend=SimulatedBackend())
        self.rounds = 0
        self.probe_s: list[float] = []
        self.follow_s: list[float] = []
        self.ingest: list[tuple[int, float]] = []
        self.last_store = None

    def profile(self, follow: bool):
        name = "profile_project follow" if follow else "profile_project probe"
        with Timed() as t, self.spans.span(name, "profiler"):
            result = self.session.profile_project(
                self.root, follow_threads=follow, follow_tasks=follow
            )
        (self.follow_s if follow else self.probe_s).append(t.wall)
        return result

    def operation(self) -> tuple[float, float, oracle.Verdict]:
        from repro.store import RunStore
        from repro.views.dashboard import render_dashboard

        verdict = oracle.Verdict()
        # Each round grows a store of its own.  One store kept across
        # rounds would make every round slower than the last, so the cost
        # of an operation would depend on how many fit in the run, and a
        # faster profiler would read as slower queries.
        store_dir = self.work / f"store-{self.rounds}"
        self.rounds += 1
        store = RunStore(store_dir)
        expected = Counter()
        elapsed = cpu = 0.0
        for _ in range(PROFILE_REPEATS):
            for follow in (False, True):
                with Timed() as t:
                    result = self.profile(follow)
                    with Timed() as ing, self.spans.span("ingest_result_txt", "store"):
                        info = store.ingest_result_txt(self.root / "result.txt")
                elapsed += t.wall
                cpu += t.cpu
                self.ingest.append((info.rows, ing.wall))
                want = self.project.follow_counts if follow else self.project.probe_counts
                expected.update(want)
                verdict.merge(oracle.check_profile_counts(
                    result_txt_counts(self.root / "result.txt"), want,
                    "tracer result.txt" if follow else "probe result.txt"))
                if follow:
                    verdict.merge(oracle.check_conservation(result))
        with Timed() as t:
            with self.spans.span("top_methods", "store"):
                top = store.top_methods(n=10_000)
            with self.spans.span("drift_flags", "store"):
                store.drift_flags()
            with self.spans.span("outlier_runs", "store"):
                store.outlier_runs()
            with self.spans.span("render_dashboard", "views"):
                html = render_dashboard(store)
        elapsed += t.wall
        cpu += t.cpu
        verdict.merge(oracle.check_profile_counts(
            Counter({a.method: a.calls for a in top}), expected, "RunStore.top_methods"))
        if "<html" not in html or self.project.probe_counts.most_common(1)[0][0] not in html:
            verdict.fail("dashboard misses the hottest method")
        if self.last_store is not None:
            shutil.rmtree(self.last_store, ignore_errors=True)
        self.last_store = store_dir
        return elapsed * 1000.0, cpu, verdict


# -- the closed loop ----------------------------------------------------


def closed_loop(op, seconds: float, tally: Tally) -> None:
    """Run ``op`` back to back until ``seconds`` have passed (and at
    least three times, so a median exists on a slow host)."""
    deadline = time.perf_counter() + seconds
    while tally.attempted < 3 or time.perf_counter() < deadline:
        try:
            ms, cpu, verdict = op()
        except Exception as exc:  # an operation that raised is a failed one
            tally.crash(exc)
            continue
        tally.cpu_s += cpu
        tally.latencies_ms.append(ms)
        tally.record(verdict)


def cold_check_op(bench: ColdCheck):
    def op():
        with Timed() as t:
            outcome = bench.operation()
        return t.ms, t.cpu, bench.verify(outcome)
    return op
