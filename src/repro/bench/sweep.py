"""``pepo bench sweep`` — measure the project-sweep engine on a frozen corpus.

Four configurations of today's analyzer sweep over one project:

* ``serial_cold``    — one process, no cache: the baseline;
* ``parallel_cold``  — ``--jobs N`` worker processes, no cache;
* ``cache_cold``     — serial with a fresh cache (the first sweep of an
  edit loop: analysis + hashing + cache writes);
* ``cache_warm``     — serial against the populated cache.

The default project is the frozen corpus (:func:`frozen_corpus`):
``src/repro`` at :data:`PINNED_COMMIT`, so numbers compare across
commits.  Before any timing counts, every configuration's findings must
be byte-identical to ``serial_cold``'s, and on the frozen corpus
``serial_cold`` must match the golden file (:data:`GOLDEN_PATH`).
``--check`` also gates ``parallel_cold`` at :func:`min_parallel_speedup`
for the jobs actually used after :func:`repro.sweep.clamp_jobs`.
Results go to ``BENCH_sweep.json``; ``--profile`` writes a per-stage
cProfile report to ``BENCH_sweep_profile.txt``.
"""

from __future__ import annotations

import hashlib
import io
import json
import platform
import subprocess
import tarfile
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.views.tables import render_table

#: Default output path, relative to the working directory.
DEFAULT_OUTPUT = Path("BENCH_sweep.json")

#: Default ``--profile`` artifact path.
PROFILE_OUTPUT = Path("BENCH_sweep_profile.txt")

#: The commit whose :data:`CORPUS_PATH` tree is the frozen bench corpus.
PINNED_COMMIT = "19cc26581acf6226726b7b741855f57bd90cc045"

#: Repository path of the frozen corpus at :data:`PINNED_COMMIT`.
CORPUS_PATH = "src/repro"

#: How bench results name the frozen corpus.
FROZEN_CORPUS = f"{CORPUS_PATH}@{PINNED_COMMIT[:7]}"

#: Golden findings of the frozen corpus: a header of the versions they
#: were recorded under plus a sha256 of every finding's ``to_dict()``,
#: and per-file ``[line, col, rule_id]`` entries.
GOLDEN_PATH = Path(__file__).with_name("sweep_golden.json")

#: Largest serial fraction of a cold sweep the ``--check`` floor
#: tolerates (Amdahl's law; see :func:`min_parallel_speedup`): 1.25x at
#: 2 jobs.  34 ``--jobs 2`` runs on a shared 2-CPU container measured
#: 1.42x-1.98x; 18 runs with ``parallel_cold`` forced serial measured
#: 0.91x-1.20x, so a parallel path that silently runs serially fails.
MAX_SERIAL_FRACTION = 0.6


class SweepBenchError(RuntimeError):
    """The bench cannot run: no frozen corpus, or a stale golden file."""


def min_parallel_speedup(jobs: int) -> float | None:
    """``--check`` floor for ``parallel_cold`` over ``serial_cold`` at
    ``jobs`` workers; ``None`` at one job, where nothing scales."""
    if jobs <= 1:
        return None
    return 1.0 / (MAX_SERIAL_FRACTION + (1.0 - MAX_SERIAL_FRACTION) / jobs)


@contextmanager
def frozen_corpus() -> Iterator[Path]:
    """Extract :data:`CORPUS_PATH` at :data:`PINNED_COMMIT` with
    ``git archive`` into a temporary directory, removed on exit.

    Needs ``git`` and a clone holding the pinned commit (in CI:
    ``fetch-depth: 0``).
    """

    def git(cwd: str | Path, *args: str) -> bytes:
        return subprocess.run(
            ["git", "-C", str(cwd), *args], capture_output=True, check=True
        ).stdout

    try:
        # ``git archive`` resolves paths from the working directory, so
        # it runs from the top of the clone.
        top = git(Path(__file__).parent, "rev-parse", "--show-toplevel")
        tar = git(top.decode().strip(), "archive", f"{PINNED_COMMIT}:{CORPUS_PATH}")
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", None) or str(exc).encode()
        raise SweepBenchError(
            f"cannot extract the frozen bench corpus ({FROZEN_CORPUS}): "
            f"{detail.decode('utf-8', 'replace').strip()}. Run from a full "
            "git clone, or pass --project DIR to bench another tree."
        ) from exc
    with tempfile.TemporaryDirectory(prefix="pepo-bench-corpus-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
            if hasattr(tarfile, "data_filter"):
                archive.extractall(tmp, filter="data")
            else:  # pragma: no cover - Python without PEP 706 filters
                archive.extractall(tmp)
        yield Path(tmp)


@contextmanager
def bench_project(project_dir: str | Path | None) -> Iterator[Path]:
    """``project_dir`` as given, or the frozen corpus when ``None``."""
    if project_dir is not None:
        yield Path(project_dir)
    else:
        with frozen_corpus() as corpus:
            yield corpus


def _optimized_analyzer():
    """The shipped defaults (pre-filter on, lazy semantic layers)."""
    from repro.analyzer import Analyzer

    return Analyzer()


# -- golden findings ----------------------------------------------------


def canonical_findings(results: dict, root: str | Path) -> list[str]:
    """One sorted-key JSON line per finding, in relative-path order,
    with ``file`` made relative to ``root``."""
    relative = {name: Path(name).relative_to(root).as_posix() for name in results}
    return [
        json.dumps({**finding.to_dict(), "file": relative[name]}, sort_keys=True)
        for name in sorted(results, key=relative.__getitem__)
        for finding in results[name]
    ]


def _version_header() -> dict:
    from repro.rules import REGISTRY
    from repro.semantics import SEMANTICS_VERSION

    return {
        "pinned_commit": PINNED_COMMIT,
        "semantics_version": SEMANTICS_VERSION,
        "registry_fingerprint": REGISTRY.fingerprint(),
    }


def build_golden(results: dict, root: str | Path) -> dict:
    """The golden record of one sweep's findings (see :data:`GOLDEN_PATH`)."""
    by_file = {
        Path(name).relative_to(root).as_posix(): sorted(
            [f.line, f.col, f.rule_id] for f in findings
        )
        for name, findings in results.items()
    }
    stream = "\n".join(canonical_findings(results, root)).encode("utf-8")
    return {
        **_version_header(),
        "files": len(by_file),
        "findings": sum(map(len, by_file.values())),
        "findings_sha256": hashlib.sha256(stream).hexdigest(),
        "by_file": dict(sorted(by_file.items())),
    }


def load_golden(path: str | Path) -> dict:
    """Read a golden file; raise when its versions are not the live ones."""
    golden = json.loads(Path(path).read_text(encoding="utf-8"))
    live = _version_header()
    stale = [key for key in live if golden.get(key) != live[key]]
    if stale:
        raise SweepBenchError(
            f"golden is stale, regenerate: {path} was recorded under another "
            f"{', '.join(stale)}; rewrite it with "
            "repro.bench.sweep.write_sweep_golden() and review the diff"
        )
    return golden


def golden_drift(golden: dict, results: dict, root: str | Path) -> list[str]:
    """How a sweep's findings differ from ``golden``; empty when equal."""
    live = build_golden(results, root)
    want, got = golden["by_file"], live["by_file"]
    drift = [
        f"{path}: golden {want.get(path)}, now {got.get(path)}"
        for path in sorted(want.keys() | got.keys())
        if want.get(path) != got.get(path)
    ]
    if not drift and golden["findings_sha256"] != live["findings_sha256"]:
        drift.append(
            "findings_sha256: same locations, but a message, suggestion, "
            "severity or score changed"
        )
    return drift


def write_sweep_golden() -> Path:
    """Regenerate :data:`GOLDEN_PATH` from a serial sweep of the frozen
    corpus, in the change that bumps ``SEMANTICS_VERSION`` or a rule's
    ``version`` (the bench refuses a stale golden)::

        PYTHONPATH=src python -c \\
            "from repro.bench.sweep import write_sweep_golden; write_sweep_golden()"

    One line per file, so a drift diffs as the lines of the files it hit.
    """
    with frozen_corpus() as corpus:
        golden = build_golden(_optimized_analyzer().analyze_project(corpus), corpus)
    by_file = golden.pop("by_file")
    header = [f"  {json.dumps(key)}: {json.dumps(value)}," for key, value in golden.items()]
    rows = [
        f"    {json.dumps(path)}: {json.dumps(entries, separators=(',', ':'))}"
        for path, entries in by_file.items()
    ]
    GOLDEN_PATH.write_text(
        "{\n%s\n  \"by_file\": {\n%s\n  }\n}\n" % ("\n".join(header), ",\n".join(rows)),
        encoding="utf-8",
    )
    return GOLDEN_PATH


# -- the bench ----------------------------------------------------------


@dataclass(frozen=True)
class SweepBenchResult:
    """Timings (seconds) and bookkeeping for one bench run."""

    project: str
    files: int
    findings: int
    jobs: int
    timings: dict[str, float]
    deterministic: bool
    #: Differences from the golden file; ``None`` off the frozen corpus.
    golden_drift: list[str] | None = None
    cpus: int = 1
    python: str = ""

    def speedups(self) -> dict[str, float]:
        """Each configuration's speedup over the cold serial sweep."""
        base = self.timings["serial_cold"]
        return {
            name: (base / seconds if seconds > 0 else float("inf"))
            for name, seconds in self.timings.items()
            if name != "serial_cold"
        }

    def meets_target(self) -> bool:
        """The ``--check`` gate: identical findings everywhere, no golden
        drift, and ``parallel_cold`` at or above the floor for the jobs
        actually used."""
        floor = min_parallel_speedup(self.jobs)
        return (
            self.deterministic
            and not self.golden_drift
            and (floor is None or self.speedups()["parallel_cold"] >= floor)
        )

    def to_dict(self) -> dict:
        floor = min_parallel_speedup(self.jobs)
        return {
            "bench": "sweep",
            "project": self.project,
            "python": self.python,
            "cpus": self.cpus,
            "files": self.files,
            "findings": self.findings,
            "jobs": self.jobs,
            "timings_s": {k: round(v, 6) for k, v in self.timings.items()},
            "speedups_vs_serial_cold": {
                k: round(v, 2) for k, v in self.speedups().items()
            },
            "min_parallel_speedup": floor and round(floor, 3),
            "deterministic": self.deterministic,
            "golden_drift": self.golden_drift,
            "meets_target": self.meets_target(),
        }


def run_sweep_bench(
    project_dir: str | Path | None = None,
    jobs: int = 2,
    repeats: int = 3,
) -> SweepBenchResult:
    """Run all four sweep configurations; best-of-``repeats`` timings
    (``cache_cold`` runs once: a second run would be warm).

    ``project_dir`` defaults to the frozen corpus, whose serial findings
    are checked against :data:`GOLDEN_PATH`.  ``jobs`` is capped at the
    usable CPU count; the recorded ``jobs`` field is the count used.
    """
    from repro.sweep import available_cpus, clamp_jobs

    golden = load_golden(GOLDEN_PATH) if project_dir is None else None
    jobs = clamp_jobs(jobs)
    timings: dict[str, float] = {}

    def timed(name: str, **kwargs) -> dict:
        start = time.perf_counter()
        results = _optimized_analyzer().analyze_project(project, **kwargs)
        elapsed = time.perf_counter() - start
        timings[name] = min(timings.get(name, elapsed), elapsed)
        return results

    with bench_project(project_dir) as project:
        for _ in range(max(1, repeats)):
            # Interleaved, so load drift on a shared machine hits the
            # serial baseline and the parallel sweep alike.
            serial = timed("serial_cold")
            parallel = timed("parallel_cold", jobs=jobs)
        with tempfile.TemporaryDirectory(prefix="pepo-bench-cache-") as cache:
            cached = timed("cache_cold", cache=True, cache_dir=cache)
            for _ in range(max(1, repeats)):
                warm = timed("cache_warm", cache=True, cache_dir=cache)
        reference = canonical_findings(serial, project)
        deterministic = all(
            canonical_findings(results, project) == reference
            for results in (parallel, cached, warm)
        )
        drift = golden and golden_drift(golden, serial, project)

    return SweepBenchResult(
        project=FROZEN_CORPUS if project_dir is None else str(project_dir),
        files=len(serial),
        findings=len(reference),
        jobs=jobs,
        timings=timings,
        deterministic=deterministic,
        golden_drift=drift,
        cpus=available_cpus(),
        python=platform.python_version(),
    )


def profile_sweep_bench(
    project_dir: str | Path | None = None,
    jobs: int = 2,
    top: int = 25,
) -> str:
    """cProfile one run of each sweep stage; returns the report text.

    Parallel stages profile the *parent* process only (submit, IPC,
    decode, merge) — worker CPU lives in child processes; use
    ``pepo suggest --jobs N --self-profile`` for worker-side
    attribution.  The report is what ``--profile`` writes to
    :data:`PROFILE_OUTPUT` and what CI uploads as an artifact.
    """
    import cProfile
    import pstats

    from repro.sweep import clamp_jobs

    jobs = clamp_jobs(jobs)
    sections: list[str] = []

    def profiled(stage: str, run) -> None:
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            run()
        finally:
            profiler.disable()
        buffer = io.StringIO()
        stats = pstats.Stats(profiler, stream=buffer)
        stats.sort_stats("cumulative").print_stats(top)
        sections.append(f"===== {stage} =====\n{buffer.getvalue().rstrip()}")

    with bench_project(project_dir) as project:
        profiled(
            "serial_cold",
            lambda: _optimized_analyzer().analyze_project(project),
        )
        profiled(
            "parallel_cold (parent process)",
            lambda: _optimized_analyzer().analyze_project(project, jobs=jobs),
        )
        with tempfile.TemporaryDirectory(prefix="pepo-bench-cache-") as cache:
            _optimized_analyzer().analyze_project(
                project, cache=True, cache_dir=cache
            )
            profiled(
                "cache_warm",
                lambda: _optimized_analyzer().analyze_project(
                    project, cache=True, cache_dir=cache
                ),
            )
    return "\n\n".join(sections) + "\n"


def write_sweep_profile(
    report: str, output: str | Path = PROFILE_OUTPUT
) -> Path:
    output = Path(output)
    output.write_text(report, encoding="utf-8")
    return output


def render_sweep_bench(result: SweepBenchResult) -> str:
    speedups = result.speedups()
    rows = [("serial_cold", f"{result.timings['serial_cold'] * 1000:.1f}", "1.00x")]
    for name in ("parallel_cold", "cache_cold", "cache_warm"):
        rows.append(
            (name, f"{result.timings[name] * 1000:.1f}", f"{speedups[name]:.2f}x")
        )
    table = render_table(
        ("Configuration", "Time (ms)", "Speedup"),
        rows,
        title=f"Sweep bench — {result.files} files, {result.findings} "
        f"findings ({result.project}), {result.jobs} job(s) on "
        f"{result.cpus} CPU(s), Python {result.python}",
        right_align=(1, 2),
    )
    lines = [
        "parallel + cached output identical to serial_cold (current engine)"
        if result.deterministic
        else "DETERMINISM VIOLATION: parallel/cached output differs from serial"
    ]
    if result.golden_drift:
        lines.append("FINDINGS DRIFTED WITHOUT A VERSION BUMP (golden vs now):")
        lines.extend(f"  {item}" for item in result.golden_drift[:20])
    elif result.golden_drift is not None:
        lines.append(f"serial_cold matches the golden findings ({result.findings})")
    floor = min_parallel_speedup(result.jobs)
    lines.append(
        "no parallel scaling gate at 1 job"
        if floor is None
        else f"parallel_cold speedup {speedups['parallel_cold']:.2f}x over "
        f"current serial (gate: >= {floor:.2f}x at {result.jobs} jobs)"
    )
    return "\n".join([table, *lines])


def write_sweep_bench(
    result: SweepBenchResult, output: str | Path = DEFAULT_OUTPUT
) -> Path:
    output = Path(output)
    output.write_text(
        json.dumps(result.to_dict(), indent=2) + "\n", encoding="utf-8"
    )
    return output
