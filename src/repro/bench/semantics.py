"""``pepo bench semantics`` — cost of the flow-sensitive fact layer.

The flow-sensitive layer (CFGs, reaching definitions, type states,
liveness, the purity call graph) runs on every analyzed file, so its
cost is paid by ``pepo suggest``/``check``/``optimize`` sweeps and by
the editor-style watch loop.  This bench measures that cost directly:
for each file in a corpus (default: the frozen corpus the sweep bench
uses, :func:`repro.bench.sweep.frozen_corpus`) it times

* ``parse`` — ``ast.parse`` alone (the floor any analysis pays), and
* ``facts`` — ``build_semantic_model(tree).materialize()``, which
  forces scopes, types, hotness, every function's CFG + reaching
  definitions + type states, and the purity call graph,

best-of-``repeats``, and normalizes to **milliseconds per KLoC**
(thousand non-blank, non-comment lines — the same LOC convention as
Table II).  Normalizing by corpus size makes the figure comparable
across corpus choices; the frozen default keeps it comparable across
commits.

Budget: :data:`BUDGET_MS_PER_KLOC` is the gate for ``--check``, set at
about 1.5× the measured median, so a real regression fails it.
``--quick`` caps the corpus at :data:`QUICK_FILE_CAP` files and uses
fewer repeats — the CI smoke configuration.

Results go to ``BENCH_semantics.json`` so the perf claim is measured,
not asserted.
"""

from __future__ import annotations

import ast
import json
import platform
import time
from dataclasses import dataclass
from pathlib import Path

from repro.bench.sweep import FROZEN_CORPUS, bench_project
from repro.views.tables import render_table

#: Default output path, relative to the working directory.
DEFAULT_OUTPUT = Path("BENCH_semantics.json")

#: ``--check`` fails when materializing every flow fact costs more
#: than this many milliseconds per thousand lines of code: about 1.5x
#: the median of 16 ``--quick`` runs on the frozen corpus (57-89
#: ms/KLoC, median 78.5, on a shared 2-CPU container with CPython
#: 3.11.7).  ``--quick`` keeps the densest files, so it is the harder
#: configuration: 12 full runs measured 54.5-80.6 (median 62.9).
BUDGET_MS_PER_KLOC = 120.0

#: The gate charges a corpus for at least this many lines: below it,
#: fixed per-module setup dominates and ms/KLoC measures overhead, not
#: throughput (a 15-line project runs at ~120 ms/KLoC).
MIN_GATED_LOC = 1000

#: ``--quick`` analyzes at most this many files (largest first, so the
#: smoke run still covers the most structurally demanding modules).
QUICK_FILE_CAP = 12

#: Directory names never walked for corpus files.
_SKIP_DIRS = frozenset(
    {"__pycache__", ".git", ".pepo_cache", ".venv", "venv", "node_modules"}
)


@dataclass(frozen=True)
class SemanticsBenchResult:
    """Timing of the flow-fact layer over a corpus."""

    python: str
    corpus: str
    files: int
    loc: int
    functions: int
    repeats: int
    quick: bool
    #: Best-of-repeats wall time for ``ast.parse`` over the corpus.
    parse_ms: float
    #: Best-of-repeats wall time for building + materializing every
    #: semantic model over the corpus (parse excluded).
    facts_ms: float
    budget_ms_per_kloc: float = BUDGET_MS_PER_KLOC
    cpus: int = 1

    @property
    def kloc(self) -> float:
        return self.loc / 1000.0

    def facts_ms_per_kloc(self) -> float:
        """The headline figure ``--check`` gates on."""
        return self.facts_ms / self.kloc if self.loc else 0.0

    def parse_ms_per_kloc(self) -> float:
        return self.parse_ms / self.kloc if self.loc else 0.0

    def meets_target(self) -> bool:
        gated_kloc = max(self.loc, MIN_GATED_LOC) / 1000.0
        return self.facts_ms <= self.budget_ms_per_kloc * gated_kloc

    def to_dict(self) -> dict:
        return {
            "bench": "semantics",
            "python": self.python,
            "cpus": self.cpus,
            "corpus": self.corpus,
            "files": self.files,
            "loc": self.loc,
            "functions": self.functions,
            "repeats": self.repeats,
            "quick": self.quick,
            "parse_ms": round(self.parse_ms, 3),
            "facts_ms": round(self.facts_ms, 3),
            "parse_ms_per_kloc": round(self.parse_ms_per_kloc(), 3),
            "facts_ms_per_kloc": round(self.facts_ms_per_kloc(), 3),
            "budget_ms_per_kloc": self.budget_ms_per_kloc,
            "meets_target": self.meets_target(),
        }


def corpus_files(root: str | Path, cap: int | None = None) -> list[Path]:
    """The ``.py`` files under ``root`` that actually parse, largest
    first when ``cap`` trims the list (so ``--quick`` keeps the most
    demanding modules rather than a directory-order accident)."""
    root = Path(root)
    if root.is_file():
        return [root]
    files = [
        path
        for path in sorted(root.rglob("*.py"))
        if not (_SKIP_DIRS & set(path.parts))
    ]
    if cap is not None and len(files) > cap:
        files.sort(key=lambda p: p.stat().st_size, reverse=True)
        files = files[:cap]
        files.sort()
    return files


def run_semantics_bench(
    project_dir: str | Path | None = None,
    quick: bool = False,
    repeats: int | None = None,
) -> SemanticsBenchResult:
    """Time the fact layer over ``project_dir`` (default: the frozen
    corpus — the same one the sweep bench uses)."""
    from repro.metrics.loc import count_loc
    from repro.semantics import build_semantic_model
    from repro.sweep import available_cpus

    if repeats is None:
        repeats = 2 if quick else 5

    sources: list[tuple[str, str]] = []
    loc = 0
    with bench_project(project_dir) as root:
        files = corpus_files(root, cap=QUICK_FILE_CAP if quick else None)
        for path in files:
            try:
                text = path.read_text(encoding="utf-8")
                ast.parse(text, filename=str(path))
            except (SyntaxError, UnicodeDecodeError, OSError):
                continue
            sources.append((str(path), text))
            loc += count_loc(text)

    best_parse = float("inf")
    best_facts = float("inf")
    functions = 0
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        trees = [
            ast.parse(text, filename=name) for name, text in sources
        ]
        best_parse = min(best_parse, time.perf_counter() - start)

        start = time.perf_counter()
        count = 0
        for tree in trees:
            model = build_semantic_model(tree)
            count += model.materialize()["functions"]
        best_facts = min(best_facts, time.perf_counter() - start)
        functions = count

    return SemanticsBenchResult(
        python=platform.python_version(),
        cpus=available_cpus(),
        corpus=FROZEN_CORPUS if project_dir is None else str(project_dir),
        files=len(sources),
        loc=loc,
        functions=functions,
        repeats=max(repeats, 1),
        quick=quick,
        parse_ms=best_parse * 1000.0,
        facts_ms=best_facts * 1000.0,
    )


def render_semantics_bench(result: SemanticsBenchResult) -> str:
    rows = [
        ("ast.parse", f"{result.parse_ms:.1f}",
         f"{result.parse_ms_per_kloc():.1f}", "—"),
        ("flow facts", f"{result.facts_ms:.1f}",
         f"{result.facts_ms_per_kloc():.1f}",
         f"{result.budget_ms_per_kloc:.0f}"),
    ]
    table = render_table(
        ("Stage", "Total (ms)", "ms/KLoC", "Budget"),
        rows,
        title=f"Flow-fact layer bench — Python {result.python}, "
        f"{result.files} file(s), {result.loc} LoC, "
        f"{result.functions} function(s), best of {result.repeats}",
        right_align=(1, 2, 3),
    )
    floor = (
        f" (charged as {MIN_GATED_LOC} LoC)" if result.loc < MIN_GATED_LOC else ""
    )
    verdict = (
        f"flow facts within budget: {result.facts_ms_per_kloc():.1f} "
        f"<= {result.budget_ms_per_kloc:.0f} ms/KLoC{floor}"
        if result.meets_target()
        else f"SEMANTICS REGRESSION: {result.facts_ms_per_kloc():.1f} "
        f"ms/KLoC exceeds the {result.budget_ms_per_kloc:.0f} ms/KLoC "
        "budget"
    )
    return f"{table}\n{verdict}"


def write_semantics_bench(
    result: SemanticsBenchResult, output: str | Path = DEFAULT_OUTPUT
) -> Path:
    output = Path(output)
    output.write_text(
        json.dumps(result.to_dict(), indent=2) + "\n", encoding="utf-8"
    )
    return output
