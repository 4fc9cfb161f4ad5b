"""PEPO benchmark: ``python3 perfbench/run.py --workload NAME ...``.

Run from the root of a checkout.  ``--trace 0`` runs the workload's
closed loop for ``--seconds`` and reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` runs the layered, span-traced pass
(see :mod:`layers`) and reports the per-layer metrics.  The last line
of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Scratch files live under ``.perfbench/`` in the checkout and are
removed at exit; the span file (``trace-*.json``) and run metadata
(``meta-*.json``) are kept there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cold_check", "edit_loop", "profile_store")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def profiler_runtime() -> str:
    """The hook implementation ``EnergyTracer(runtime="auto")`` picks here."""
    from repro.profiler import EnergyTracer
    from repro.rapl.backends import SimulatedBackend

    tracer = EnergyTracer(SimulatedBackend())
    with tracer:
        pass
    return tracer.runtime_used


def host_speed_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast this host runs
    interpreted code right now, recorded so runs on a drifting shared
    host can be compared.  PEPO code is not involved."""
    samples = []
    for _ in range(15):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1000.0


def run_workload(name: str, seed: int, seconds: float, work: Path):
    import workloads as w
    from spans import SpanRecorder

    setup_s = w.measure_setup(name, ROOT)
    spans = SpanRecorder(enabled=False)
    tally = w.Tally()
    if name == "cold_check":
        bench = w.ColdCheck(seed, work, spans)
        w.closed_loop(w.cold_check_op(bench), seconds, tally)
    elif name == "edit_loop":
        bench = w.EditLoop(seed, work, spans)
        w.closed_loop(bench.operation, seconds, tally)
        tally.record(bench.final_differential())
    else:
        bench = w.ProfileStore(seed, work, spans)
        w.closed_loop(bench.operation, seconds, tally)
    metrics = {"setup_s": setup_s, "peak_rss_mb": w.peak_rss_mb()}
    if tally.latencies_ms:  # else every operation raised: metrics go missing
        metrics["op_ms_p50"] = statistics.median(tally.latencies_ms)
        metrics["cpu_s_per_op"] = tally.cpu_s / len(tally.latencies_ms)
    meta = {f"{name}.failed_op_share": tally.disagreed / max(1, tally.attempted)}
    return metrics, {name: tally}, meta


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no PEPO sources (src/repro) under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    host_ms = host_speed_ms()
    out_dir = ROOT / ".perfbench"
    tag = f"{args.workload}-{args.seed}-{'traced' if args.trace else 'e2e'}"
    work = out_dir / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            from layers import traced_run

            metrics, tallies = traced_run(
                args.seed, work, out_dir / f"trace-{tag}.json"
            )
            meta = {f"{name}.failed_op_share": metrics[f"{name}.failed_op_share"]
                    for name in tallies}
        else:
            metrics, tallies, meta = run_workload(
                args.workload, args.seed, args.seconds, work
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    import numpy

    from corpus import generate_corpus
    from oracle import KNOWN_DEFECTS
    from project import generate_project

    known: dict = {}
    for tally in tallies.values():
        for defect, n in tally.known.items():
            known[defect] = known.get(defect, 0) + n
    corpus = generate_corpus(args.seed)
    meta.update(
        seed=args.seed, workload=args.workload, trace=args.trace,
        corpus_files=len(corpus.files), corpus_kloc=corpus.loc() / 1000.0,
        profiled_calls=generate_project(args.seed).calls,
        host_loop_ms=[host_ms, host_speed_ms()],
        nproc=len(os.sched_getaffinity(0)), python=platform.python_version(),
        numpy=numpy.__version__, profiler_runtime=profiler_runtime(),
        known_defect_hits=known,
        known_defects={d.id: d.why for d in reversed(KNOWN_DEFECTS) if d.id in known},
        errors=[e for t in tallies.values() for e in t.errors][:20],
    )
    (out_dir / f"meta-{tag}.json").write_text(json.dumps(meta, indent=2) + "\n")
    print(json.dumps(meta), file=sys.stderr)

    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
    attempted = sum(t.attempted for t in tallies.values())
    failed = sum(t.failed for t in tallies.values())
    print(json.dumps({
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items() if name in metrics
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
