"""Seeded profiling target with analytically known call counts.

The generated project is one ``main.py``: a synchronous loop over
"mid" functions that each call a "leaf" function a seeded number of
times, a batch of asyncio tasks, and one worker thread.  The generator
computes how many records each function must produce in ``result.txt``
on both profiler paths:

* the probe path (source instrumentation) records one entry per call;
* the tracer path (``follow_threads`` + ``follow_tasks``) records one
  entry per resume of a coroutine — a task body that awaits ``K``
  times is resumed ``K + 1`` times — plus one for the module body.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

#: Probe-path calls per profiled run.  A run then takes 0.2-0.3 s, so
#: a profile/ingest/dashboard round of four runs fits 14-19 times in a
#: 20-s benchmark run.
TARGET_CALLS = 3000

_LEAF_BODIES = (
    "return (x * 7 + 3) % 11",
    "return x * x - 2 * x",
    "return (x << 2) ^ (x >> 1)",
    "return sum(range(x % 5))",
    "return len(str(x)) + x",
    "return max(x, 3) - min(x, 5)",
)


@dataclass(frozen=True)
class Project:
    source: str
    probe_counts: Counter
    follow_counts: Counter

    @property
    def calls(self) -> int:
        """Profiled calls per run on the probe path."""
        return sum(self.probe_counts.values())

    def write(self, root: Path) -> Path:
        root.mkdir(parents=True, exist_ok=True)
        (root / "main.py").write_text(self.source, encoding="utf-8")
        return root


def generate_project(seed: int) -> Project:
    rng = random.Random(seed)
    n_leaves = rng.randint(3, len(_LEAF_BODIES))
    n_mids = rng.randint(3, 5)
    mids = [(rng.randrange(n_leaves), rng.randint(5, 30)) for _ in range(n_mids)]
    tasks = rng.randint(3, 6)
    awaits = rng.randint(2, 6)
    task_leaf = rng.randrange(n_leaves)
    thread_mid = rng.randrange(n_mids)
    thread_n = rng.randint(20, 60)
    per_loop = sum(1 + n for _, n in mids)
    loops = max(1, TARGET_CALLS // per_loop)

    lines = ['"""Generated profiling target."""', "import asyncio",
             "import threading", ""]
    for i in range(n_leaves):
        lines += ["", f"def leaf_{i}(x):", f"    {_LEAF_BODIES[i]}", ""]
    for j, (leaf, n) in enumerate(mids):
        lines += [
            "", f"def mid_{j}(n):", "    t = 0", "    for i in range(n):",
            f"        t += leaf_{leaf}(i)", "    return t", "",
        ]
    lines += [
        "", "async def task_body(k):", "    s = 0", "    for i in range(k):",
        f"        s += leaf_{task_leaf}(i)", "        await asyncio.sleep(0)",
        "    return s", "",
        "", "async def run_tasks():",
        f"    results = await asyncio.gather(*(task_body({awaits})"
        f" for _ in range({tasks})))",
        "    return sum(results)", "",
        "", "def thread_body(out):", f"    out.append(mid_{thread_mid}({thread_n}))",
        "",
        "", "def main():", "    total = 0", f"    for _ in range({loops}):",
    ]
    lines += [f"        total += mid_{j}({n})" for j, (_, n) in enumerate(mids)]
    lines += [
        "    total += asyncio.run(run_tasks())", "    out = []",
        "    worker = threading.Thread(target=thread_body, args=(out,))",
        "    worker.start()", "    worker.join()", "    return total + out[0]",
        "", "", 'if __name__ == "__main__":', "    main()", "",
    ]

    counts: Counter = Counter()
    q = "__main__."
    counts[q + "main"] = 1
    for j, (leaf, n) in enumerate(mids):
        counts[q + f"mid_{j}"] += loops
        counts[q + f"leaf_{leaf}"] += loops * n
    counts[q + f"mid_{thread_mid}"] += 1
    counts[q + f"leaf_{mids[thread_mid][0]}"] += thread_n
    counts[q + "thread_body"] = 1
    counts[q + f"leaf_{task_leaf}"] += tasks * awaits
    probe = counts.copy()
    probe[q + "task_body"] = tasks
    probe[q + "run_tasks"] = 1
    follow = counts.copy()
    follow[q + "task_body"] = tasks * (awaits + 1)
    # run_tasks starts once and resumes once when the gather completes.
    follow[q + "run_tasks"] = 2
    follow[q + "<module>"] = 1
    return Project("\n".join(lines), +probe, +follow)


def result_txt_counts(path: Path) -> Counter:
    """Records per method in a ``result.txt``, read without PEPO code."""
    counts: Counter = Counter()
    for line in path.read_text().splitlines():
        if line and not line.startswith("#"):
            counts[line.split("\t", 1)[0]] += 1
    return counts
