"""Exclusive-energy attribution of the probe runtime when activations
do not nest: asyncio tasks interleaving at ``await`` and probed
generators consumed side by side.

Invariants: every record's exclusive energy is non-negative, and the
exclusive energy summed over all records equals the inclusive energy
summed over the root activations (activations with no probed parent in
their own execution context — here ``main`` and each task body).
"""

from __future__ import annotations

import pytest

from repro.profiler.source_instrumenter import SourceInstrumenter
from repro.rapl.backends import SimulatedBackend, VirtualClock
from repro.rapl.domains import Domain

GATHERED_TASKS = """
import asyncio

def leaf(n):
    clock.advance(0.001 * n, 0.0005 * n)

async def task(k):
    for i in range(3):
        leaf(k + i + 1)
        await asyncio.sleep(0)
    clock.advance(0.0007, 0.0003)

async def main():
    clock.advance(0.002, 0.001)
    await asyncio.gather(*(task(k) for k in range(4)))
    clock.advance(0.001, 0.0005)

asyncio.run(main())
"""

ZIPPED_GENERATORS = """
def gen(n, scale):
    for i in range(n):
        clock.advance(0.001 * scale, 0.0004 * scale)
        yield i

def main():
    clock.advance(0.001, 0.001)
    total = 0
    for a, b in zip(gen(3, 1), gen(3, 2)):
        clock.advance(0.0005, 0.0002)
        total += a + b
    clock.advance(0.001, 0.0005)
    return total

main()
"""


def _profile(source: str):
    clock = VirtualClock()
    return SourceInstrumenter(SimulatedBackend(clock=clock)).run_source(
        source, module_name="m", extra_globals={"clock": clock}
    )


@pytest.mark.parametrize(
    "source,roots,counts",
    [
        (GATHERED_TASKS, {"m.main", "m.task"},
         {"m.main": 1, "m.task": 4, "m.leaf": 12}),
        (ZIPPED_GENERATORS, {"m.main"}, {"m.main": 1, "m.gen": 2}),
    ],
    ids=["gathered-tasks", "zipped-generators"],
)
@pytest.mark.parametrize("domain", [Domain.PACKAGE, Domain.PP0])
def test_exclusive_energy_is_conserved(source, roots, counts, domain):
    result = _profile(source)
    assert {m: len(result.executions_of(m)) for m in counts} == counts
    exclusive = [r.exclusive_joules[domain] for r in result]
    assert min(exclusive) >= 0.0
    root_inclusive = sum(r.joules[domain] for r in result if r.method in roots)
    assert root_inclusive > 0.0
    assert sum(exclusive) == pytest.approx(root_inclusive, abs=1e-9)


def test_task_children_stay_in_their_task():
    # Each task body's exclusive energy is its own clock advances only:
    # its three leaves are subtracted, whichever task was running when
    # they closed.
    result = _profile(GATHERED_TASKS)
    for record in result.executions_of("m.task"):
        assert record.exclusive_joules[Domain.PP0] >= 0.0
    leaves = sum(r.joules[Domain.PACKAGE] for r in result.executions_of("m.leaf"))
    tasks = result.executions_of("m.task")
    children = sum(
        r.joules[Domain.PACKAGE] - r.exclusive_joules[Domain.PACKAGE]
        for r in tasks
    )
    assert children == pytest.approx(leaves, abs=1e-12)


THREADED = """
import threading

def leaf(n):
    total = 0
    for i in range(n):
        total += i * i
    return total

def worker(k):
    for i in range(40):
        leaf(50 + k)

def main():
    threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    return [thread.is_alive() for thread in threads]

alive.extend(main())
"""


def test_threads_interleaving_probes_stay_chronological():
    # More threads than cores, switching as often as the interpreter
    # allows: readings must still be buffered in the order they were
    # taken (raw counters are converted chronologically, and one reading
    # out of order would surface as a counter wrap of ~262 kJ), and
    # every thread's activations must nest within that thread.
    import sys

    from repro.rapl.backends import RealClock

    alive: list = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = SourceInstrumenter(
            SimulatedBackend(clock=RealClock())
        ).run_source(THREADED, module_name="t", extra_globals={"alive": alive})
    finally:
        sys.setswitchinterval(interval)
    assert alive == [False] * 6
    counts = {m: len(result.executions_of(m)) for m in ("t.leaf", "t.worker")}
    assert counts == {"t.leaf": 240, "t.worker": 6}
    for domain in (Domain.PACKAGE, Domain.PP0):
        exclusive = [r.exclusive_joules[domain] for r in result]
        assert min(exclusive) >= 0.0
        assert max(r.joules[domain] for r in result) < 1000.0
        roots = {"t.main", "t.worker"}
        root_inclusive = sum(
            r.joules[domain] for r in result if r.method in roots
        )
        assert sum(exclusive) == pytest.approx(root_inclusive, abs=1e-9)
