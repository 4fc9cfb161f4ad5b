"""The probe runtime's output, pinned byte for byte.

``fixtures/probe_program.py`` runs under ``VirtualClock``-driven
backends; the committed goldens hold its ``result.txt`` and the full
``repr`` of every record (exclusive energy included, which result.txt
does not carry).  Scenarios:

* ``simulated`` — a plain :class:`SimulatedBackend` (the raw-reading
  path), and the same program behind a fault-free
  :class:`ResilientBackend` (the full-snapshot path): both must
  produce the same bytes;
* ``flaky`` — every fifth backend read raises ``OSError``, the first
  one included, so records go suspect and the no-reading-yet fallback
  is exercised;
* ``faults`` — a :class:`FaultInjectingBackend` with read errors, stale
  reads, backwards jumps (clamped negative deltas) and dropped domains;
* ``resilient_faults`` — the same faults behind a
  :class:`ResilientBackend` that degrades to a simulated fallback on
  the shared clock.

Regenerate (only when the output is meant to change) with
``PYTHONPATH=src python -m tests.profiler.test_probe_golden``.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import pytest

from repro.profiler.source_instrumenter import SourceInstrumenter
from repro.rapl.backends import SimulatedBackend, VirtualClock

FIXTURES = Path(__file__).parent / "fixtures"
PROGRAM = FIXTURES / "probe_program.py"
GOLDEN = FIXTURES / "probe_golden"

_FAULTS = dict(
    read_error_rate=0.12,
    stale_rate=0.08,
    wrap_rate=0.05,
    drop_domain_rate=0.1,
    seed=5,
)


class FlakyBackend(SimulatedBackend):
    """Fails every ``period``-th read, the very first one included."""

    def __init__(self, period: int = 5) -> None:
        super().__init__(clock=VirtualClock())
        self._period = period
        self._reads = 0

    def _fail(self) -> None:
        self._reads += 1
        if self._reads % self._period == 1:
            raise OSError("injected read failure")

    def snapshot(self):
        self._fail()
        return super().snapshot()

    def snapshot_raw(self):
        self._fail()
        return super().snapshot_raw()


def _resilient(primary, fallback=None):
    from repro.resilience.policy import ResiliencePolicy
    from repro.resilience.resilient import ResilientBackend

    return ResilientBackend(
        primary,
        ResiliencePolicy(max_retries=1),
        fallback=fallback,
        sleep=lambda seconds: None,
        monotonic=lambda: 0.0,
    )


def _faulty(clock):
    from repro.resilience.faults import FaultInjectingBackend, FaultPlan

    return FaultInjectingBackend(
        SimulatedBackend(clock=clock), FaultPlan(**_FAULTS)
    )


def _simulated():
    backend = SimulatedBackend(clock=VirtualClock())
    return backend, backend.clock


def _resilient_simulated():
    clock = VirtualClock()
    return _resilient(SimulatedBackend(clock=clock)), clock


def _flaky():
    backend = FlakyBackend()
    return backend, backend.clock


def _faults():
    clock = VirtualClock()
    return _faulty(clock), clock


def _resilient_faults():
    clock = VirtualClock()
    return _resilient(_faulty(clock), SimulatedBackend(clock=clock)), clock


#: golden name -> backend factories that must all reproduce it.
SCENARIOS = {
    "simulated": (_simulated, _resilient_simulated),
    "flaky": (_flaky,),
    "faults": (_faults,),
    "resilient_faults": (_resilient_faults,),
}


def run_scenario(factory, tmp_dir: Path) -> tuple[str, str]:
    """(result.txt text, one ``repr`` line per record) for one backend."""
    backend, clock = factory()
    with warnings.catch_warnings():
        # Clamped negative deltas warn by design in the fault scenarios.
        warnings.simplefilter("ignore", RuntimeWarning)
        result = SourceInstrumenter(backend).run_source(
            PROGRAM.read_text(),
            module_name="fixture",
            filename="probe_program.py",
            extra_globals={"clock": clock},
        )
    if getattr(backend, "degraded", False):
        result.degraded = True
    out = result.write_result_txt(tmp_dir / "result.txt").read_text()
    return out, "".join(repr(record) + "\n" for record in result)


@pytest.mark.parametrize(
    "name,factory",
    [(name, f) for name, factories in SCENARIOS.items() for f in factories],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_probe_output_matches_golden(name, factory, tmp_path):
    result_txt, records = run_scenario(factory, tmp_path)
    assert result_txt == (GOLDEN / f"{name}.result.txt").read_text()
    assert records == (GOLDEN / f"{name}.records.txt").read_text()


def test_scenarios_produce_suspect_and_degraded_records(tmp_path):
    flaky, _ = run_scenario(_flaky, tmp_path)
    assert "\tsuspect" in flaky
    degraded, _ = run_scenario(_resilient_faults, tmp_path)
    assert degraded.startswith("# method") and "# degraded=true" in degraded


def write_goldens() -> None:
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, factories in SCENARIOS.items():
            result_txt, records = run_scenario(factories[0], Path(tmp))
            (GOLDEN / f"{name}.result.txt").write_text(result_txt)
            (GOLDEN / f"{name}.records.txt").write_text(records)


if __name__ == "__main__":
    write_goldens()
