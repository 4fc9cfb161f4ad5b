"""Tests for simulated/live backends, the meter, and the perf harness."""

from pathlib import Path

import pytest

from repro.rapl.backends import (
    EnergyMeter,
    LiveBackend,
    RealClock,
    SimulatedBackend,
    VirtualClock,
    default_backend,
)
from repro.rapl.domains import DOMAINS, Domain
from repro.rapl.msr import MSR_PKG_ENERGY_STATUS
from repro.rapl.perf import METRICS, EnergySample, PerfStat


def make_backend(**kwargs) -> SimulatedBackend:
    return SimulatedBackend(clock=VirtualClock(), **kwargs)


class TestVirtualClock:
    def test_advances_wall_and_cpu(self):
        clock = VirtualClock()
        clock.advance(2.0, 1.5)
        assert clock.now() == (2.0, 1.5)

    def test_cpu_defaults_to_wall(self):
        clock = VirtualClock()
        clock.advance(3.0)
        assert clock.now() == (3.0, 3.0)

    def test_cannot_move_backwards(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)


class TestSimulatedBackend:
    def test_initial_snapshot_is_zero(self):
        backend = make_backend()
        snap = backend.snapshot()
        assert all(j == 0.0 for j in snap.joules.values())

    def test_one_busy_second_yields_model_energy(self):
        backend = make_backend()
        backend.clock.advance(1.0, 1.0)
        snap = backend.snapshot()
        assert snap.joules[Domain.PACKAGE] == pytest.approx(15.0, rel=1e-3)
        assert snap.joules[Domain.PP0] == pytest.approx(11.0, rel=1e-3)

    def test_idle_time_costs_static_power_only(self):
        backend = make_backend()
        backend.clock.advance(1.0, 0.0)
        snap = backend.snapshot()
        assert snap.joules[Domain.PACKAGE] == pytest.approx(3.0, rel=1e-3)

    def test_snapshots_are_monotone(self):
        backend = make_backend()
        previous = backend.snapshot().joules[Domain.PACKAGE]
        for _ in range(5):
            backend.clock.advance(0.5, 0.3)
            current = backend.snapshot().joules[Domain.PACKAGE]
            assert current >= previous
            previous = current

    def test_intensity_scope_scales_dynamic_energy(self):
        backend = make_backend()
        with backend.intensity_scope(2.0):
            backend.clock.advance(1.0, 1.0)
        snap = backend.snapshot()
        # package: 3*1 static + 12*2*1 dynamic
        assert snap.joules[Domain.PACKAGE] == pytest.approx(27.0, rel=1e-3)

    def test_intensity_scope_restores_previous(self):
        backend = make_backend()
        with backend.intensity_scope(3.0):
            pass
        backend.clock.advance(1.0, 1.0)
        assert backend.snapshot().joules[Domain.PACKAGE] == pytest.approx(
            15.0, rel=1e-3
        )

    def test_negative_intensity_rejected(self):
        backend = make_backend()
        with pytest.raises(ValueError):
            with backend.intensity_scope(-1.0):
                pass

    def test_post_joules_adds_explicit_event(self):
        backend = make_backend()
        backend.post_joules(Domain.DRAM, 5.0)
        snap = backend.snapshot()
        assert snap.joules[Domain.DRAM] == pytest.approx(5.0, rel=1e-3)

    def test_read_msr_by_address(self):
        backend = make_backend()
        backend.clock.advance(1.0, 1.0)
        raw = backend.read_msr(MSR_PKG_ENERGY_STATUS)
        assert raw == backend.units.joules_to_raw(15.0)

    def test_noise_is_deterministic_given_seed(self):
        def run(seed):
            backend = make_backend(noise_sigma=0.05, seed=seed)
            backend.clock.advance(1.0, 1.0)
            return backend.snapshot().joules[Domain.PACKAGE]

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_outlier_injection_produces_occasional_spikes(self):
        backend = make_backend(outlier_rate=0.3, outlier_scale=10.0, seed=1)
        values = []
        for _ in range(30):
            before = backend.snapshot().joules[Domain.PACKAGE]
            backend.clock.advance(1.0, 1.0)
            values.append(backend.snapshot().joules[Domain.PACKAGE] - before)
        spikes = [v for v in values if v > 50.0]
        normal = [v for v in values if v <= 50.0]
        assert spikes and normal

    def test_invalid_noise_and_outlier_params_rejected(self):
        with pytest.raises(ValueError):
            make_backend(noise_sigma=-0.1)
        with pytest.raises(ValueError):
            make_backend(outlier_rate=1.0)


class TestEnergyMeter:
    def test_measures_delta_inside_scope_only(self):
        backend = make_backend()
        backend.clock.advance(5.0, 5.0)  # pre-existing consumption
        meter = EnergyMeter(backend)
        with meter.measure() as reading:
            backend.clock.advance(1.0, 1.0)
        assert reading.result.package_joules == pytest.approx(15.0, rel=1e-3)
        assert reading.result.wall_seconds == pytest.approx(1.0)
        assert reading.result.cpu_seconds == pytest.approx(1.0)

    def test_reading_before_exit_raises(self):
        meter = EnergyMeter(make_backend())
        with meter.measure() as reading:
            with pytest.raises(RuntimeError):
                _ = reading.result

    def test_measure_callable_returns_value_and_delta(self):
        backend = make_backend()
        meter = EnergyMeter(backend)

        def work():
            backend.clock.advance(2.0, 1.0)
            return "done"

        value, delta = meter.measure_callable(work)
        assert value == "done"
        assert delta.package_joules == pytest.approx(3 * 2 + 12 * 1, rel=1e-3)

    def test_average_power(self):
        backend = make_backend()
        meter = EnergyMeter(backend)
        with meter.measure() as reading:
            backend.clock.advance(2.0, 2.0)
        assert reading.result.average_power_watts(Domain.PACKAGE) == pytest.approx(
            15.0, rel=1e-3
        )

    def test_real_clock_measures_actual_work(self):
        """End-to-end on the real clock: busy work consumes > idle epsilon."""
        meter = EnergyMeter(SimulatedBackend(clock=RealClock()))
        with meter.measure() as reading:
            total = sum(i * i for i in range(200_000))
        assert total > 0
        assert reading.result.package_joules > 0.0
        assert reading.result.cpu_seconds > 0.0


class TestPerfStat:
    def test_run_collects_requested_repeats(self):
        backend = make_backend()
        perf = PerfStat(backend)

        def work():
            backend.clock.advance(1.0, 1.0)

        samples = perf.run(work, repeats=5)
        assert len(samples) == 5
        for sample in samples:
            assert sample.package_joules == pytest.approx(15.0, rel=1e-3)

    def test_invalid_repeats_rejected(self):
        with pytest.raises(ValueError):
            PerfStat(make_backend()).run(lambda: None, repeats=0)

    def test_metric_lookup(self):
        sample = EnergySample(10.0, 7.0, 2.0, 1.5)
        assert sample.metric("package") == 10.0
        assert sample.metric("cpu") == 7.0
        assert sample.metric("time") == 2.0
        with pytest.raises(KeyError):
            sample.metric("dram")

    def test_column_extraction(self):
        samples = [EnergySample(1.0, 2.0, 3.0, 4.0), EnergySample(5.0, 6.0, 7.0, 8.0)]
        assert PerfStat.column(samples, "package") == [1.0, 5.0]
        assert PerfStat.column(samples, "time") == [3.0, 7.0]

    def test_metrics_tuple_matches_table_iv_columns(self):
        assert METRICS == ("package", "cpu", "time")


class TestDefaultBackend:
    def test_default_backend_returns_working_backend(self):
        backend = default_backend()
        snap = backend.snapshot()
        assert Domain.PACKAGE in snap.joules

    def test_simulated_fallback_when_live_unavailable(self, tmp_path):
        with pytest.raises(RuntimeError):
            LiveBackend(root=tmp_path)

    def test_live_backend_reads_powercap_layout(self, tmp_path):
        zone = tmp_path / "intel-rapl:0"
        zone.mkdir()
        (zone / "name").write_text("package-0\n")
        (zone / "energy_uj").write_text("2000000\n")
        backend = LiveBackend(root=tmp_path)
        snap = backend.snapshot()
        assert snap.joules[Domain.PACKAGE] == pytest.approx(2.0)


class TestRawSnapshotPath:
    """The profiler's deferred fast path must match full snapshots."""

    def _advance_pattern(self, clock):
        for seconds in (0.5, 1.25, 0.1, 3.0):
            clock.advance(seconds)
            yield

    def test_simulated_raw_deltas_match_snapshot_deltas(self):
        # Two identical backends driven through the same clock pattern:
        # one via snapshot(), one via snapshot_raw()+cumulative_raw().
        # The rows hold exactly the values snapshot() returned.
        full = make_backend()
        raw = make_backend()
        snaps = [full.snapshot()]
        readings = [raw.snapshot_raw()]
        for _ in self._advance_pattern(full.clock):
            snaps.append(full.snapshot())
        for _ in self._advance_pattern(raw.clock):
            readings.append(raw.snapshot_raw())
        rows = raw.cumulative_raw(readings)
        assert len(rows) == len(snaps)
        for row, snap in zip(rows, snaps):
            assert row == (
                snap.wall_seconds,
                snap.cpu_seconds,
                tuple(snap.joules[dom] for dom in DOMAINS),
            )

    def test_simulated_raw_handles_counter_wrap(self):
        # ~50 kJ of virtual work wraps the 32-bit energy register at
        # least once; converted deltas must stay positive and match
        # the wrap-aware snapshot() path.
        full = make_backend()
        raw = make_backend()
        readings = [raw.snapshot_raw()]
        snaps = [full.snapshot()]
        for _ in range(4):
            raw.clock.advance(5_000.0)
            full.clock.advance(5_000.0)
            readings.append(raw.snapshot_raw())
            snaps.append(full.snapshot())
        package = [row[2][DOMAINS.index(Domain.PACKAGE)]
                   for row in raw.cumulative_raw(readings)]
        assert min(r[2] for r in readings[1:]) < max(r[2] for r in readings)
        for i in range(1, len(snaps)):
            want = snaps[i].delta(snaps[i - 1])
            assert package[i] - package[i - 1] > 0
            assert package[i] - package[i - 1] == pytest.approx(
                want.joules[Domain.PACKAGE], rel=1e-9
            )

    def test_simulated_raw_reading_shape(self):
        backend = make_backend()
        reading = backend.snapshot_raw()
        assert len(reading) == 2 + len(backend.raw_domains)
        assert all(isinstance(c, int) for c in reading[2:])

    def test_live_raw_matches_snapshot(self, tmp_path):
        zone = tmp_path / "intel-rapl:0"
        zone.mkdir()
        (zone / "name").write_text("package-0\n")
        (zone / "energy_uj").write_text("2000000\n")
        backend = LiveBackend(root=tmp_path)
        reading = backend.snapshot_raw()
        (zone / "energy_uj").write_text("4500000\n")
        later = backend.snapshot_raw()
        first, second = backend.cumulative_raw([reading, later])
        package = DOMAINS.index(Domain.PACKAGE)
        assert first[2][package] == pytest.approx(2.0)
        assert second[2][package] == pytest.approx(4.5)
        # Domains without a readable zone read zero.
        assert [j for i, j in enumerate(second[2]) if i != package] == [0.0] * 4

    def test_resilient_backend_has_no_raw_path(self):
        # ResilientBackend must keep using full snapshots so retries
        # and degradation provenance stay on the measurement path.
        from repro.resilience.policy import ResiliencePolicy
        from repro.resilience.resilient import ResilientBackend

        wrapped = ResilientBackend(make_backend(), ResiliencePolicy())
        assert not hasattr(wrapped, "snapshot_raw")


# -- pinned reading sequence -------------------------------------------

READINGS_GOLDEN = Path(__file__).parent / "backend_readings_golden.json"


def _snapshot_entry(snap) -> list:
    return [
        "snapshot",
        snap.wall_seconds,
        snap.cpu_seconds,
        [[dom.value, joules] for dom, joules in snap.joules.items()],
    ]


def _drive(backend, steps: int, wall: float, cpu: float) -> list:
    """Advance the clock and cycle through every read method."""
    from repro.rapl.msr import MSR_ADDRESSES, MSR_RAPL_POWER_UNIT

    out = []
    for step in range(steps):
        backend.clock.advance(wall * (step + 1), cpu * (step % 3))
        kind = step % 4
        if kind == 0:
            out.append(_snapshot_entry(backend.snapshot()))
        elif kind == 1:
            out.append(["snapshot_raw", list(backend.snapshot_raw())])
        elif kind == 2:
            out.append(["read_raw", [backend.read_raw(d) for d in Domain]])
        else:
            addresses = [MSR_RAPL_POWER_UNIT, *MSR_ADDRESSES.values()]
            out.append(["read_msr", [backend.read_msr(a) for a in addresses]])
        if step == 5:
            with backend.intensity_scope(2.5):
                backend.clock.advance(0.02, 0.015)
                out.append(["snapshot_raw", list(backend.snapshot_raw())])
                backend.clock.advance(0.01, 0.01)
            out.append(_snapshot_entry(backend.snapshot()))
    return out


def backend_reading_sequence() -> dict:
    """Readings of :class:`SimulatedBackend` in several configurations.

    Pins float values *and* the order the noise/outlier RNG is drawn in:
    any reordering of the model arithmetic or of the RNG calls changes
    some entry.
    """
    from repro.rapl.msr import MsrFile

    sequences = {}
    sequences["noise_outliers"] = _drive(
        make_backend(noise_sigma=0.03, outlier_rate=0.25, outlier_scale=4.0,
                     seed=11),
        16, 0.013, 0.006,
    )
    sequences["plain"] = _drive(make_backend(), 12, 0.7, 0.3)
    # Counters a few units short of 2**32 wrap on the first deposits.
    near_wrap = make_backend()
    unit = near_wrap.units.energy_joules
    for i, dom in enumerate(Domain):
        near_wrap.post_joules(dom, ((1 << 32) - 40 - 7 * i) * unit)
    sequences["near_wrap"] = _drive(near_wrap, 12, 0.002, 0.001)
    msr = MsrFile(initial_raw={d: (1 << 32) - 3 - i for i, d in enumerate(Domain)})
    msr_reads = []
    for step in range(6):
        for dom in Domain:
            msr.deposit_joules(dom, 0.0001 * (step + 1))
        msr_reads.append([msr.read_domain(dom) for dom in Domain])
    sequences["msr_initial_raw"] = msr_reads
    return sequences


class TestPinnedReadings:
    """Every read method reproduces the committed reading sequence.

    Regenerate (only when the readings are meant to change) with
    ``PYTHONPATH=src python -c "import json, tests.rapl.test_backends as t;
    t.READINGS_GOLDEN.write_text(json.dumps(t.backend_reading_sequence(),
    indent=1) + '\\n')"``.
    """

    def test_matches_golden(self):
        import json

        got = json.loads(json.dumps(backend_reading_sequence()))
        assert got == json.loads(READINGS_GOLDEN.read_text())

    def test_golden_exercises_wraps(self):
        import json

        golden = json.loads(READINGS_GOLDEN.read_text())
        raws = [c for kind, *rest in golden["near_wrap"]
                if kind == "read_raw" for c in rest[0]]
        assert min(raws) < 1000  # counters wrapped past 2**32
        assert min(golden["msr_initial_raw"][-1]) < 1000
