"""Measurement backends: where the joules come from.

Two backends share one interface (:class:`RaplBackend`):

* :class:`SimulatedBackend` — deterministic reproduction substrate.  A
  clock (real or virtual) supplies elapsed wall/CPU time, the
  :class:`~repro.rapl.model.EnergyModel` converts it to joules, and the
  joules are deposited into a :class:`~repro.rapl.msr.MsrFile` so that
  readers see genuine 32-bit wrapping counters.  Optional seeded noise
  and outlier injection exercise the paper's Tukey protocol.
* :class:`LiveBackend` — reads ``/sys/class/powercap`` (intel-rapl) when
  the host exposes it, for users running on real hardware.

:func:`default_backend` picks the live backend when powercap is
readable and falls back to the simulated one on a real clock, so the
same profiling code runs everywhere.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import threading
import time
import warnings
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import mod as _mod
from operator import mul as _mul
from operator import sub as _sub
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Protocol, Sequence

from repro.rapl.domains import DOMAINS, Domain
from repro.rapl.model import EnergyModel
from repro.rapl.msr import MsrFile
from repro.rapl.units import RaplUnits

if TYPE_CHECKING:
    from repro.resilience.policy import ResiliencePolicy

_POWERCAP_ROOT = Path("/sys/class/powercap")


class Clock(Protocol):
    """Supplies (wall seconds, cpu seconds) timestamp pairs."""

    def now(self) -> tuple[float, float]:
        """Current (wall, cpu) time in seconds; both monotone."""
        ...


class RealClock:
    """Wall time from ``perf_counter``, CPU time from ``process_time``."""

    def now(self) -> tuple[float, float]:
        return time.perf_counter(), time.process_time()


class VirtualClock:
    """Manually advanced clock for deterministic tests and benches."""

    def __init__(self) -> None:
        self._wall = 0.0
        self._cpu = 0.0

    def advance(self, wall_seconds: float, cpu_seconds: float | None = None) -> None:
        """Advance time; ``cpu_seconds`` defaults to ``wall_seconds``.

        CPU time can never exceed wall time on a single thread, but we
        allow it (multi-core processes legitimately accumulate CPU time
        faster than wall time).
        """
        if cpu_seconds is None:
            cpu_seconds = wall_seconds
        if wall_seconds < 0 or cpu_seconds < 0:
            raise ValueError("clock cannot move backwards")
        self._wall += wall_seconds
        self._cpu += cpu_seconds

    def now(self) -> tuple[float, float]:
        return self._wall, self._cpu


@dataclass(frozen=True)
class EnergySnapshot:
    """A point-in-time cumulative reading: joules per domain + clocks.

    ``degraded`` is the provenance flag set by the resilience layer
    when the reading came from the fallback backend rather than the
    primary one (see :mod:`repro.resilience.resilient`).
    """

    joules: dict[Domain, float]
    wall_seconds: float
    cpu_seconds: float
    degraded: bool = False

    def delta(self, earlier: "EnergySnapshot") -> "EnergyDelta":
        """Consumption between ``earlier`` and this snapshot.

        A negative per-domain delta is physically impossible (the
        accumulated counters are monotone): it means an undetected
        counter wrap or a fault slipped through, so the value is
        clamped to zero, a :class:`RuntimeWarning` is emitted, and the
        returned delta is marked ``suspect`` for downstream filtering.
        """
        joules: dict[Domain, float] = {}
        suspect = False
        for dom in self.joules:
            value = self.joules[dom] - earlier.joules.get(dom, 0.0)
            if value < 0.0:
                warnings.warn(
                    f"negative energy delta for {dom.value} domain "
                    f"({value:.6f} J) — undetected counter wrap or faulty "
                    "read; clamping to 0 and marking the interval suspect",
                    RuntimeWarning,
                    stacklevel=2,
                )
                value = 0.0
                suspect = True
            joules[dom] = value
        return EnergyDelta(
            joules=joules,
            wall_seconds=self.wall_seconds - earlier.wall_seconds,
            cpu_seconds=self.cpu_seconds - earlier.cpu_seconds,
            suspect=suspect,
            degraded=self.degraded or earlier.degraded,
        )


@dataclass(frozen=True)
class EnergyDelta:
    """Energy and time consumed over an interval.

    ``suspect`` marks intervals where a measurement anomaly (negative
    delta, failed snapshot) was detected and papered over; ``degraded``
    marks intervals where at least one endpoint came from the fallback
    backend.  Both flags propagate into profiler records.
    """

    joules: dict[Domain, float]
    wall_seconds: float
    cpu_seconds: float
    suspect: bool = False
    degraded: bool = False

    @property
    def package_joules(self) -> float:
        return self.joules.get(Domain.PACKAGE, 0.0)

    @property
    def core_joules(self) -> float:
        return self.joules.get(Domain.PP0, 0.0)

    @property
    def dram_joules(self) -> float:
        return self.joules.get(Domain.DRAM, 0.0)

    def average_power_watts(self, domain: Domain) -> float:
        """Mean power over the interval; 0 for a zero-length interval."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.joules.get(domain, 0.0) / self.wall_seconds


class RaplBackend(Protocol):
    """The reading interface shared by simulated and live backends."""

    units: RaplUnits

    def read_raw(self, domain: Domain) -> int:
        """Raw 32-bit energy-status counter for ``domain``."""
        ...

    def snapshot(self) -> EnergySnapshot:
        """Monotone cumulative joules per domain, plus wall/CPU clocks."""
        ...


#: Counter period of a 32-bit energy-status register.
_WRAP = 1 << 32
_COUNTER_MASK = _WRAP - 1
_WRAPS = repeat(_WRAP)

#: A raw reading: ``(wall_seconds, cpu_seconds, counter, counter, ...)``
#: with one counter per entry of the backend's ``raw_domains`` tuple.
#: Flat tuples keep the in-hook cost of the profiler's deferred path to
#: one allocation; all interpretation happens in ``cumulative_raw``.
RawReading = tuple


class SimulatedBackend:
    """Deterministic RAPL backend driven by an energy model.

    Parameters
    ----------
    clock:
        Time source; :class:`VirtualClock` for determinism,
        :class:`RealClock` to track the live process.
    model:
        Static/dynamic power constants per domain.
    units:
        RAPL unit exponents for the simulated MSR file.
    noise_sigma:
        Relative standard deviation of multiplicative Gaussian noise
        applied to every deposit (0 disables; keep small, e.g. 0.02).
    outlier_rate / outlier_scale:
        With probability ``outlier_rate`` a deposit is multiplied by
        ``outlier_scale``, injecting the measurement outliers the
        paper's Tukey protocol removes.
    seed:
        Seed for the noise/outlier RNG.
    """

    def __init__(
        self,
        clock: Clock | None = None,
        model: EnergyModel | None = None,
        units: RaplUnits | None = None,
        noise_sigma: float = 0.0,
        outlier_rate: float = 0.0,
        outlier_scale: float = 5.0,
        seed: int = 0,
    ) -> None:
        if noise_sigma < 0:
            raise ValueError(f"noise_sigma must be non-negative: {noise_sigma}")
        if not 0.0 <= outlier_rate < 1.0:
            raise ValueError(f"outlier_rate must be in [0, 1): {outlier_rate}")
        self.clock: Clock = clock if clock is not None else RealClock()
        self.model = model or EnergyModel()
        self.units = units or RaplUnits.default()
        self.msr = MsrFile(units=self.units)
        self.noise_sigma = noise_sigma
        self.outlier_rate = outlier_rate
        self.outlier_scale = outlier_scale
        self._seed = seed
        self._rng = None
        if noise_sigma or outlier_rate:
            self._require_rng()
        self._intensity = 1.0
        # Snapshots may arrive from a sampler thread (see
        # repro.rapl.timeline); counter updates must be atomic.
        self._lock = threading.Lock()
        self._last_wall, self._last_cpu = self.clock.now()
        # Per-domain (static W, dynamic W) in DOMAINS order, so a sync
        # walks a tuple instead of looking each domain up in the model.
        self._coefficients = tuple(
            (power.static_watts, power.dynamic_watts)
            for power in (self.model.domain_power[dom] for dom in DOMAINS)
        )
        self._unit_joules = self.units.energy_joules
        # snapshot()'s wrap-aware accumulation (what RaplCounterReader
        # does, kept positional): the last raw value seen per domain and
        # the units accumulated since construction.  The baselines make
        # the first snapshot read zero; cumulative_raw starts from them too.
        self._baseline_raw = tuple(self.msr.raw)
        self._seen_raw = list(self._baseline_raw)
        self._total_units = [0] * len(DOMAINS)

    def _require_rng(self):
        """Noise/outlier RNG, created on first use.

        numpy is imported lazily so the deterministic (noise-free)
        profiling path stays usable on interpreters without numpy —
        e.g. a bare 3.12 used to exercise the ``sys.monitoring``
        profiler runtime.
        """
        if self._rng is None:
            import numpy as np

            self._rng = np.random.default_rng(self._seed)
        return self._rng

    # -- workload hints ------------------------------------------------

    @contextlib.contextmanager
    def intensity_scope(self, intensity: float) -> Iterator[None]:
        """Scale dynamic power within the scope (op-mix modeling).

        Micro-benchmarks use this to express that, e.g., a modulus-heavy
        loop switches more transistors per CPU-second than an
        addition-heavy one.
        """
        if intensity < 0:
            raise ValueError(f"intensity must be non-negative: {intensity}")
        self._sync()
        previous = self._intensity
        self._intensity = intensity
        try:
            yield
        finally:
            self._sync()
            self._intensity = previous

    def post_joules(self, domain: Domain, joules: float) -> None:
        """Deposit an explicit energy event (e.g. a DMA transfer)."""
        self.msr.deposit_joules(domain, joules)

    # -- internal ------------------------------------------------------

    def _sync(self) -> None:
        """Convert time elapsed since last sync into deposited energy."""
        with self._lock:
            self._sync_locked()

    def _sync_locked(self) -> None:
        wall, cpu = self.clock.now()
        dwall = wall - self._last_wall
        dcpu = cpu - self._last_cpu
        self._last_wall, self._last_cpu = wall, cpu
        if dwall <= 0 and dcpu <= 0:
            return
        if dwall < 0.0:
            dwall = 0.0
        if dcpu < 0.0:
            dcpu = 0.0
        scale = 1.0
        if self.noise_sigma:
            scale *= max(
                0.0, 1.0 + self._require_rng().normal(0.0, self.noise_sigma)
            )
        if self.outlier_rate and self._require_rng().random() < self.outlier_rate:
            scale *= self.outlier_scale
        # EnergyModel.energy_joules then MsrFile.deposit_joules for each
        # domain, fused into one positional loop with the same float
        # operations in the same order.
        intensity = self._intensity
        msr = self.msr
        raw = msr.raw
        residual = msr.residual
        per_joule = msr.units_per_joule
        mask = _COUNTER_MASK
        for i, (static, dynamic) in enumerate(self._coefficients):
            units = residual[i] + (
                (static * dwall + dynamic * intensity * dcpu) * scale
            ) * per_joule
            whole = int(units)
            if whole:
                units -= whole
                raw[i] = (raw[i] + whole) & mask
            residual[i] = units

    # -- RaplBackend interface ------------------------------------------

    def read_raw(self, domain: Domain) -> int:
        self._sync()
        return self.msr.read_domain(domain)

    def read_msr(self, address: int) -> int:
        """Address-level read, mirroring the injected reader's syscalls."""
        self._sync()
        return self.msr.read(address)

    def snapshot(self) -> EnergySnapshot:
        with self._lock:
            self._sync_locked()
            seen = self._seen_raw
            totals = self._total_units
            unit = self._unit_joules
            joules = {}
            wrap, domains = _WRAP, DOMAINS
            for i, (dom, raw) in enumerate(zip(domains, self.msr.raw)):
                delta = raw - seen[i]
                if delta < 0:  # one counter wrap
                    delta += wrap
                seen[i] = raw
                totals[i] += delta
                joules[dom] = totals[i] * unit
            return EnergySnapshot(
                joules=joules,
                wall_seconds=self._last_wall,
                cpu_seconds=self._last_cpu,
            )

    # -- deferred-conversion fast path ---------------------------------

    #: Domain order of the counters in a raw reading tuple.
    raw_domains: tuple[Domain, ...] = DOMAINS

    def snapshot_raw(self) -> RawReading:
        """One flat ``(wall, cpu, counter...)`` tuple, no unit conversion.

        The profiler's measured region calls this instead of
        :meth:`snapshot`: the 32-bit counters are recorded verbatim and
        the µJ→J accumulation, dict building and dataclass construction
        all happen once, after tracing stops, in :meth:`cumulative_raw`.
        """
        with self._lock:
            self._sync_locked()
            return (self._last_wall, self._last_cpu, *self.msr.raw)

    def cumulative_raw(self, readings: Sequence[RawReading]) -> list[tuple]:
        """Convert chronological raw readings into positional joules.

        Returns one ``(wall, cpu, joules)`` row per reading, ``joules`` a
        tuple in :data:`~repro.rapl.domains.DOMAINS` order accumulated since
        the backend was constructed — the values :meth:`snapshot` would
        have returned at the same moments.  Wrap handling is
        order-sensitive, so readings must be passed in the order they
        were taken.
        """
        if not readings:
            return []
        walls, cpus, *counters = zip(*readings)
        columns = map(
            _joule_column,
            self._baseline_raw,
            counters,
            repeat(self._unit_joules),
        )
        return list(zip(walls, cpus, zip(*columns)))


class LiveBackend:
    """Reads real RAPL counters from ``/sys/class/powercap``.

    Raises :class:`RuntimeError` at construction when the host exposes
    no readable intel-rapl zones — callers should then fall back to the
    simulated backend (see :func:`default_backend`).

    Snapshots are serialized by a lock: the concurrency-aware profiler
    takes readings from several threads against one shared monotonic
    timeline, and an interleaved (clock, counters...) read could order
    wall times one way and counter values the other, manufacturing a
    negative delta.  The lock makes every reading internally consistent
    and totally ordered.
    """

    def __init__(self, root: Path = _POWERCAP_ROOT) -> None:
        self.units = RaplUnits.default()
        self._zones: dict[Domain, Path] = {}
        name_to_domain = {
            "package-0": Domain.PACKAGE,
            "core": Domain.PP0,
            "uncore": Domain.PP1,
            "dram": Domain.DRAM,
            "psys": Domain.PSYS,
        }
        if root.is_dir():
            for zone in sorted(root.glob("intel-rapl:*")):
                name_file = zone / "name"
                energy_file = zone / "energy_uj"
                if not (name_file.is_file() and energy_file.is_file()):
                    continue
                try:
                    name = name_file.read_text().strip()
                    energy_file.read_text()
                except OSError:
                    continue
                domain = name_to_domain.get(name)
                if domain is not None:
                    self._zones[domain] = energy_file
        if Domain.PACKAGE not in self._zones:
            raise RuntimeError(
                "no readable intel-rapl package zone under "
                f"{os.fspath(root)}; use SimulatedBackend"
            )
        self._clock = RealClock()
        self._lock = threading.Lock()

    def read_raw(self, domain: Domain) -> int:
        """Microjoule counter folded to the 32-bit raw-unit space."""
        joules = self._read_joules(domain)
        return self.units.joules_to_raw(joules) & 0xFFFFFFFF

    def _read_joules(self, domain: Domain) -> float:
        path = self._zones.get(domain)
        if path is None:
            return 0.0
        return int(path.read_text().strip()) / 1e6

    def snapshot(self) -> EnergySnapshot:
        with self._lock:
            wall, cpu = self._clock.now()
            return EnergySnapshot(
                joules={dom: self._read_joules(dom) for dom in Domain},
                wall_seconds=wall,
                cpu_seconds=cpu,
            )

    # -- deferred-conversion fast path ---------------------------------

    @property
    def raw_domains(self) -> tuple[Domain, ...]:
        """Domain order of the counters in a raw reading tuple."""
        return tuple(self._zones)

    def snapshot_raw(self) -> RawReading:
        """Raw powercap µJ counters, one int per readable zone.

        Skips the float division and dict construction of
        :meth:`snapshot`; both happen in :meth:`cumulative_raw` after
        tracing stops.
        """
        with self._lock:
            wall, cpu = self._clock.now()
            return (
                wall,
                cpu,
                *(int(path.read_text()) for path in self._zones.values()),
            )

    def cumulative_raw(self, readings: Sequence[RawReading]) -> list[tuple]:
        """Buffered µJ readings as ``(wall, cpu, joules)`` rows.

        ``joules`` is in :data:`~repro.rapl.domains.DOMAINS` order;
        domains without a readable zone read 0.0.
        """
        positions = [DOMAINS.index(dom) for dom in self.raw_domains]
        width = len(DOMAINS)
        out = []
        for reading in readings:
            joules = [0.0] * width
            for position, microjoules in zip(positions, reading[2:]):
                joules[position] = microjoules / 1e6
            out.append((reading[0], reading[1], tuple(joules)))
        return out


def _joule_column(baseline: int, column: tuple, unit: float) -> Iterator:
    """Joules accumulated since ``baseline`` at each raw reading.

    A decrease is exactly one wrap, so each step is taken modulo 2**32;
    the running unit count is exact, and so is its product with the
    power-of-two unit size.
    """
    steps = map(_mod, map(_sub, column, (baseline, *column[:-1])), _WRAPS)
    return map(_mul, accumulate(steps), repeat(unit))


def default_backend(
    prefer_live: bool = True, resilience: "ResiliencePolicy | None" = None
) -> RaplBackend:
    """Live backend when powercap is readable, else simulated-on-real-clock.

    Passing a :class:`~repro.resilience.policy.ResiliencePolicy` wraps
    the chosen backend in a
    :class:`~repro.resilience.resilient.ResilientBackend` (retry,
    timeout, circuit breaker, graceful degradation).
    """
    backend: RaplBackend
    if prefer_live:
        try:
            backend = LiveBackend()
        except RuntimeError:
            backend = SimulatedBackend(clock=RealClock())
    else:
        backend = SimulatedBackend(clock=RealClock())
    if resilience is not None:
        # Imported lazily: repro.resilience depends on this module.
        from repro.resilience.resilient import ResilientBackend

        backend = ResilientBackend(backend, resilience)
    return backend


class EnergyMeter:
    """Context manager measuring energy/time around a code region.

    This is the Python face of the paper's injected start/end MSR
    reads::

        meter = EnergyMeter(backend)
        with meter.measure() as reading:
            run_workload()
        print(reading.result.package_joules)
    """

    def __init__(self, backend: RaplBackend | None = None) -> None:
        self.backend: RaplBackend = backend or default_backend()
        self._last_snapshot: EnergySnapshot | None = None

    def _safe_snapshot(self) -> tuple[EnergySnapshot, bool]:
        """Snapshot, surviving backend faults.

        On failure the last good snapshot (or a zero snapshot) stands
        in and the reading is marked suspect — a lost measurement must
        not abort the workload it brackets.
        """
        try:
            snap = self.backend.snapshot()
        except OSError as error:
            warnings.warn(
                f"backend snapshot failed ({error}); measurement marked "
                "suspect",
                RuntimeWarning,
                stacklevel=3,
            )
            fallback = self._last_snapshot or EnergySnapshot(
                joules={}, wall_seconds=0.0, cpu_seconds=0.0
            )
            return fallback, False
        self._last_snapshot = snap
        return snap, True

    @contextlib.contextmanager
    def measure(self) -> Iterator["MeterReading"]:
        reading = MeterReading()
        start, start_ok = self._safe_snapshot()
        try:
            yield reading
        finally:
            end, end_ok = self._safe_snapshot()
            delta = end.delta(start)
            if not (start_ok and end_ok) and not delta.suspect:
                delta = dataclasses.replace(delta, suspect=True)
            reading._result = delta

    def measure_callable(self, fn, *args, **kwargs) -> tuple[object, EnergyDelta]:
        """Run ``fn`` and return ``(fn_result, energy_delta)``."""
        with self.measure() as reading:
            value = fn(*args, **kwargs)
        return value, reading.result


class MeterReading:
    """Holder populated when the :meth:`EnergyMeter.measure` scope exits."""

    def __init__(self) -> None:
        self._result: EnergyDelta | None = None

    @property
    def result(self) -> EnergyDelta:
        if self._result is None:
            raise RuntimeError("measurement scope has not exited yet")
        return self._result
