"""A simulated machine-specific register (MSR) file with RAPL semantics.

The paper's injected measurement code "reads the machine specific
registers (MSR) at the start and end of each method".  On real hardware
that is a ``pread`` on ``/dev/cpu/N/msr``; here :class:`MsrFile` plays
the role of the register file and reproduces the properties the injected
reader must cope with:

* energy counters are 32-bit and *wrap* (a long method can observe
  ``end < start``);
* counters tick in energy status units (≈61 µJ by default), so
  sub-unit energy is accumulated internally and only becomes visible
  once a full unit has been consumed;
* ``MSR_RAPL_POWER_UNIT`` must be read and decoded before any energy
  counter is meaningful.

:class:`RaplCounterReader` is the software-side accumulator that turns
wrapping raw counters into a monotone joule count — exactly what a
production RAPL client (perf, pyRAPL, jRAPL) implements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rapl.domains import DOMAINS, Domain
from repro.rapl.units import DEFAULT_POWER_UNIT_RAW, RaplUnits

#: Architectural MSR addresses (Intel SDM Vol. 4).
MSR_RAPL_POWER_UNIT = 0x606
MSR_PKG_ENERGY_STATUS = 0x611
MSR_DRAM_ENERGY_STATUS = 0x619
MSR_PP0_ENERGY_STATUS = 0x639
MSR_PP1_ENERGY_STATUS = 0x641
MSR_PLATFORM_ENERGY_STATUS = 0x64D

#: Energy-status MSR address for each RAPL domain.
MSR_ADDRESSES: dict[Domain, int] = {
    Domain.PACKAGE: MSR_PKG_ENERGY_STATUS,
    Domain.PP0: MSR_PP0_ENERGY_STATUS,
    Domain.PP1: MSR_PP1_ENERGY_STATUS,
    Domain.DRAM: MSR_DRAM_ENERGY_STATUS,
    Domain.PSYS: MSR_PLATFORM_ENERGY_STATUS,
}

_COUNTER_BITS = 32
_COUNTER_MASK = (1 << _COUNTER_BITS) - 1


class MsrError(OSError):
    """Raised for reads of unknown or unreadable MSR addresses."""


#: Position of each domain's counter in :attr:`MsrFile.raw`.
POSITION: dict[Domain, int] = {dom: i for i, dom in enumerate(DOMAINS)}

_ADDRESS_TO_POSITION = {
    addr: POSITION[dom] for dom, addr in MSR_ADDRESSES.items()
}


class MsrFile:
    """Simulated per-socket MSR register file.

    Energy is *deposited* in joules via :meth:`deposit_joules` (the
    energy model does this) and becomes visible through 32-bit wrapping
    counters read with :meth:`read`, just as on real silicon.

    Counters are positional: :attr:`raw` holds the 32-bit values and
    :attr:`residual` the fractional units not yet visible, one entry per
    domain in :data:`~repro.rapl.domains.DOMAINS` order, so the
    simulated backend's per-reading work does no ``Domain``-keyed
    lookups (it updates both lists in place, exactly as
    :meth:`deposit_joules` does).

    Parameters
    ----------
    units:
        RAPL unit exponents; defaults to the Ivy Bridge value.
    initial_raw:
        Optional starting raw counter value per domain — real counters
        start at an arbitrary point, and tests use this to exercise
        wraparound near ``2**32``.
    """

    def __init__(
        self,
        units: RaplUnits | None = None,
        initial_raw: dict[Domain, int] | None = None,
    ) -> None:
        self.units = units or RaplUnits.default()
        self.raw: list[int] = [0] * len(DOMAINS)
        self.residual: list[float] = [0.0] * len(DOMAINS)
        #: Energy status units per joule.
        self.units_per_joule = 1 << self.units.energy_exp
        position, mask = POSITION, _COUNTER_MASK
        for dom, raw in (initial_raw or {}).items():
            if not 0 <= raw <= mask:
                raise ValueError(f"initial raw counter out of range: {raw:#x}")
            self.raw[position[dom]] = raw

    # -- hardware-facing side (driven by the energy model) ------------

    def deposit_joules(self, domain: Domain, joules: float) -> None:
        """Advance a domain's counter by ``joules`` of consumed energy.

        Sub-unit remainders accumulate in a residual so that depositing
        many small amounts loses nothing (the counter only ever ticks in
        whole energy status units, like hardware).
        """
        if joules < 0:
            raise ValueError(f"cannot deposit negative energy: {joules}")
        position = POSITION[domain]
        units = self.residual[position] + joules * self.units_per_joule
        whole = int(units)
        if whole:
            units -= whole
            self.raw[position] = (self.raw[position] + whole) & _COUNTER_MASK
        self.residual[position] = units

    # -- software-facing side (what the injected reader sees) ---------

    def read(self, address: int) -> int:
        """Read an MSR by address, mirroring ``pread(/dev/cpu/N/msr)``."""
        if address == MSR_RAPL_POWER_UNIT:
            return self.units.encode() or DEFAULT_POWER_UNIT_RAW
        position = _ADDRESS_TO_POSITION.get(address)
        if position is None:
            raise MsrError(f"rdmsr: unknown MSR address {address:#x}")
        return self.raw[position]

    def read_domain(self, domain: Domain) -> int:
        """Read the raw 32-bit energy counter for ``domain``."""
        return self.raw[POSITION[domain]]


@dataclass
class RaplCounterReader:
    """Turns wrapping 32-bit raw counters into monotone joules.

    This is the accumulation logic every RAPL client carries: remember
    the previous raw reading, treat a decrease as a single wrap, and
    sum deltas in joules.  One reader instance tracks one domain.
    """

    units: RaplUnits
    _last_raw: int | None = field(default=None, repr=False)
    _total_units: int = field(default=0, repr=False)

    def update(self, raw: int) -> float:
        """Feed a new raw reading; return total joules accumulated so far.

        The first reading establishes the baseline and contributes zero.
        A raw value lower than the previous one is interpreted as exactly
        one counter wrap (valid as long as readings are more frequent
        than the ~minutes-scale wrap period at realistic power draws).
        """
        if not 0 <= raw <= _COUNTER_MASK:
            raise ValueError(f"raw counter out of range: {raw:#x}")
        if self._last_raw is None:
            self._last_raw = raw
            return 0.0
        delta = raw - self._last_raw
        if delta < 0:
            delta += 1 << _COUNTER_BITS
        self._total_units += delta
        self._last_raw = raw
        return self.joules

    @property
    def joules(self) -> float:
        """Total energy accumulated across all :meth:`update` calls."""
        return self.units.raw_to_joules(self._total_units)

    def reset(self) -> None:
        """Forget the baseline and accumulated total."""
        self._last_raw = None
        self._total_units = 0
