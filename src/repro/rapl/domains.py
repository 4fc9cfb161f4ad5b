"""RAPL power domains.

Intel RAPL partitions the processor into power domains, each with its
own energy-status MSR.  The paper reports "Package" and "CPU" (PP0/core)
energy; we model the full set so the substrate is reusable.
"""

from __future__ import annotations

import enum


class Domain(enum.Enum):
    """A RAPL power domain.

    ``PACKAGE``
        The whole socket: cores, caches, integrated graphics and the
        memory controller.  This is the "Package energy" column of the
        paper's Table IV.
    ``PP0``
        Power-plane 0: the cores only.  The paper's "CPU energy".
    ``PP1``
        Power-plane 1: the uncore / integrated graphics.
    ``DRAM``
        The memory DIMMs attached to the socket.
    ``PSYS``
        The entire platform (Skylake+); included for completeness.
    """

    PACKAGE = "package"
    PP0 = "core"
    PP1 = "uncore"
    DRAM = "dram"
    PSYS = "psys"

    # Members are singletons compared by identity (and pickled by name),
    # so identity hashing is equivalent to Enum's name hashing.  It runs
    # in C: profiling replays look Domain keys up hundreds of thousands
    # of times per run, and 3.11's ``Enum.__hash__`` is Python-level.
    __hash__ = object.__hash__

    @property
    def pretty(self) -> str:
        """Human-readable name used in reports (e.g. ``Package``)."""
        return _PRETTY[self]

    @classmethod
    def reported(cls) -> tuple["Domain", ...]:
        """The domains the paper's evaluation reports on."""
        return (cls.PACKAGE, cls.PP0)


#: Every domain in definition order: the layout of positional readings
#: (see :meth:`repro.rapl.backends.SimulatedBackend.cumulative_raw`).
DOMAINS: tuple[Domain, ...] = tuple(Domain)

_PRETTY = {
    Domain.PACKAGE: "Package",
    Domain.PP0: "Core",
    Domain.PP1: "Uncore",
    Domain.DRAM: "DRAM",
    Domain.PSYS: "Platform",
}
