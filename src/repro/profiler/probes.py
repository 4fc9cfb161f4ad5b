"""Probe runtime targeted by instrumented sources.

The AST instrumenter (:mod:`repro.profiler.source_instrumenter`) wraps
every function body in ``with __pepo_probe__("<name>"):``.  The object
bound to ``__pepo_probe__`` is a :class:`ProbeRuntime`: each activation
takes a backend reading on entry and exit and appends it, unconverted,
to an event buffer.  Records are built in one replay when
:attr:`ProbeRuntime.result` is read — the replay the tracer uses
(:func:`repro.profiler.runtime.replay`) — so the probed program pays
for two readings per call and nothing else.

Exclusive energy follows per-context parent links.  Each asyncio task,
and each thread outside any task, keeps its own stack of open
activations; an activation's parent is the top of its own context's
stack when it opens, and closing removes that activation wherever it
sits.  Interleaved tasks and probed generators therefore never credit
a child to an activation of another context, and a task's first
activation is a root.
"""

from __future__ import annotations

import sys
import threading

from repro.profiler.records import MethodRecord, ProfileResult
from repro.profiler.runtime import (
    OP_CLOSE,
    OP_OPEN,
    replay,
    row_converter,
)
from repro.rapl.backends import RaplBackend, default_backend


class _Activation:
    """The ``with`` target of one probed call."""

    __slots__ = ("runtime", "meta", "ident", "stack", "key")

    def __enter__(self) -> None:
        runtime = self.runtime
        key = _context_key()
        stacks = runtime._stacks
        stack = stacks.get(key)
        if stack is None:
            stack = stacks[key] = []
        parent = stack[-1].ident if stack else -1
        self.stack = stack
        self.key = key
        stack.append(self)
        self.ident = runtime._open(self.meta, parent)

    def __exit__(self, *exc_info: object) -> None:
        runtime = self.runtime
        with runtime._lock:
            runtime._record(OP_CLOSE, self.ident)
        stack = self.stack
        if stack[-1] is self:
            stack.pop()
        else:
            stack.remove(self)
        if not stack:
            # Drop finished contexts so ended tasks are not kept alive.
            runtime._stacks.pop(self.key, None)


_new_activation = object.__new__


def _context_key() -> object:
    """The running asyncio task, else the current thread's ident.

    ``asyncio`` is looked up, not imported: a program that never
    imported it cannot be running a task, and importing it here would
    tax every probed program's start-up.
    """
    aio = sys.modules.get("asyncio")
    if aio is not None:
        loop = aio._get_running_loop()
        if loop is not None:
            task = aio.current_task(loop)
            if task is not None:
                return task
    return threading.get_ident()


class ProbeRuntime:
    """Callable context-manager factory injected as ``__pepo_probe__``.

    Events are ``(op, activation, ok, payload)``: ``activation`` indexes
    the ``(metadata, parent activation)`` table, and ``payload`` is the
    raw counter tuple from ``snapshot_raw`` when the backend has one
    and an :class:`~repro.rapl.backends.EnergySnapshot` otherwise (e.g.
    behind a :class:`~repro.resilience.resilient.ResilientBackend`).  A
    failed read must not abort the instrumented function, so it stores
    the last good payload with ``ok=False`` and the record goes suspect.
    """

    def __init__(self, backend: RaplBackend | None = None) -> None:
        self.backend = backend or default_backend()
        snap_raw = getattr(self.backend, "snapshot_raw", None)
        self._raw_mode = callable(snap_raw)
        self._snap = snap_raw if self._raw_mode else self.backend.snapshot
        self._events: list[tuple] = []
        self._activations: list[tuple[tuple[str, str, int], int]] = []
        self._last_payload: object | None = None
        self._stacks: dict[object, list[_Activation]] = {}
        # Readings and their appends happen under one lock, so the
        # buffer is in reading order even when probed threads
        # interleave: raw counters must be converted chronologically.
        self._lock = threading.Lock()
        # Records of activations replayed once no activation was open:
        # final, so their events were dropped.
        self._final: list[MethodRecord] = []
        self._counts: dict[str, int] = {}
        self._result: ProfileResult | None = None

    def __call__(
        self, method: str, filename: str = "", lineno: int = 0
    ) -> _Activation:
        activation = _new_activation(_Activation)
        activation.runtime = self
        activation.meta = (method, filename, lineno)
        return activation

    def _open(self, meta: tuple[str, str, int], parent: int) -> int:
        with self._lock:
            ident = len(self._activations)
            self._activations.append((meta, parent))
            self._record(OP_OPEN, ident)
        return ident

    def _record(self, op: int, ident: int) -> None:
        """Take a reading and append its event; the caller holds the lock."""
        try:
            payload = self._snap()
        except OSError:
            self._events.append((op, ident, False, self._last_payload))
        else:
            self._last_payload = payload
            self._events.append((op, ident, True, payload))

    @property
    def result(self) -> ProfileResult:
        """Records of every closed activation, in closing order.

        Built by one replay of the events recorded since the last read.
        Activations still open (e.g. a probed generator that was never
        exhausted) have no record yet.
        """
        with self._lock:
            if self._result is None or self._events:
                self._result = self._replay()
            return self._result

    def _replay(self) -> ProfileResult:
        events = self._events
        activations = self._activations
        opened: dict[int, int] = {}
        spans = []
        op_open = OP_OPEN
        for position, (op, ident, _ok, _payload) in enumerate(events):
            if op == op_open:
                opened[ident] = position
            else:
                meta, parent = activations[ident]
                spans.append(
                    (meta, opened[ident], position, opened.get(parent, -1))
                )
        payloads = [event[3] for event in events]
        oks = [event[2] for event in events]
        del events
        # With no activation open no later event can pair with these:
        # their records are final and the buffer can go now, before the
        # replay allocates.  (A stack entry outlives its CLOSE event.)
        final = not self._stacks
        counts = self._counts if final else dict(self._counts)
        if final:
            self._events = []
            self._activations = []
        rows = row_converter(self.backend, self._raw_mode)(payloads)
        payloads.clear()  # drop the raw readings before the replay allocates
        records = replay(spans, rows, oks, counts)
        if final:
            self._final.extend(records)
            records = []
        # A resilient backend's degraded flag is sticky, so reading it
        # now covers every read the records were built from.
        return ProfileResult(
            self._final + records,
            degraded=getattr(self.backend, "degraded", False),
        )

    @property
    def depth(self) -> int:
        """Open activations in the calling context (0 outside any)."""
        return len(self._stacks.get(_context_key(), ()))
