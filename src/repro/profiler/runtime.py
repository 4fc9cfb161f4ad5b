"""Low-overhead profiling runtimes for the energy tracer.

Three cooperating pieces keep the per-event cost of whole-program
profiling as small as the interpreter allows:

* :class:`CodeFilter` — the include/exclude/predicate/comprehension
  decision is computed **once per code object** and memoized, replacing
  the per-event filename-prefix scans of the original tracer.  The
  verdict is interned as an index into a metadata table so the hot path
  handles small ints, not strings.
* :class:`SetprofileRuntime` — an optimized ``sys.setprofile`` hook
  that, per event, does only: a memo lookup, one backend reading, and
  one tuple append.  All record construction is deferred.
* :class:`MonitoringRuntime` — a ``sys.monitoring`` (PEP 669) backend
  for Python ≥ 3.12.  It registers only function-boundary events
  (``PY_START``/``PY_RESUME``/``PY_THROW``/``PY_RETURN``/``PY_YIELD``/
  ``PY_UNWIND``) and returns :data:`sys.monitoring.DISABLE` from the
  first event of every non-traced code object, so the interpreter
  permanently stops delivering events for code outside the profiled
  scope — including the ``c_call``/``c_return`` storm that taxes
  C-call-heavy loops under ``sys.setprofile``.

Both runtimes record **deferred events**: flat tuples of raw counter
reads pushed onto an append-only buffer.  No :class:`MethodRecord`, no
dict of joules, no unit conversion happens inside the measured region;
:func:`materialize` replays the buffer in a single pass at ``stop()``
(see :class:`repro.profiler.tracer.EnergyTracer`).  It pairs the
events into spans and hands them to :func:`replay`, which the source
probes (:class:`repro.profiler.probes.ProbeRuntime`) share: deltas and
exclusive energy are computed on positional rows, and the
``Domain``-keyed dicts are built once per record.

Event buffer format: ``(op, meta_index, ok, payload)`` where ``op`` is
:data:`OP_OPEN` or :data:`OP_CLOSE`, ``meta_index`` indexes the
filter's metadata table (-1 for close events, which pair LIFO),
``ok`` is False when the backend read failed, and ``payload`` is either
a raw counter tuple (backends with ``snapshot_raw``) or a full
:class:`~repro.rapl.backends.EnergySnapshot`.

Concurrent mode (``follow_threads=True``): instead of one buffer behind
an owner-thread guard, each thread gets its own :class:`_ThreadState`
with a flat append-only buffer, registered on that thread's first
event — no locks on the hot path, because a buffer is only ever
appended to by its own thread and only read after every hook is
uninstalled.  Follow-mode events carry a fifth element, the index of
the owning asyncio Task in the runtime's interned task table (-1
outside any task).  :func:`materialize_concurrent` merges the per-
thread buffers into one chronological sequence over the shared
monotonic energy timeline and attributes each inter-reading slice to
the thread that produced the later reading (under the GIL, energy
between two consecutive event readings was overwhelmingly consumed by
the thread that reached the second one).  When only the owner thread
produced events, the replay degenerates *bit-exactly* to
:func:`materialize`: the foreign-energy correction subtracts running
sums that are float-identical, so every record equals the sync path's.
"""

from __future__ import annotations

import sys
import threading
import warnings
from dataclasses import dataclass
from operator import add as _add
from operator import sub as _sub
from types import CodeType
from typing import Callable, Sequence

from repro.profiler.records import MethodRecord, replayed_record
from repro.rapl.backends import EnergySnapshot
from repro.rapl.domains import DOMAINS
from repro.rapl.msr import POSITION

#: Event opcodes: a call/resume entered the measured scope…
OP_OPEN = 0
#: …or a return/yield/unwind left it.
OP_CLOSE = 1

_COMPREHENSION_NAMES = frozenset(
    {"<genexpr>", "<listcomp>", "<dictcomp>", "<setcomp>"}
)

#: Snapshot used when an event has no usable reading at all (the very
#: first backend read failed).  Zero-valued, so the resulting delta is
#: the end snapshot's cumulative value — same fallback as the legacy
#: tracer — and the record is marked suspect via its ``ok`` flag.
_ZERO_SNAPSHOT = EnergySnapshot(joules={}, wall_seconds=0.0, cpu_seconds=0.0)


class CodeFilter:
    """Memoized per-code-object trace decision.

    The decision (and the paper-style ``module.qualname`` label) for a
    code object cannot change within a profiling session, so it is
    computed on first encounter and cached under ``id(code)``.  A strong
    reference to every classified code object is kept for the filter's
    lifetime so the id can never be recycled.

    The memo maps ``id(code)`` to an index into :attr:`metadata`
    (``(method, filename, lineno)`` tuples) or to -1 for code that must
    not be traced.

    One deliberate approximation: the module name is taken from the
    globals of the *first* frame seen for a code object.  Executing the
    same code object under a second module namespace (``exec`` tricks)
    would reuse the first label — irrelevant in practice and a fair
    trade for removing per-event string work.
    """

    __slots__ = (
        "_include",
        "_exclude",
        "_predicate",
        "_trace_comprehensions",
        "memo",
        "metadata",
        "_pinned",
        "_lock",
    )

    def __init__(
        self,
        include: Sequence[str] = (),
        exclude: Sequence[str] = (),
        predicate: Callable[[str], bool] | None = None,
        trace_comprehensions: bool = False,
    ) -> None:
        self._include = tuple(include)
        self._exclude = tuple(exclude)
        self._predicate = predicate
        self._trace_comprehensions = trace_comprehensions
        self.memo: dict[int, int] = {}
        self.metadata: list[tuple[str, str, int]] = []
        self._pinned: list[CodeType] = []
        self._lock = threading.Lock()

    def classify(self, code: CodeType, globals_: dict) -> int:
        """Memoize and return the verdict for one code object.

        Serialized: with per-thread hooks two threads can miss the memo
        for the same (or different) code objects concurrently, and the
        metadata append + ``len()`` index computation must not
        interleave.  Only this cold path locks — hooks consult the memo
        directly first, so the steady state stays lock-free.
        """
        with self._lock:
            index = self.memo.get(id(code))
            if index is None:
                index = self._decide(code, globals_)
                self.memo[id(code)] = index
                self._pinned.append(code)
        return index

    def _decide(self, code: CodeType, globals_: dict) -> int:
        if (
            not self._trace_comprehensions
            and code.co_name in _COMPREHENSION_NAMES
        ):
            return -1
        filename = code.co_filename
        for prefix in self._exclude:
            if filename.startswith(prefix):
                return -1
        if self._include and not any(
            filename.startswith(prefix) for prefix in self._include
        ):
            return -1
        qualname = getattr(code, "co_qualname", code.co_name)
        method = f"{globals_.get('__name__', '?')}.{qualname}"
        if self._predicate is not None and not self._predicate(method):
            return -1
        self.metadata.append((method, filename, code.co_firstlineno))
        return len(self.metadata) - 1


class _ThreadState:
    """Per-thread deferred-event buffer (``follow_threads=True``).

    Registered on the thread's first event and only ever mutated by that
    thread, so the hot path stays lock-free.  ``opens`` is the open-call
    pairing stack (frame ids under settrace, metadata indices under
    monitoring — same discipline as the single-threaded hooks).

    Keyed by the :class:`threading.Thread` *object* (pinned here), not
    the OS ident: idents are recycled as soon as a thread exits, and a
    pool that churns threads would otherwise conflate distinct threads
    into one state.  ``is_owner`` is decided at registration — the
    owner thread outlives the session, so its ident cannot have been
    recycled onto another live thread.
    """

    __slots__ = (
        "thread",
        "ident",
        "name",
        "is_owner",
        "buffer",
        "opens",
        "last_payload",
        "events",
    )

    def __init__(self, thread: threading.Thread, is_owner: bool) -> None:
        self.thread = thread
        self.ident = thread.ident or 0
        self.name = thread.name
        self.is_owner = is_owner
        self.buffer: list[tuple] = []
        self.opens: list[int] = []
        self.last_payload: object | None = None
        self.events = 0


class _RuntimeBase:
    """State shared by both hook implementations.

    ``snap`` is the backend reading callable (``snapshot_raw`` when the
    backend supports deferred conversion, ``snapshot`` otherwise); it is
    bound once so the hook pays no attribute lookup per event.

    ``follow_threads`` switches from the guarded single-buffer hooks to
    the per-thread-buffer hooks; ``current_task`` (when not None, e.g.
    ``asyncio.current_task``) is called at every follow-mode OPEN to
    attribute the span to the owning asyncio Task.
    """

    name = "?"

    def __init__(
        self,
        code_filter: CodeFilter,
        snap: Callable[[], object],
        owner: int,
        follow_threads: bool = False,
        current_task: Callable[[], object] | None = None,
    ) -> None:
        self._filter = code_filter
        self._snap = snap
        self._owner = owner
        self._follow = follow_threads
        self._current_task = current_task
        self.buffer: list[tuple] = []
        self.events = 0
        self._last_payload: object | None = None
        # Per-thread buffers, keyed by id(Thread object) — see
        # _ThreadState on why not the (recyclable) OS ident.
        self._threads: dict[int, _ThreadState] = {}
        # Interned asyncio Task table: names + strong refs so ids are
        # stable for the session (same discipline as CodeFilter).
        self.task_names: list[str] = []
        self._task_memo: dict[int, int] = {}
        self._task_pinned: list[object] = []
        self._task_lock = threading.Lock()
        # Cross-thread events discarded by the guarded (non-follow)
        # hooks — satellite regression signal, surfaced on the result.
        self.dropped_events = 0
        self.dropped_thread_idents: set[int] = set()

    def install(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def uninstall(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    # -- follow-mode helpers -------------------------------------------

    def _register_thread(self, thread: threading.Thread) -> _ThreadState:
        state = _ThreadState(thread, is_owner=thread.ident == self._owner)
        self._threads[id(thread)] = state
        return state

    def _task_index(self) -> int:
        """Intern the current asyncio Task; -1 outside any task/loop."""
        try:
            task = self._current_task()
        except RuntimeError:
            return -1
        if task is None:
            return -1
        index = self._task_memo.get(id(task))
        if index is None:
            # Event loops on several threads can intern concurrently;
            # only the first sight of a task pays the lock.
            with self._task_lock:
                index = self._task_memo.get(id(task))
                if index is None:
                    index = len(self.task_names)
                    self.task_names.append(str(task.get_name()))
                    self._task_pinned.append(task)
                    self._task_memo[id(task)] = index
        return index

    def thread_states(self) -> list[_ThreadState]:
        """Registered per-thread buffers, owner-registration order."""
        return list(self._threads.values())

    def event_count(self) -> int:
        """Hook events delivered (all threads in follow mode)."""
        if self._follow:
            return sum(s.events for s in self._threads.values())
        return self.events

    def recorded_count(self) -> int:
        """Buffered (recorded) events across every buffer."""
        total = len(self.buffer)
        for state in self._threads.values():
            total += len(state.buffer)
        return total

    def clear_buffers(self) -> None:
        self.buffer.clear()
        for state in self._threads.values():
            state.buffer.clear()


class SetprofileRuntime(_RuntimeBase):
    """``sys.setprofile`` hook with memoized filtering + deferred records.

    Works on every supported interpreter; the fallback when
    ``sys.monitoring`` is unavailable.  The previously installed profile
    hook (coverage, debugger) is saved on install and restored on
    uninstall — it does not run while tracing, but it survives the
    session.
    """

    name = "settrace"

    @staticmethod
    def available() -> bool:
        return True

    def install(self) -> None:
        self._frames: list[int] = []
        self._prior = sys.getprofile()
        # threading.getprofile() (3.10+) lets us restore a hook some
        # other tool arranged for future threads.
        get_threading_profile = getattr(threading, "getprofile", None)
        self._prior_threading = (
            get_threading_profile() if get_threading_profile else None
        )
        if self._follow:
            # ``sys.setprofile`` is per-thread: the owner gets the hook
            # directly, threads started from now on inherit it via
            # ``threading.setprofile``.  Threads already running before
            # install are not reachable from here (documented limit).
            self._register_thread(threading.current_thread())
            threading.setprofile(self._profile_mt)
            sys.setprofile(self._profile_mt)
        else:
            # Guarded mode never sees other threads' events (per-thread
            # hook), so plant a counting stub in threads started during
            # the session: the drop counter is the satellite regression
            # signal for silently-vanishing concurrent energy.
            threading.setprofile(self._count_dropped)
            sys.setprofile(self._profile)

    def uninstall(self) -> None:
        sys.setprofile(self._prior)
        threading.setprofile(self._prior_threading)
        self._prior = None
        self._prior_threading = None

    def _profile(self, frame, event: str, arg) -> None:
        # Branch on the event *first*: ``c_call``/``c_return`` fire for
        # every C builtin the workload touches and must cost nothing
        # beyond the two failed string compares — no thread check, no
        # counter bump.  ``events`` therefore counts Python call events
        # only, matching what the monitoring runtime can see.
        if event == "call":
            if threading.get_ident() != self._owner:
                return
            self.events += 1
            code = frame.f_code
            code_filter = self._filter
            index = code_filter.memo.get(id(code))
            if index is None:
                index = code_filter.classify(code, frame.f_globals)
            if index >= 0:
                try:
                    payload = self._snap()
                except OSError:
                    self.buffer.append(
                        (OP_OPEN, index, False, self._last_payload)
                    )
                else:
                    self._last_payload = payload
                    self.buffer.append((OP_OPEN, index, True, payload))
                self._frames.append(id(frame))
        elif event == "return":
            if threading.get_ident() != self._owner:
                return
            self.events += 1
            # Only frames we opened are on the id stack, so a plain
            # tail check pairs returns with calls — unmatched returns
            # (frames entered before start) fall through.
            frames = self._frames
            if frames and frames[-1] == id(frame):
                frames.pop()
                try:
                    payload = self._snap()
                except OSError:
                    self.buffer.append(
                        (OP_CLOSE, -1, False, self._last_payload)
                    )
                else:
                    self._last_payload = payload
                    self.buffer.append((OP_CLOSE, -1, True, payload))

    def _count_dropped(self, frame, event: str, arg) -> None:
        """Stub installed in non-owner threads when *not* following.

        Counts what the guarded session is losing so the loss can be
        surfaced instead of vanishing (events stay un-recorded).
        """
        if event == "call" or event == "return":
            self.dropped_events += 1
            self.dropped_thread_idents.add(threading.get_ident())

    def _profile_mt(self, frame, event: str, arg) -> None:
        """Follow-mode hook: same fast path, per-thread buffers.

        Identical discipline to :meth:`_profile` except state lives in
        the calling thread's :class:`_ThreadState` (registered on first
        event) and OPEN events capture the owning asyncio Task.
        """
        if event == "call":
            thread = threading.current_thread()
            state = self._threads.get(id(thread))
            if state is None:
                state = self._register_thread(thread)
            state.events += 1
            code = frame.f_code
            code_filter = self._filter
            index = code_filter.memo.get(id(code))
            if index is None:
                index = code_filter.classify(code, frame.f_globals)
            if index >= 0:
                task = (
                    self._task_index()
                    if self._current_task is not None
                    else -1
                )
                try:
                    payload = self._snap()
                except OSError:
                    state.buffer.append(
                        (OP_OPEN, index, False, state.last_payload, task)
                    )
                else:
                    state.last_payload = payload
                    state.buffer.append((OP_OPEN, index, True, payload, task))
                state.opens.append(id(frame))
        elif event == "return":
            state = self._threads.get(id(threading.current_thread()))
            if state is None:
                return
            state.events += 1
            opens = state.opens
            if opens and opens[-1] == id(frame):
                opens.pop()
                try:
                    payload = self._snap()
                except OSError:
                    state.buffer.append(
                        (OP_CLOSE, -1, False, state.last_payload, -1)
                    )
                else:
                    state.last_payload = payload
                    state.buffer.append((OP_CLOSE, -1, True, payload, -1))


class MonitoringRuntime(_RuntimeBase):
    """PEP 669 ``sys.monitoring`` backend (Python ≥ 3.12).

    Registers only function-boundary events and permanently mutes
    non-traced code objects by returning ``DISABLE`` from their first
    event, so steady-state cost for code outside the profiled scope —
    and for *all* C calls, which have no registered event — is zero.

    Tool-id etiquette: tries ``PROFILER_ID`` first, then the unassigned
    ids, so it can coexist with a debugger or coverage tool; all
    callbacks are unregistered, the id freed and ``restart_events()``
    called on uninstall, so muted code objects are observable again by
    later sessions.
    """

    name = "monitoring"

    #: Candidate tool ids, best-practice slot first (3 and 4 carry no
    #: conventional assignment in PEP 669).
    _TOOL_IDS = (2, 3, 4)

    @staticmethod
    def available() -> bool:
        return hasattr(sys, "monitoring")

    def install(self) -> None:
        monitoring = sys.monitoring
        for tool_id in self._TOOL_IDS:
            try:
                monitoring.use_tool_id(tool_id, "pepo-energy-tracer")
            except ValueError:
                continue
            self._tool_id = tool_id
            break
        else:
            raise RuntimeError(
                "no free sys.monitoring tool id (slots "
                f"{self._TOOL_IDS} all in use)"
            )
        self._disable = monitoring.DISABLE
        self._opens: list[int] = []
        events = monitoring.events
        if self._follow:
            # ``sys.monitoring`` is interpreter-global, so the same
            # callbacks already fire on every thread — following is
            # just routing each event to its thread's buffer instead
            # of dropping non-owner ones.
            self._register_thread(threading.current_thread())
            self._registered = (
                (events.PY_START, self._mt_start),
                (events.PY_RESUME, self._mt_start),
                (events.PY_THROW, self._mt_throw),
                (events.PY_RETURN, self._mt_return),
                (events.PY_YIELD, self._mt_return),
                (events.PY_UNWIND, self._mt_unwind),
            )
        else:
            self._registered = (
                (events.PY_START, self._on_start),
                (events.PY_RESUME, self._on_start),
                (events.PY_THROW, self._on_throw),
                (events.PY_RETURN, self._on_return),
                (events.PY_YIELD, self._on_return),
                (events.PY_UNWIND, self._on_unwind),
            )
        event_set = 0
        for event, callback in self._registered:
            monitoring.register_callback(self._tool_id, event, callback)
            event_set |= event
        monitoring.set_events(self._tool_id, event_set)

    def uninstall(self) -> None:
        monitoring = sys.monitoring
        monitoring.set_events(self._tool_id, 0)
        for event, _ in self._registered:
            monitoring.register_callback(self._tool_id, event, None)
        monitoring.free_tool_id(self._tool_id)
        # Re-arm every location muted with DISABLE so a later session
        # (or another tool) sees a clean slate.
        monitoring.restart_events()

    # -- callbacks -----------------------------------------------------

    def _classify(self, code: CodeType) -> int:
        index = self._filter.memo.get(id(code))
        if index is None:
            # First sight of this code object: the monitored frame is
            # the caller of this callback.
            index = self._filter.classify(code, sys._getframe(2).f_globals)
        return index

    def _record(self, op: int, index: int) -> None:
        try:
            payload = self._snap()
        except OSError:
            self.buffer.append((op, index, False, self._last_payload))
        else:
            self._last_payload = payload
            self.buffer.append((op, index, True, payload))

    def _on_start(self, code: CodeType, offset: int):
        """PY_START / PY_RESUME: open a call (or mute the location)."""
        ident = threading.get_ident()
        if ident != self._owner:
            self.dropped_events += 1
            self.dropped_thread_idents.add(ident)
            return None
        self.events += 1
        index = self._filter.memo.get(id(code))
        if index is None:
            index = self._filter.classify(code, sys._getframe(1).f_globals)
        if index < 0:
            return self._disable
        self._record(OP_OPEN, index)
        self._opens.append(index)
        return None

    def _on_throw(self, code: CodeType, offset: int, exc):
        """PY_THROW: a generator resumed via ``throw()`` — open a call.

        Not a local event, so never returns ``DISABLE``.
        """
        ident = threading.get_ident()
        if ident != self._owner:
            self.dropped_events += 1
            self.dropped_thread_idents.add(ident)
            return None
        self.events += 1
        index = self._classify(code)
        if index >= 0:
            self._record(OP_OPEN, index)
            self._opens.append(index)
        return None

    def _on_return(self, code: CodeType, offset: int, retval):
        """PY_RETURN / PY_YIELD: close the matching open call."""
        ident = threading.get_ident()
        if ident != self._owner:
            self.dropped_events += 1
            self.dropped_thread_idents.add(ident)
            return None
        self.events += 1
        index = self._classify(code)
        if index < 0:
            return self._disable
        opens = self._opens
        if opens and opens[-1] == index:
            # Calls/returns nest per thread and non-traced code never
            # lands on the open stack, so a tail match is exact; a
            # mismatch means the frame entered before start() and is
            # skipped (never DISABLEd — the location stays live for
            # later legitimate returns).
            opens.pop()
            self._record(OP_CLOSE, -1)
        return None

    def _on_unwind(self, code: CodeType, offset: int, exc):
        """PY_UNWIND: frame exited via exception — close the call.

        Not a local event, so never returns ``DISABLE``.
        """
        ident = threading.get_ident()
        if ident != self._owner:
            self.dropped_events += 1
            self.dropped_thread_idents.add(ident)
            return None
        self.events += 1
        index = self._classify(code)
        if index >= 0:
            opens = self._opens
            if opens and opens[-1] == index:
                opens.pop()
                self._record(OP_CLOSE, -1)
        return None

    # -- follow-mode callbacks (per-thread buffers) --------------------

    def _state(self) -> _ThreadState:
        thread = threading.current_thread()
        state = self._threads.get(id(thread))
        if state is None:
            state = self._register_thread(thread)
        return state

    def _record_mt(
        self, state: _ThreadState, op: int, index: int, task: int
    ) -> None:
        try:
            payload = self._snap()
        except OSError:
            state.buffer.append((op, index, False, state.last_payload, task))
        else:
            state.last_payload = payload
            state.buffer.append((op, index, True, payload, task))

    def _mt_start(self, code: CodeType, offset: int):
        """PY_START / PY_RESUME on any thread: open in its buffer.

        Task identity is captured here — i.e. at *resume* for
        coroutines — so a span always bills to the Task actually
        driving it, and suspended coroutines bill nothing.
        """
        state = self._state()
        state.events += 1
        index = self._filter.memo.get(id(code))
        if index is None:
            index = self._filter.classify(code, sys._getframe(1).f_globals)
        if index < 0:
            return self._disable
        task = self._task_index() if self._current_task is not None else -1
        self._record_mt(state, OP_OPEN, index, task)
        state.opens.append(index)
        return None

    def _mt_throw(self, code: CodeType, offset: int, exc):
        """PY_THROW on any thread (never a local event → no DISABLE)."""
        state = self._state()
        state.events += 1
        index = self._classify(code)
        if index >= 0:
            task = (
                self._task_index() if self._current_task is not None else -1
            )
            self._record_mt(state, OP_OPEN, index, task)
            state.opens.append(index)
        return None

    def _mt_return(self, code: CodeType, offset: int, retval):
        """PY_RETURN / PY_YIELD on any thread: close in its buffer."""
        state = self._state()
        state.events += 1
        index = self._classify(code)
        if index < 0:
            return self._disable
        opens = state.opens
        if opens and opens[-1] == index:
            opens.pop()
            self._record_mt(state, OP_CLOSE, -1, -1)
        return None

    def _mt_unwind(self, code: CodeType, offset: int, exc):
        """PY_UNWIND on any thread (never a local event → no DISABLE)."""
        state = self._state()
        state.events += 1
        index = self._classify(code)
        if index >= 0:
            opens = state.opens
            if opens and opens[-1] == index:
                opens.pop()
                self._record_mt(state, OP_CLOSE, -1, -1)
        return None


#: Runtime registry, in the order ``runtime="auto"`` tries them.
RUNTIMES: dict[str, type[_RuntimeBase]] = {
    MonitoringRuntime.name: MonitoringRuntime,
    SetprofileRuntime.name: SetprofileRuntime,
}


def resolve_runtime(name: str) -> list[type[_RuntimeBase]]:
    """Runtime classes to try for a ``runtime=`` knob value.

    ``auto`` returns every available implementation best-first (the
    caller falls through on install failure, e.g. no free tool id);
    an explicit name returns exactly that implementation.
    """
    if name == "auto":
        return [cls for cls in RUNTIMES.values() if cls.available()]
    try:
        cls = RUNTIMES[name]
    except KeyError:
        raise ValueError(
            f"unknown profiling runtime {name!r}; "
            f"expected 'auto', {', '.join(map(repr, RUNTIMES))}"
        ) from None
    if not cls.available():
        raise RuntimeError(
            f"profiling runtime {name!r} requires sys.monitoring "
            f"(Python >= 3.12); this is {sys.version.split()[0]}"
        )
    return [cls]


# -- deferred materialization -----------------------------------------


def materialize(
    buffer: Sequence[tuple],
    final_payload: object | None,
    final_ok: bool,
    metadata: Sequence[tuple[str, str, int]],
    to_rows: Callable[[list], list],
    counts: dict[str, int],
) -> list[MethodRecord]:
    """Replay the tracer's deferred event buffer into records.

    Tracer events pair LIFO (a CLOSE ends the innermost open call, and
    that call's parent is the one below it), so the pairing is a stack
    walk; calls left open when tracing stopped are closed against the
    final reading, innermost first, exactly like the legacy tracer.
    Everything else happens in :func:`replay`, which the probe runtime
    shares.
    """
    spans: list[tuple] = []
    # Open calls as (metadata, start); the sentinel's start, -1, is the
    # parent of a call opened with nothing else open.
    stack: list[tuple] = [(None, -1)]
    op_open = OP_OPEN
    for position, event in enumerate(buffer):
        if event[0] == op_open:
            stack.append((metadata[event[1]], position))
        elif len(stack) > 1:
            meta, opened = stack.pop()
            spans.append((meta, opened, position, stack[-1][1]))
    end = len(buffer)
    while len(stack) > 1:
        meta, opened = stack.pop()
        spans.append((meta, opened, end, stack[-1][1]))
    payloads = [event[3] for event in buffer]
    payloads.append(final_payload)
    oks = [event[2] for event in buffer]
    oks.append(final_ok)
    return replay(spans, to_rows(payloads), oks, counts)


def replay(
    spans: Sequence[tuple],
    rows: Sequence[tuple | None],
    oks: Sequence[bool],
    counts: dict[str, int],
) -> list[MethodRecord]:
    """Build one :class:`MethodRecord` per span, in span order.

    ``rows`` are positional readings ``(wall, cpu, joules)`` with
    ``joules`` a tuple in :data:`~repro.rapl.domains.DOMAINS` order
    (``None`` for a domain the reading lacks), or ``None`` for a
    missing reading (a read failed before any succeeded), which counts
    as zero.  ``oks`` flags the readings that really came from the
    backend.  A span is ``((method, filename, lineno), start, end,
    parent)``: ``start`` and ``end`` index ``rows``, and ``parent`` is
    the ``start`` of the span it is credited to (-1 for a root).

    Deltas and exclusive energy are computed on the positional rows;
    the ``Domain``-keyed dicts are built once per record, when its span
    closes.  The float operations are those of
    :meth:`EnergySnapshot.delta` followed by a per-domain ``inclusive
    - Σ children`` in closing order, so the records are bit-identical
    to ones built from snapshots (see
    ``tests/profiler/test_probe_golden.py``).  A child closing after
    its parent (a probed generator outliving its consumer's frame,
    say) is still subtracted from the parent's exclusive energy: that
    parent's exclusive dict is recomputed, once, after the last span.
    """
    records: list[MethodRecord] = []
    append = records.append
    delta_of, dicts_of, record_of = _row_delta, _joules_dicts, replayed_record
    accumulate, no_children = _accumulate, _ZEROS
    # Running sums of closed children's inclusive joules, per parent
    # span start, and the record index of every closed span.
    children: dict[int, list] = {}
    closed: dict[int, int] = {}
    late: set[int] = set()
    for meta, start, end, parent in spans:
        wall, cpu, joules, clamped = delta_of(rows[start], rows[end])
        method, filename, lineno = meta
        call_index = counts.get(method, 0)
        counts[method] = call_index + 1
        inclusive, exclusive = dicts_of(
            joules, children.get(start, no_children)
        )
        closed[start] = len(records)
        append(
            record_of(
                method,
                filename,
                lineno,
                call_index,
                wall,
                cpu,
                inclusive,
                exclusive,
                clamped or not (oks[start] and oks[end]),
            )
        )
        if parent >= 0:
            total = children.get(parent)
            if total is None:
                total = children[parent] = [0.0] * len(joules)
            accumulate(total, joules)
            if parent in closed:
                late.add(parent)
    position = POSITION
    for start in late:
        record = records[closed[start]]
        below = children[start]
        exclusive = record.exclusive_joules
        exclusive.clear()
        for dom, value in record.joules.items():
            exclusive[dom] = value - below[position[dom]]
    return records


_ZEROS = (0.0,) * len(DOMAINS)
_NO_JOULES = (None,) * len(DOMAINS)


def _accumulate(total: list, joules: Sequence) -> None:
    """Add a child's inclusive joules into its parent's running sums."""
    try:
        total[:] = map(_add, total, joules)
    except TypeError:  # a domain the reading lacks
        for i, value in enumerate(joules):
            if value is not None:
                total[i] = total[i] + value


def _joules_dicts(joules: Sequence, children: Sequence) -> tuple[dict, dict]:
    """Inclusive and exclusive ``Domain``-keyed dicts of one record."""
    if None in joules:
        present = [
            (dom, value, below)
            for dom, value, below in zip(DOMAINS, joules, children)
            if value is not None
        ]
        return (
            {dom: value for dom, value, _ in present},
            {dom: value - below for dom, value, below in present},
        )
    return (
        dict(zip(DOMAINS, joules)),
        dict(zip(DOMAINS, map(_sub, joules, children))),
    )


def _row_delta(
    begin: tuple | None, finish: tuple | None
) -> tuple[float, float, list, bool]:
    """:meth:`EnergySnapshot.delta` on two rows.

    Returns ``(wall, cpu, joules, clamped)``.  A missing row reads as
    the zero snapshot and a domain the end row lacks stays ``None``.
    A negative energy delta is clamped to zero with a
    :class:`RuntimeWarning`, and ``clamped`` makes the record suspect.
    """
    try:
        joules = list(map(_sub, finish[2], begin[2]))
        if min(joules) >= 0.0:
            return finish[0] - begin[0], finish[1] - begin[1], joules, False
    except TypeError:  # a missing reading or domain
        pass
    if begin is None:
        begin = (0.0, 0.0, _NO_JOULES)
    if finish is None:
        finish = (0.0, 0.0, _NO_JOULES)
    joules = []
    clamped = False
    warn, domains = warnings.warn, DOMAINS
    for dom, end, start in zip(domains, finish[2], begin[2]):
        if end is None:
            joules.append(None)
            continue
        if start is None:
            start = 0.0
        value = end - start
        if value < 0.0:
            warn(
                f"negative energy delta for {dom.value} domain "
                f"({value:.6f} J) — undetected counter wrap or faulty "
                "read; clamping to 0 and marking the interval suspect",
                RuntimeWarning,
                stacklevel=3,
            )
            value = 0.0
            clamped = True
        joules.append(value)
    return finish[0] - begin[0], finish[1] - begin[1], joules, clamped


def _payload_wall(payload: object, fallback: float) -> float:
    """Wall-clock ordering key of a deferred payload.

    Raw payloads are flat tuples starting with the wall reading; full
    payloads are :class:`EnergySnapshot`.  ``None`` (a read failed
    before any succeeded) sorts at the thread's last known position.
    """
    if payload is None:
        return fallback
    if type(payload) is tuple:
        return payload[0]
    return payload.wall_seconds


@dataclass
class ConcurrentReplay:
    """Output of :func:`materialize_concurrent`.

    ``timeline_joules`` is the per-domain energy observed on the shared
    backend timeline between the first and last reading of the session;
    ``unattributed_joules`` is the slice attributed to a thread while it
    had no traced call open.  Conservation invariant (modulo float
    rounding and clamped faults): per-record exclusive energy summed
    over all records, plus unattributed, equals the timeline.
    """

    records: list[MethodRecord]
    timeline_joules: dict
    unattributed_joules: dict
    timeline_cpu_seconds: float


def materialize_concurrent(
    states: Sequence[_ThreadState],
    final_payload: object | None,
    final_ok: bool,
    metadata: Sequence[tuple[str, str, int]],
    to_rows: Callable[[list], list],
    counts: dict[str, int],
    task_names: Sequence[str],
) -> ConcurrentReplay:
    """Merge per-thread buffers into records over one shared timeline.

    The backend exposes a single monotonic cumulative energy counter,
    so concurrent threads' readings interleave on one timeline.  The
    replay:

    1. merges every thread's buffer into global chronological order
       (stable, so a single thread's events keep their exact order);
    2. converts payloads in that order (raw wrap handling is
       order-sensitive);
    3. attributes the energy gap between consecutive readings to the
       thread that produced the *later* reading — under the GIL that
       thread overwhelmingly consumed the slice — accumulating global
       and per-thread running sums;
    4. computes each call's inclusive energy as its cumulative delta
       minus the *foreign* energy other threads consumed inside the
       interval: ``foreign = Δtotal − Δown``.

    When only one thread produced events, ``Δtotal`` and ``Δown`` are
    built from float-identical sequences, the foreign term is exactly
    ``0.0``, and every record comes out bit-exact against
    :func:`materialize` — the sync path's behaviour is preserved, not
    approximated.

    ``to_rows`` converts the payloads, in that order, into positional
    rows (see :func:`replay` and :func:`row_converter`).

    With numpy available the slice-attribution accumulators (step 3)
    are precomputed as per-domain cumulative-sum arrays instead of
    per-event dict updates and per-open dict copies, and deltas are
    taken on the rows (:func:`_replay_concurrent_vector`);
    ``np.cumsum`` performs the same sequential additions, so the
    output — records, timeline, unattributed — is bit-identical, and
    the pure loop over snapshots remains the numpy-free fallback.
    """
    # 1. Global chronological merge (stable: wall, then arrival seq).
    tagged: list[tuple[float, int, _ThreadState, tuple]] = []
    seq = 0
    for state in states:
        last_wall = 0.0
        for event in state.buffer:
            last_wall = _payload_wall(event[3], last_wall)
            tagged.append((last_wall, seq, state, event))
            seq += 1
    tagged.sort(key=lambda item: (item[0], item[1]))

    # 2. Payload conversion in chronological order.
    rows = to_rows([item[3][3] for item in tagged] + [final_payload])
    final_row = rows.pop()

    from repro.profiler.fastpath import numpy_or_none

    np = numpy_or_none()
    if np is not None and tagged:
        return _replay_concurrent_vector(
            np,
            tagged,
            rows,
            final_row,
            final_ok,
            states,
            metadata,
            counts,
            task_names,
        )
    return _replay_concurrent_pure(
        tagged,
        list(map(_row_snapshot, rows)),
        _row_snapshot(final_row),
        final_ok,
        states,
        metadata,
        counts,
        task_names,
    )


def _replay_concurrent_pure(
    tagged: list[tuple[float, int, _ThreadState, tuple]],
    snapshots: list[EnergySnapshot],
    final_snapshot: EnergySnapshot,
    final_ok: bool,
    states: Sequence[_ThreadState],
    metadata: Sequence[tuple[str, str, int]],
    counts: dict[str, int],
    task_names: Sequence[str],
) -> ConcurrentReplay:
    """Steps 3–4 of the concurrent replay, pure-Python accumulators."""
    records: list[MethodRecord] = []
    # 3. Slice-attribution accumulators.  ``total_*`` and each thread's
    # ``own_*`` see identical float additions when one thread runs, so
    # their differences cancel exactly (bit-exact sync parity).  Keyed
    # by id(state): distinct states can share a recycled OS ident.
    total_joules: dict = {}
    total_cpu = 0.0
    own_joules: dict[int, dict] = {id(s): {} for s in states}
    own_cpu: dict[int, float] = {id(s): 0.0 for s in states}
    # Open-call stacks per thread: [meta_index, snapshot, ok, children,
    # task, total_joules/own_joules/total_cpu/own_cpu at open].
    stacks: dict[int, list[list]] = {id(s): [] for s in states}
    unattributed: dict = {}

    def attribute_gap(
        prev: EnergySnapshot, cur: EnergySnapshot, state: _ThreadState
    ) -> None:
        nonlocal total_cpu
        ident = id(state)
        mine = own_joules[ident]
        idle = not stacks[ident]
        for dom, value in cur.joules.items():
            gap = value - prev.joules.get(dom, 0.0)
            if gap < 0.0:  # counter wrap survived conversion: drop it
                gap = 0.0
            total_joules[dom] = total_joules.get(dom, 0.0) + gap
            mine[dom] = mine.get(dom, 0.0) + gap
            if idle:
                unattributed[dom] = unattributed.get(dom, 0.0) + gap
        cpu_gap = cur.cpu_seconds - prev.cpu_seconds
        if cpu_gap < 0.0:
            cpu_gap = 0.0
        total_cpu += cpu_gap
        own_cpu[ident] += cpu_gap

    def close(
        entry: list, end: EnergySnapshot, end_ok: bool, state: _ThreadState
    ) -> None:
        index, start, start_ok, children, task = entry[:5]
        open_total, open_own, open_total_cpu, open_own_cpu = entry[5:]
        ident = id(state)
        delta = end.delta(start)
        mine = own_joules[ident]
        inclusive = {}
        for dom, value in delta.joules.items():
            foreign = (
                total_joules.get(dom, 0.0) - open_total.get(dom, 0.0)
            ) - (mine.get(dom, 0.0) - open_own.get(dom, 0.0))
            if foreign:
                value = value - foreign
                if value < 0.0:
                    value = 0.0
            inclusive[dom] = value
        cpu_foreign = (total_cpu - open_total_cpu) - (
            own_cpu[ident] - open_own_cpu
        )
        cpu = delta.cpu_seconds
        if cpu_foreign:
            cpu = cpu - cpu_foreign
            if cpu < 0.0:
                cpu = 0.0
        exclusive = {
            dom: inclusive.get(dom, 0.0) - children.get(dom, 0.0)
            for dom in inclusive
        }
        method, filename, lineno = metadata[index]
        call_index = counts.get(method, 0)
        counts[method] = call_index + 1
        records.append(
            replayed_record(
                method,
                filename,
                lineno,
                call_index,
                delta.wall_seconds,
                cpu,
                inclusive,
                exclusive,
                not start_ok or not end_ok or delta.suspect,
                0 if state.is_owner else state.ident,
                "" if state.is_owner else state.name,
                task_names[task] if task >= 0 else "",
            )
        )
        stack = stacks[ident]
        if stack:
            parent_children = stack[-1][3]
            for dom, joules in inclusive.items():
                parent_children[dom] = parent_children.get(dom, 0.0) + joules

    prev_snapshot: EnergySnapshot | None = None
    prev_ok = True
    for position, (_wall, _seq, state, event) in enumerate(tagged):
        snapshot = snapshots[position]
        op, index, ok = event[0], event[1], event[2]
        task = event[4] if len(event) > 4 else -1
        if prev_snapshot is not None and ok and prev_ok:
            attribute_gap(prev_snapshot, snapshot, state)
        if ok:
            prev_snapshot, prev_ok = snapshot, True
        else:
            prev_ok = False
        if op == OP_OPEN:
            stacks[id(state)].append(
                [
                    index,
                    snapshot,
                    ok,
                    {},
                    task,
                    dict(total_joules),
                    dict(own_joules[id(state)]),
                    total_cpu,
                    own_cpu[id(state)],
                ]
            )
        else:
            stack = stacks[id(state)]
            if stack:
                close(stack.pop(), snapshot, ok, state)

    # The tail slice up to the tracer's final reading ran on the owner
    # thread (it called stop()).
    owner_state = next((s for s in states if s.is_owner), None)
    if prev_snapshot is not None and prev_ok and final_ok and owner_state:
        attribute_gap(prev_snapshot, final_snapshot, owner_state)

    # Calls still open when tracing stopped close against the final
    # reading — owner first (registration order), innermost first.
    for state in states:
        stack = stacks[id(state)]
        while stack:
            close(stack.pop(), final_snapshot, final_ok, state)

    return ConcurrentReplay(
        records=records,
        timeline_joules=total_joules,
        unattributed_joules=unattributed,
        timeline_cpu_seconds=total_cpu,
    )


def _replay_concurrent_vector(
    np,
    tagged: list[tuple[float, int, _ThreadState, tuple]],
    rows: list[tuple | None],
    final_row: tuple | None,
    final_ok: bool,
    states: Sequence[_ThreadState],
    metadata: Sequence[tuple[str, str, int]],
    counts: dict[str, int],
    task_names: Sequence[str],
) -> ConcurrentReplay:
    """Steps 3–4 of the concurrent replay over positional rows.

    The pure loop's cost centers are the per-event dict updates of the
    global/per-thread running sums and the two dict *copies* taken at
    every OPEN.  Here those running sums are precomputed once as
    per-domain cumulative arrays — ``cumsum`` adds sequentially, in the
    same order as the loop (events where a domain is absent contribute
    ``+0.0``, which is addition-neutral) — and an OPEN stores only its
    event position; ``close`` then reads the four accumulator values by
    position (from plain lists: float64 arithmetic either way) instead
    of copying dicts, and takes its delta on the rows.  Output is
    bit-identical to :func:`_replay_concurrent_pure` (parity-tested to
    ``result.txt`` bytes).
    """
    n = len(tagged)
    tcount = len(states)
    width = len(DOMAINS)
    state_pos = {id(s): i for i, s in enumerate(states)}
    arange_n = np.arange(n)

    tidx = np.fromiter(
        (state_pos[id(item[2])] for item in tagged), dtype=np.intp, count=n
    )
    ok = np.fromiter((bool(item[3][2]) for item in tagged), dtype=bool, count=n)
    is_open = np.fromiter(
        (item[3][0] == OP_OPEN for item in tagged), dtype=bool, count=n
    )
    # A gap is attributed at event i iff both it and the event before it
    # carried good readings — exactly the pure loop's prev_ok guard
    # (after a failed read the next good reading re-anchors, no gap).
    gap_ok = np.zeros(n, dtype=bool)
    gap_ok[1:] = ok[1:] & ok[:-1]

    # "Idle" at event i = the event thread's open-call stack was empty
    # when the gap was attributed (before the event's own push/pop).
    # Per-thread buffers only ever record a CLOSE that matches one of
    # their own OPENs, so depth never underflows and a ±1 cumsum per
    # thread reproduces the stack depth.
    sign = np.where(is_open, 1, -1)
    per_thread_sign = np.zeros((tcount, n), dtype=np.int64)
    per_thread_sign[tidx, arange_n] = sign
    depth_after = np.cumsum(per_thread_sign, axis=1)
    idle = (depth_after[tidx, arange_n] - sign) == 0

    # Joules matrix: a missing reading or domain is NaN (numpy reads
    # None as NaN), i.e. absent; absent values count as 0.0.
    absent = (None,) * width
    matrix = np.array(
        [row[2] if row is not None else absent for row in rows],
        dtype=np.float64,
    ).reshape(n, width)
    present = ~np.isnan(matrix)
    values = np.where(present, matrix, 0.0)

    # Domain union over the event rows, first-appearance order (row,
    # then DOMAINS order within a row — a snapshot's key order).
    seen = present.any(axis=0)
    first = present.argmax(axis=0)
    domains = sorted(
        (k for k in range(width) if seen[k]), key=lambda k: (first[k], k)
    )

    # Per-domain running sums.  total_cum[k][i] == the pure loop's
    # total_joules[dom] right after event i's gap attribution;
    # own_cum[k][t, i] likewise for thread t's running sum.
    total_cum: dict[int, object] = {}
    own_cum: dict[int, object] = {}
    total_end: dict[int, float] = {}
    unattr_end: dict[int, float] = {}
    for k in domains:
        vals = values[:, k]
        g = np.zeros(n, dtype=np.float64)
        np.subtract(vals[1:], vals[:-1], out=g[1:])
        np.maximum(g, 0.0, out=g)  # counter wrap survived conversion
        g[~gap_ok] = 0.0
        total_cum[k] = np.cumsum(g)
        per_thread = np.zeros((tcount, n), dtype=np.float64)
        per_thread[tidx, arange_n] = g
        own_cum[k] = np.cumsum(per_thread, axis=1)
        # Key-presence parity: the pure dicts gain a key only when a
        # gap event's *later* reading actually carried the domain.
        gapped = present[:, k] & gap_ok
        if gapped.any():
            total_end[k] = float(total_cum[k][-1])
        if (gapped & idle).any():
            unattr_end[k] = float(np.cumsum(np.where(idle, g, 0.0))[-1])

    cpu_vals = np.fromiter(
        (row[1] if row is not None else 0.0 for row in rows),
        dtype=np.float64,
        count=n,
    )
    cg = np.zeros(n, dtype=np.float64)
    np.subtract(cpu_vals[1:], cpu_vals[:-1], out=cg[1:])
    np.maximum(cg, 0.0, out=cg)
    cg[~gap_ok] = 0.0
    total_cpu_cum = np.cumsum(cg)
    per_thread_cpu = np.zeros((tcount, n), dtype=np.float64)
    per_thread_cpu[tidx, arange_n] = cg
    own_cpu_cum = np.cumsum(per_thread_cpu, axis=1)

    # Pair every CLOSE with its OPEN (per-thread LIFO, as the replay loop
    # below does) up front, so the foreign terms of all in-loop closes
    # come from one gather per domain instead of scalar lookups per
    # close: ``foreign = Δtotal − Δown`` over the call's interval.
    open_pos: list[int] = []
    close_pos: list[int] = []
    depth: dict[int, list[int]] = {id(s): [] for s in states}
    op_open = OP_OPEN
    for pos, item in enumerate(tagged):
        pending = depth[id(item[2])]
        if item[3][0] == op_open:
            pending.append(pos)
        elif pending:
            open_pos.append(pending.pop())
            close_pos.append(pos)
    opened_at = np.array(open_pos, dtype=np.intp)
    closed_at = np.array(close_pos, dtype=np.intp)
    closer = tidx[closed_at]
    foreign = np.zeros((len(close_pos), width), dtype=np.float64)
    for k in domains:
        tc = total_cum[k]
        oc = own_cum[k]
        foreign[:, k] = (tc[closed_at] - tc[opened_at]) - (
            oc[closer, closed_at] - oc[closer, opened_at]
        )
    foreign_joules = foreign.tolist()
    foreign_cpu = (
        (total_cpu_cum[closed_at] - total_cpu_cum[opened_at])
        - (own_cpu_cum[closer, closed_at] - own_cpu_cum[closer, opened_at])
    ).tolist()

    records: list[MethodRecord] = []
    stacks: dict[int, list[list]] = {id(s): [] for s in states}

    def emit(
        index: int,
        wall: float,
        inclusive: list,
        children: list,
        cpu: float,
        suspect: bool,
        state: _ThreadState,
        task: int,
    ) -> None:
        joules, exclusive = _joules_dicts(inclusive, children)
        method, filename, lineno = metadata[index]
        call_index = counts.get(method, 0)
        counts[method] = call_index + 1
        records.append(
            replayed_record(
                method,
                filename,
                lineno,
                call_index,
                wall,
                cpu,
                joules,
                exclusive,
                suspect,
                0 if state.is_owner else state.ident,
                "" if state.is_owner else state.name,
                task_names[task] if task >= 0 else "",
            )
        )
        stack = stacks[id(state)]
        if stack:
            _accumulate(stack[-1][3], inclusive)

    def close(
        entry: list,
        end: tuple | None,
        end_ok: bool,
        state: _ThreadState,
        foreign_joules: list,
        foreign_cpu: float,
    ) -> None:
        """``foreign_*``: energy/CPU other threads used inside the call."""
        index, start, start_ok, children, task, _opened = entry
        wall, cpu, joules, clamped = _row_delta(start, end)
        for k, foreign in enumerate(foreign_joules):
            value = joules[k]
            if foreign and value is not None:
                value = value - foreign
                if value < 0.0:
                    value = 0.0
                joules[k] = value
        if foreign_cpu:
            cpu = cpu - foreign_cpu
            if cpu < 0.0:
                cpu = 0.0
        emit(
            index, wall, joules, children, cpu,
            clamped or not start_ok or not end_ok, state, task,
        )

    closes = 0
    for pos, (_wall, _seq, state, event) in enumerate(tagged):
        op, index, ok_ev = event[0], event[1], event[2]
        task = event[4] if len(event) > 4 else -1
        if op == OP_OPEN:
            stacks[id(state)].append(
                [index, rows[pos], ok_ev, [0.0] * width, task, pos]
            )
            continue
        stack = stacks[id(state)]
        if stack:
            close(
                stack.pop(), rows[pos], ok_ev, state,
                foreign_joules[closes], foreign_cpu[closes],
            )
            closes += 1

    # Scalar running state for everything after the last event: the
    # tail-slice attribution and the closes of still-open calls.  The
    # cumulative arrays' last elements are bit-equal to the pure loop's
    # running sums at this point.
    total_now = {DOMAINS[k]: value for k, value in total_end.items()}
    unattr_now = {DOMAINS[k]: value for k, value in unattr_end.items()}
    own_now = [
        {DOMAINS[k]: float(own_cum[k][t, -1]) for k in domains}
        for t in range(tcount)
    ]
    total_cpu_now = float(total_cpu_cum[-1])
    own_cpu_now = [float(own_cpu_cum[t, -1]) for t in range(tcount)]

    # The tail slice up to the tracer's final reading ran on the owner
    # thread (it called stop()) — same guard chain as the pure loop:
    # the last event's reading must be good, and so must the final one.
    owner_state = next((s for s in states if s.is_owner), None)
    if bool(ok[-1]) and final_ok and owner_state is not None:
        t = state_pos[id(owner_state)]
        mine = own_now[t]
        idle_tail = not stacks[id(owner_state)]
        prev = _row_snapshot(rows[-1]).joules
        tail = _row_snapshot(final_row).joules
        for dom, value in tail.items():
            gap = value - prev.get(dom, 0.0)
            if gap < 0.0:
                gap = 0.0
            total_now[dom] = total_now.get(dom, 0.0) + gap
            mine[dom] = mine.get(dom, 0.0) + gap
            if idle_tail:
                unattr_now[dom] = unattr_now.get(dom, 0.0) + gap
        cpu_gap = (final_row[1] if final_row else 0.0) - (
            rows[-1][1] if rows[-1] else 0.0
        )
        if cpu_gap < 0.0:
            cpu_gap = 0.0
        total_cpu_now += cpu_gap
        own_cpu_now[t] += cpu_gap

    # Calls still open when tracing stopped close against the final
    # reading — owner first (registration order), innermost first —
    # with the post-tail running sums.
    domains_at = list(enumerate(DOMAINS))
    for state in states:
        stack = stacks[id(state)]
        t = state_pos[id(state)]
        mine = own_now[t]
        while stack:
            entry = stack.pop()
            opened = entry[5]
            foreign_final = []
            for k, dom in domains_at:
                open_total = open_own = 0.0
                if k in total_cum:
                    open_total = float(total_cum[k][opened])
                    open_own = float(own_cum[k][t, opened])
                foreign_final.append(
                    (total_now.get(dom, 0.0) - open_total)
                    - (mine.get(dom, 0.0) - open_own)
                )
            cpu_final = (total_cpu_now - float(total_cpu_cum[opened])) - (
                own_cpu_now[t] - float(own_cpu_cum[t, opened])
            )
            close(entry, final_row, final_ok, state, foreign_final, cpu_final)

    return ConcurrentReplay(
        records=records,
        timeline_joules=total_now,
        unattributed_joules=unattr_now,
        timeline_cpu_seconds=total_cpu_now,
    )


def row_converter(backend, raw_mode: bool) -> Callable[[list], list]:
    """Build the payload→row conversion for :func:`replay`.

    Raw mode hands the chronological reading list to the backend's
    ``cumulative_raw`` (wrap handling is order-sensitive); full-snapshot
    mode lays each :class:`EnergySnapshot` out positionally.  ``None``
    payloads (a read failed before any succeeded) stay ``None``.
    """

    def convert(payloads: list) -> list:
        if raw_mode:
            present = [p for p in payloads if p is not None]
            converted = iter(backend.cumulative_raw(present))
            return [next(converted) if p is not None else None for p in payloads]
        return [snapshot_row(p) if p is not None else None for p in payloads]

    return convert


def snapshot_row(snapshot: EnergySnapshot) -> tuple:
    """An :class:`EnergySnapshot` as a positional row (``None`` = absent)."""
    joules = snapshot.joules
    return (
        snapshot.wall_seconds,
        snapshot.cpu_seconds,
        tuple(map(joules.get, DOMAINS)),
    )


def _row_snapshot(row: tuple | None) -> EnergySnapshot:
    """A row as an :class:`EnergySnapshot` (the pure concurrent replay)."""
    if row is None:
        return _ZERO_SNAPSHOT
    return EnergySnapshot(
        joules={
            dom: value
            for dom, value in zip(DOMAINS, row[2])
            if value is not None
        },
        wall_seconds=row[0],
        cpu_seconds=row[1],
    )


# -- self-overhead accounting -----------------------------------------


@dataclass(frozen=True)
class OverheadEstimate:
    """Estimated cost the profiler itself added to a measured run.

    ``per_event_seconds`` comes from a calibration loop (see
    :meth:`repro.profiler.tracer.EnergyTracer`); ``seconds`` is that
    cost times the number of hook events the run actually delivered,
    and ``joules`` converts it at the run's mean package power.  An
    estimate, not a measurement: it tells you when the observer effect
    is big enough to distrust a comparison.
    """

    runtime: str
    events: int
    per_event_seconds: float
    seconds: float
    joules: float

    def one_line(self) -> str:
        return (
            f"estimated profiling overhead: {self.seconds:.6f} s, "
            f"{self.joules:.6f} J over {self.events} events "
            f"(runtime={self.runtime}, "
            f"{self.per_event_seconds * 1e6:.3f} µs/event)"
        )
