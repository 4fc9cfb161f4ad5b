"""Bit-exactness parity: numpy fast paths vs the pure-Python loops.

Every fast path introduced by the columnar-analytics work —
``ProfileResult.aggregate()``, ``read_result_txt``'s batch float
conversion, the vectorized ``materialize_concurrent`` replay, and the
run store's reductions — must produce *identical* results to the pure
loop it replaces: equal dataclasses, repr-identical floats, and
byte-for-byte equal ``result.txt`` output.  ``PEPO_PURE_PYTHON=1``
forces every fast path off, so each test runs the same workload twice
with the variable toggled and compares.

The module also runs numpy-free (CI proves it): the toggled runs then
both take the pure path — still a valid regression test for the
fallback — and the store/numpy-only cases skip.
"""

import random
import threading

import pytest

from repro.profiler.fastpath import PURE_ENV, numpy_or_none
from repro.profiler.records import (
    MethodRecord,
    ProfileResult,
    aggregate_records_pure,
)
from repro.profiler.runtime import (
    OP_CLOSE,
    OP_OPEN,
    materialize_concurrent,
    snapshot_row,
)
from repro.profiler.tracer import EnergyTracer
from repro.rapl.backends import EnergySnapshot, SimulatedBackend, VirtualClock
from repro.rapl.domains import Domain

try:
    import numpy
except ImportError:
    numpy = None

requires_numpy = pytest.mark.skipif(
    numpy is None, reason="fast path under test needs numpy"
)


@pytest.fixture
def force_pure(monkeypatch):
    """Callable that flips the PEPO_PURE_PYTHON override on or off."""

    def flip(on: bool) -> None:
        if on:
            monkeypatch.setenv(PURE_ENV, "1")
        else:
            monkeypatch.delenv(PURE_ENV, raising=False)

    yield flip
    monkeypatch.delenv(PURE_ENV, raising=False)


def _random_result(seed: int, n: int = 400) -> ProfileResult:
    """Deterministic record soup: many methods, contexts, suspects."""
    rng = random.Random(seed)
    result = ProfileResult()
    counts: dict[str, int] = {}
    for _ in range(n):
        method = f"pkg.mod{rng.randrange(4)}.fn{rng.randrange(25)}"
        ci = counts.get(method, 0)
        counts[method] = ci + 1
        thread = rng.choice([0, 0, 4401, 4402])
        result.add(
            MethodRecord(
                method=method,
                filename="app.py",
                lineno=rng.randrange(500),
                call_index=ci,
                wall_seconds=rng.random(),
                cpu_seconds=rng.random(),
                joules={
                    Domain.PACKAGE: rng.random() * 7,
                    Domain.PP0: rng.random(),
                },
                exclusive_joules={Domain.PACKAGE: rng.random() * 3},
                suspect=rng.random() < 0.1,
                thread_id=thread,
                thread_name="w" if thread else "",
                task_name=rng.choice(["", "", "fetch"]),
                pid=rng.choice([0, 0, 0, 777]),
            )
        )
    return result


def _assert_aggregates_identical(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        # Dataclass equality, then repr: repr distinguishes floats that
        # == cannot (-0.0 vs 0.0) — the bit-exactness claim.
        assert a == b
        assert repr(a) == repr(b)


class TestAggregateParity:
    def test_matches_pure_loop(self):
        result = _random_result(1)
        _assert_aggregates_identical(
            result.aggregate(), result.aggregate_pure()
        )

    def test_matches_pure_loop_by_context(self):
        result = _random_result(2)
        _assert_aggregates_identical(
            result.aggregate(by_context=True),
            result.aggregate_pure(by_context=True),
        )

    def test_env_forces_fallback(self, force_pure):
        result = _random_result(3)
        force_pure(True)
        assert numpy_or_none() is None
        assert result.columns() is None
        forced = result.aggregate()
        force_pure(False)
        _assert_aggregates_identical(result.aggregate(), forced)

    @requires_numpy
    def test_columns_cached_and_invalidated(self):
        result = _random_result(4)
        first = result.columns()
        assert first is not None
        assert result.columns() is first  # cached
        result.add(
            MethodRecord(
                method="late.fn",
                filename="f.py",
                lineno=1,
                call_index=0,
                wall_seconds=0.1,
                cpu_seconds=0.1,
                joules={Domain.PACKAGE: 1.0},
                exclusive_joules={},
            )
        )
        rebuilt = result.columns()
        assert rebuilt is not first
        assert len(rebuilt) == len(first) + 1

    def test_merge_is_lazy_and_equivalent(self):
        # merge() must not re-aggregate per call (O(total), not
        # O(N·records)); equivalence with a flat extend is the
        # observable contract.
        parts = [_random_result(seed) for seed in range(5, 10)]
        merged = ProfileResult()
        flat = ProfileResult()
        for part in parts:
            merged.merge(part)
            flat.extend(list(part))
        assert list(merged) == list(flat)
        _assert_aggregates_identical(merged.aggregate(), flat.aggregate())


class TestReadResultTxtParity:
    def _write(self, tmp_path, seed=11):
        path = tmp_path / "result.txt"
        _random_result(seed).write_result_txt(path)
        return path

    def test_round_trip_bytes_identical(self, tmp_path, force_pure):
        path = self._write(tmp_path)
        original = path.read_bytes()
        force_pure(True)
        pure = ProfileResult.read_result_txt(path)
        force_pure(False)
        fast = ProfileResult.read_result_txt(path)
        assert list(fast) == list(pure)
        out_fast = tmp_path / "fast.txt"
        out_pure = tmp_path / "pure.txt"
        fast.write_result_txt(out_fast)
        pure.write_result_txt(out_pure)
        assert out_fast.read_bytes() == out_pure.read_bytes()
        assert out_fast.read_bytes() == original

    @pytest.mark.parametrize("bad", ["nan", "-1.5", "inf", "-inf"])
    @pytest.mark.parametrize(
        "column, field_index",
        [("package_joules", 3), ("core_joules", 4)],
    )
    def test_rejects_bad_energy_identically(
        self, tmp_path, force_pure, bad, column, field_index
    ):
        path = self._write(tmp_path)
        lines = path.read_text().splitlines()
        # Corrupt the 3rd data line, sparing the header comment.
        data_lines = [
            i for i, line in enumerate(lines)
            if line and not line.startswith("#")
        ]
        target = data_lines[2]
        parts = lines[target].split("\t")
        parts[field_index] = bad
        lines[target] = "\t".join(parts)
        path.write_text("\n".join(lines) + "\n")

        messages = []
        for pure in (True, False):
            force_pure(pure)
            with pytest.raises(ValueError) as excinfo:
                ProfileResult.read_result_txt(path)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        assert f":{target + 1}:" in messages[0]
        assert column in messages[0]
        assert "finite non-negative" in messages[0]

    def test_unparseable_float_identical_message(
        self, tmp_path, force_pure
    ):
        path = self._write(tmp_path)
        lines = path.read_text().splitlines()
        data_lines = [
            i for i, line in enumerate(lines)
            if line and not line.startswith("#")
        ]
        target = data_lines[1]
        parts = lines[target].split("\t")
        parts[1] = "bogus"
        lines[target] = "\t".join(parts)
        path.write_text("\n".join(lines) + "\n")
        messages = []
        for pure in (True, False):
            force_pure(pure)
            with pytest.raises(ValueError) as excinfo:
                ProfileResult.read_result_txt(path)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        assert f":{target + 1}:" in messages[0]
        assert "could not parse" in messages[0]
        assert "bogus" in messages[0]

    def test_accepts_zero_energy(self, tmp_path, force_pure):
        path = tmp_path / "result.txt"
        path.write_text(
            "# method\twall_seconds\tcpu_seconds\tpackage_joules\t"
            "core_joules\nm\t0.1\t0.1\t0.000000000\t0.000000000\n"
        )
        for pure in (True, False):
            force_pure(pure)
            (record,) = list(ProfileResult.read_result_txt(path))
            assert record.package_joules == 0.0


# -- concurrent replay parity ------------------------------------------


def _conservation_workload(tracer, backend):
    """The TestConservation mix: owner, threads, tasks, idle burn."""
    import asyncio

    clock = backend.clock

    def leaf(dt):
        clock.advance(dt)

    def middle_traced(dt):
        clock.advance(dt / 2)
        leaf(dt)

    async def work_traced(dt):
        clock.advance(dt)
        await asyncio.sleep(0)
        clock.advance(dt)

    async def loop_main():
        await asyncio.gather(
            asyncio.Task(work_traced(0.001), name="c-a"),
            asyncio.Task(work_traced(0.002), name="c-b"),
        )

    with tracer:
        middle_traced(0.004)
        for i in range(4):
            thread = threading.Thread(
                target=middle_traced, args=(0.001 * (i + 1),), name=f"t{i}"
            )
            thread.start()
            thread.join()
        asyncio.run(loop_main())
        clock.advance(0.003)


_TRACED = ("_traced", ".gen_", "leaf", "spin")


def _tracer(backend, **follow):
    return EnergyTracer(
        backend,
        predicate=lambda name: any(p in name for p in _TRACED),
        runtime="settrace",
        estimate_overhead=False,
        **follow,
    )


def _canonical(records):
    """Records normalized for cross-run comparison.

    The workload is deterministic under a VirtualClock *except* for the
    kernel-assigned thread idents, which differ between the two traced
    runs (and are even *recycled* across sequential start/join pairs, so
    rank-by-ident is unstable too).  Thread names are deterministic here,
    so idents are replaced by the name's first-seen rank and the list is
    sorted on a stable key.  Every float must still match exactly.
    """
    import dataclasses

    names = sorted({r.thread_name for r in records})
    ranks = {name: i for i, name in enumerate(names)}
    out = [
        dataclasses.replace(r, thread_id=ranks[r.thread_name])
        for r in records
    ]
    out.sort(
        key=lambda r: (r.method, r.thread_name, r.task_name, r.call_index)
    )
    return out


class TestConcurrentReplayParity:
    def _run_workload(self):
        backend = SimulatedBackend(clock=VirtualClock())
        tracer = _tracer(
            backend, follow_threads=True, follow_tasks=True
        )
        _conservation_workload(tracer, backend)
        return tracer.result

    def test_full_workload_bit_exact(self, force_pure, tmp_path):
        force_pure(True)
        pure = self._run_workload()
        force_pure(False)
        fast = self._run_workload()
        assert _canonical(list(fast)) == _canonical(list(pure))
        assert fast.timeline_joules == pure.timeline_joules
        assert fast.unattributed_joules == pure.unattributed_joules
        assert repr(fast.timeline_joules) == repr(pure.timeline_joules)
        assert repr(fast.unattributed_joules) == repr(
            pure.unattributed_joules
        )
        out_fast = tmp_path / "fast.txt"
        out_pure = tmp_path / "pure.txt"
        canon_fast = ProfileResult()
        canon_fast.extend(_canonical(list(fast)))
        canon_pure = ProfileResult()
        canon_pure.extend(_canonical(list(pure)))
        canon_fast.write_result_txt(out_fast)
        canon_pure.write_result_txt(out_pure)
        assert out_fast.read_bytes() == out_pure.read_bytes()


class TestSyntheticReplayParity:
    """Adversarial buffers straight into :func:`materialize_concurrent`.

    The tracer never produces some of these shapes on a friendly
    workload — failed reads, domains appearing mid-run, calls still
    open at stop — so they are driven directly.  The replay does not
    mutate the buffers, letting one set of states run both paths.
    """

    def _state(self, ident: int, name: str, is_owner: bool = False):
        from repro.profiler.runtime import _ThreadState

        state = _ThreadState(threading.current_thread(), is_owner)
        state.ident = ident
        state.name = name
        state.buffer = []
        return state

    def _snap(self, wall, pkg=None, core=None, cpu=0.0):
        joules = {}
        if pkg is not None:
            joules[Domain.PACKAGE] = pkg
        if core is not None:
            joules[Domain.PP0] = core
        return EnergySnapshot(
            joules=joules, wall_seconds=wall, cpu_seconds=cpu
        )

    def _replay_both(
        self, force_pure, states, final, final_ok, metadata, task_names=()
    ):
        results = {}
        for pure in (True, False):
            force_pure(pure)
            results[pure] = materialize_concurrent(
                states,
                final,
                final_ok,
                metadata,
                lambda payloads: [
                    snapshot_row(p if p is not None else self._snap(0.0))
                    for p in payloads
                ],
                {},
                list(task_names),
            )
        return results[True], results[False]

    def _assert_replays_identical(self, pure, fast):
        assert fast.records == pure.records
        for a, b in zip(fast.records, pure.records):
            assert repr(a) == repr(b)
        assert repr(fast.timeline_joules) == repr(pure.timeline_joules)
        assert repr(fast.unattributed_joules) == repr(
            pure.unattributed_joules
        )
        assert repr(fast.timeline_cpu_seconds) == repr(
            pure.timeline_cpu_seconds
        )

    def test_failed_reads_and_idle_gaps(self, force_pure):
        owner = self._state(0, "main", is_owner=True)
        worker = self._state(42, "w", is_owner=False)
        meta = [("own.fn", "a.py", 1), ("wrk.fn", "b.py", 2)]
        owner.buffer = [
            (OP_OPEN, 0, True, self._snap(0.0, 1.0, 0.5, cpu=0.1)),
            (OP_CLOSE, 0, True, self._snap(1.0, 2.5, 0.9, cpu=0.2)),
        ]
        worker.buffer = [
            (OP_OPEN, 1, False, self._snap(1.5, 3.0, 1.0, cpu=0.3)),
            (OP_CLOSE, 1, True, self._snap(2.0, 3.5, 1.2, cpu=0.4)),
        ]
        final = self._snap(3.0, 4.0, 1.5, cpu=0.6)
        pure, fast = self._replay_both(
            force_pure, [owner, worker], final, True, meta
        )
        self._assert_replays_identical(pure, fast)
        assert len(pure.records) == 2

    def test_domain_appears_mid_run(self, force_pure):
        owner = self._state(0, "main", is_owner=True)
        meta = [("own.fn", "a.py", 1)]
        # PP0 only exists from the second reading on; the first gap
        # must treat it as present-in-later-snapshot (key parity).
        owner.buffer = [
            (OP_OPEN, 0, True, self._snap(0.0, 1.0)),
            (OP_OPEN, 0, True, self._snap(0.5, 1.5, 0.2, cpu=0.1)),
            (OP_CLOSE, 0, True, self._snap(1.0, 2.0, 0.4, cpu=0.2)),
            (OP_CLOSE, 0, True, self._snap(1.5, 2.5, 0.6, cpu=0.3)),
        ]
        final = self._snap(2.0, 3.0, 0.8, cpu=0.4)
        pure, fast = self._replay_both(
            force_pure, [owner], final, True, meta
        )
        self._assert_replays_identical(pure, fast)

    def test_open_at_stop_and_failed_final(self, force_pure):
        owner = self._state(0, "main", is_owner=True)
        worker = self._state(7, "w")
        meta = [("own.fn", "a.py", 1), ("wrk.fn", "b.py", 2)]
        owner.buffer = [
            (OP_OPEN, 0, True, self._snap(0.0, 1.0, 0.1, cpu=0.1)),
        ]
        worker.buffer = [
            (OP_OPEN, 1, True, self._snap(0.5, 1.2, 0.2, cpu=0.2)),
        ]
        final = self._snap(1.0, 1.4, 0.3, cpu=0.3)
        for final_ok in (True, False):
            pure, fast = self._replay_both(
                force_pure, [owner, worker], final, final_ok, meta
            )
            self._assert_replays_identical(pure, fast)
            assert len(pure.records) == 2  # both closed against final

    def test_interleaved_threads_with_tasks(self, force_pure):
        owner = self._state(0, "main", is_owner=True)
        w1 = self._state(11, "w1")
        w2 = self._state(22, "w2")
        meta = [("own.fn", "a.py", 1), ("t.fn", "b.py", 2)]
        owner.buffer = [
            (OP_OPEN, 0, True, self._snap(0.0, 1.0, cpu=0.1), 0),
            (OP_CLOSE, 0, True, self._snap(3.0, 9.0, cpu=0.9), 0),
        ]
        w1.buffer = [
            (OP_OPEN, 1, True, self._snap(0.5, 2.0, cpu=0.2), 1),
            (OP_CLOSE, 1, True, self._snap(1.5, 4.0, cpu=0.4), 1),
        ]
        w2.buffer = [
            (OP_OPEN, 1, True, self._snap(1.0, 3.0, cpu=0.3), -1),
            (OP_CLOSE, 1, True, self._snap(2.5, 7.0, cpu=0.7), -1),
        ]
        final = self._snap(4.0, 11.0, cpu=1.1)
        pure, fast = self._replay_both(
            force_pure, [owner, w1, w2], final, True, meta,
            task_names=["alpha", "beta"],
        )
        self._assert_replays_identical(pure, fast)
        tasks = {r.task_name for r in pure.records}
        assert "alpha" in tasks and "beta" in tasks

    def test_masked_events_everywhere(self, force_pure):
        # Every read failed: gaps all masked, deltas come from the
        # final snapshot only, nothing may crash or diverge.
        owner = self._state(0, "main", is_owner=True)
        meta = [("own.fn", "a.py", 1)]
        owner.buffer = [
            (OP_OPEN, 0, False, None),
            (OP_CLOSE, 0, False, None),
        ]
        pure, fast = self._replay_both(
            force_pure, [owner], self._snap(1.0, 2.0, cpu=0.5), False, meta
        )
        self._assert_replays_identical(pure, fast)


# -- store reductions (numpy required) ----------------------------------


@requires_numpy
class TestStoreParity:
    def test_store_aggregate_matches_pure(self, tmp_path):
        from repro.store import RunColumns

        result = _random_result(21)
        cols = RunColumns.from_records(list(result))
        pure = aggregate_records_pure(list(result))
        pure.sort(key=lambda a: a.package_joules, reverse=True)
        _assert_aggregates_identical(cols.aggregate(), pure)

    def test_from_result_txt_matches_read(self, tmp_path):
        from repro.store import RunColumns

        path = tmp_path / "result.txt"
        _random_result(22).write_result_txt(path)
        cols = RunColumns.from_result_txt(path)
        records = list(ProfileResult.read_result_txt(path))
        pure = aggregate_records_pure(records)
        pure.sort(key=lambda a: a.package_joules, reverse=True)
        _assert_aggregates_identical(cols.aggregate(), pure)
        by_context = aggregate_records_pure(records, by_context=True)
        by_context.sort(key=lambda a: a.package_joules, reverse=True)
        _assert_aggregates_identical(
            cols.aggregate(by_context=True), by_context
        )

    def test_cross_run_concat_matches_merged_result(self, tmp_path):
        from repro.store import RunStore

        parts = [_random_result(seed, n=150) for seed in (31, 32, 33)]
        store = RunStore(tmp_path / "store")
        for i, part in enumerate(parts):
            store.ingest_result(part, label=f"r{i}")
        merged = ProfileResult()
        for part in parts:
            merged.merge(part)
        cols, run_ids = store.load_all()
        pure = aggregate_records_pure(list(merged))
        pure.sort(key=lambda a: a.package_joules, reverse=True)
        _assert_aggregates_identical(cols.aggregate(), pure)
        assert len(run_ids) == len(cols)

    def test_store_rejects_bad_energy_like_reader(self, tmp_path):
        from repro.store import RunColumns

        path = tmp_path / "result.txt"
        path.write_text(
            "# method\twall_seconds\tcpu_seconds\tpackage_joules\t"
            "core_joules\nm\t0.1\t0.1\tnan\t0.0\n"
        )
        with pytest.raises(ValueError) as store_err:
            RunColumns.from_result_txt(path)
        with pytest.raises(ValueError) as reader_err:
            ProfileResult.read_result_txt(path)
        assert str(store_err.value) == str(reader_err.value)
