"""Tests for the ``pepo bench sweep`` gate: golden findings and the
parallel-scaling floor over the current serial sweep."""

import json
from contextlib import contextmanager

import pytest

from repro.analyzer import Analyzer
from repro.bench import sweep
from repro.bench.sweep import (
    SweepBenchError,
    SweepBenchResult,
    build_golden,
    frozen_corpus,
    golden_drift,
    load_golden,
    min_parallel_speedup,
    run_sweep_bench,
)
from repro.semantics import SEMANTICS_VERSION

SOURCES = {
    "join.py": "def join(rows):\n    out = ''\n    for row in rows:\n"
    "        out += str(row)\n    return out\n",
    "pkg/hits.py": "def hits(n):\n    count = 0\n    for i in range(n):\n"
    "        if i % 8 == 0:\n            count += 1\n    return count\n",
    "clean.py": "VALUE = 1\n",
}

#: What the analyzer must find in SOURCES, written out by hand.
EXPECTED_BY_FILE = {
    "clean.py": [],
    "join.py": [[4, 8, "R08_STR_CONCAT"]],
    "pkg/hits.py": [[4, 11, "R05_MODULUS"]],
}


@pytest.fixture()
def project(tmp_path):
    root = tmp_path / "project"
    for name, text in SOURCES.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text, encoding="utf-8")
    return root


@pytest.fixture()
def golden(project):
    record = build_golden(Analyzer().analyze_project(project), project)
    assert record["by_file"] == EXPECTED_BY_FILE
    assert (record["files"], record["findings"]) == (3, 2)
    return record


def bench_as_frozen(monkeypatch, tmp_path, project, record):
    """The default bench, with ``project`` standing in for the frozen
    corpus and ``record`` for the committed golden."""
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(record), encoding="utf-8")

    @contextmanager
    def stand_in():
        yield project

    monkeypatch.setattr(sweep, "GOLDEN_PATH", path)
    monkeypatch.setattr(sweep, "frozen_corpus", stand_in)
    return run_sweep_bench(jobs=1, repeats=1)


class TestGolden:
    def test_matching_golden_meets_target(self, monkeypatch, tmp_path, project, golden):
        result = bench_as_frozen(monkeypatch, tmp_path, project, golden)
        assert result.deterministic and result.golden_drift == []
        assert result.meets_target()

    def test_flipped_entry_fails_the_gate(self, monkeypatch, tmp_path, project, golden):
        golden["by_file"]["join.py"] = [[4, 8, "R05_MODULUS"]]
        result = bench_as_frozen(monkeypatch, tmp_path, project, golden)
        assert result.deterministic
        assert result.golden_drift[0].startswith("join.py: golden")
        assert not result.meets_target()
        assert "DRIFTED WITHOUT A VERSION BUMP" in sweep.render_sweep_bench(result)

    def test_detail_only_drift_is_caught_by_the_digest(self, project, golden):
        golden["findings_sha256"] = "0" * 64
        drift = golden_drift(golden, Analyzer().analyze_project(project), project)
        assert len(drift) == 1 and drift[0].startswith("findings_sha256")

    def test_stale_header_raises_regenerate(self, monkeypatch, tmp_path, project, golden):
        golden["semantics_version"] = SEMANTICS_VERSION + 1
        with pytest.raises(SweepBenchError, match="golden is stale, regenerate"):
            bench_as_frozen(monkeypatch, tmp_path, project, golden)

    def test_no_golden_for_another_project(self, project):
        result = run_sweep_bench(project, jobs=1, repeats=1)
        assert result.golden_drift is None and result.meets_target()


class TestScalingFloor:
    def fixed(self, jobs, parallel_s):
        timings = {"serial_cold": 1.0, "parallel_cold": parallel_s,
                   "cache_cold": 1.0, "cache_warm": 0.1}
        return SweepBenchResult(project="p", files=1, findings=0, jobs=jobs,
                                timings=timings, deterministic=True)

    def test_floor_grows_with_jobs_and_is_absent_at_one(self):
        assert min_parallel_speedup(1) is None
        assert self.fixed(1, parallel_s=5.0).meets_target()
        floors = [min_parallel_speedup(jobs) for jobs in (2, 4, 8)]
        assert 1.0 < floors[0] < floors[1] < floors[2]

    def test_parallel_path_running_serially_fails(self):
        assert not self.fixed(2, parallel_s=1.0).meets_target()
        assert self.fixed(2, parallel_s=0.5).meets_target()


class TestFrozenCorpus:
    def test_missing_commit_names_project_flag(self, monkeypatch):
        monkeypatch.setattr(sweep, "PINNED_COMMIT", "0" * 40)
        with pytest.raises(SweepBenchError, match="--project"):
            with frozen_corpus():
                pass

    def test_pinned_snapshot_matches_committed_golden(self):
        golden = load_golden(sweep.GOLDEN_PATH)
        try:
            with frozen_corpus() as corpus:
                drift = golden_drift(golden, Analyzer().analyze_project(corpus), corpus)
        except SweepBenchError as exc:  # a source tarball or shallow clone
            pytest.skip(str(exc))
        assert drift == []
        assert (golden["files"], golden["findings"]) == (162, 840)
