"""Self-tests of the benchmark: ``python3 -m pytest perfbench``.

They check that inputs are reproducible, that every oracle rejects a
planted wrong result, and that ``BENCHMARK.json`` and the metric map
agree and use valid names.
"""

from __future__ import annotations

import json
import re
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
from corpus import (  # noqa: E402
    TEMPLATES, Block, SourceFile, generate_corpus,
)
from project import generate_project, result_txt_counts  # noqa: E402
from workloads import run_functions  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def every_template() -> SourceFile:
    return SourceFile("all.py", [Block(t.name, i) for i, t in enumerate(TEMPLATES)])


class TestDeterminism:
    def test_corpus_is_byte_identical_per_seed(self):
        a, b = generate_corpus(11), generate_corpus(11)
        assert [(f.relpath, f.render()) for f in a.files] == [
            (f.relpath, f.render()) for f in b.files
        ]

    def test_corpus_depends_on_seed(self):
        a, b = generate_corpus(11), generate_corpus(12)
        assert [f.render() for f in a.files] != [f.render() for f in b.files]

    def test_corpus_size_does_not_depend_on_seed(self):
        assert generate_corpus(1).loc() == generate_corpus(2).loc()

    def test_project_is_byte_identical_per_seed(self):
        assert generate_project(5) == generate_project(5)
        assert generate_project(5).source != generate_project(6).source


class TestInputs:
    def test_every_template_runs(self):
        results = run_functions(every_template().render())
        assert len(results) == len(TEMPLATES)

    def test_quiet_files_contain_no_trigger(self):
        from repro.rules import REGISTRY

        triggers = {
            trigger
            for cls in REGISTRY.detector_classes(extended=True)
            for trigger in (getattr(cls, "triggers", None) or ())
        }
        for f in generate_corpus(3).files:
            if f.quiet_text is not None:
                text = f.render()
                assert not [t for t in triggers if t in text], f.relpath

    def test_templates_match_pepo(self):
        from repro.analyzer import Analyzer

        source = every_template()
        kept, silenced = Analyzer(extended=True).analyze_source_full(
            source.render(), filename="all.py"
        )
        verdict = oracle.check_findings(
            source, [(f.rule_id, f.line) for f in kept], True
        )
        assert verdict.unexpected == []
        assert sorted((f.rule_id, f.line) for f in silenced) == (
            source.expected_suppressed()
        )

    def test_every_rule_fires(self):
        from repro.rules import REGISTRY

        fired = {rule for rule, _ in every_template().expected()}
        assert fired == {
            cls.rule_id for cls in REGISTRY.detector_classes(extended=True)
        }


class TestOraclesRejectPlantedErrors:
    def test_extra_finding(self):
        source = every_template()
        got = source.expected() + [("R05_MODULUS", 2)]
        assert oracle.check_findings(source, got, True).unexpected

    def test_missing_finding(self):
        source = every_template()
        assert oracle.check_findings(source, source.expected()[1:], True).unexpected

    def test_known_defect_is_reported_not_failed(self):
        # Header (1 line) + gap (2 lines) + offset 5 of the template.
        source = SourceFile("f.py", [Block("counter_rebind", 1)])
        verdict = oracle.check_findings(source, [("R08_STR_CONCAT", 8)], True)
        assert verdict.unexpected == []
        assert verdict.known == Counter({"R08_LONGHAND_REBIND_FP": 1})
        assert verdict.disagreed

    def test_known_defect_needs_its_exact_line(self):
        source = SourceFile("f.py", [Block("counter_rebind", 1)])
        assert oracle.check_findings(source, [("R08_STR_CONCAT", 7)], True).unexpected

    def test_after_fix_extra_rule(self):
        source = SourceFile("f.py", [Block("quiet", 1)])
        assert oracle.check_after_fix(source, Counter({"R06_TERNARY": 1}), False).unexpected

    def test_off_by_one_call_count(self):
        project = generate_project(3)
        counts = project.probe_counts.copy()
        counts[next(iter(counts))] += 1
        assert oracle.check_profile_counts(counts, project.probe_counts, "x").unexpected
        assert not oracle.check_profile_counts(
            project.probe_counts.copy(), project.probe_counts, "x"
        ).unexpected

    def test_result_txt_reader(self, tmp_path):
        path = tmp_path / "result.txt"
        path.write_text("# header\na.f\t1\t1\t1\t1\na.f\t1\t1\t1\t1\tthread=3\nb.g\t1\t1\t1\t1\n")
        assert result_txt_counts(path) == Counter({"a.f": 2, "b.g": 1})

    def test_rewrite_that_changes_a_return_value(self):
        source = SourceFile("f.py", [Block("literals", 1)]).render()
        mutated = source.replace("range(64)", "range(63)")
        assert run_functions(source) != run_functions(mutated)

    def test_sarif_with_an_extra_result(self):
        found = {"a.py": [("R05_MODULUS", 3)]}
        result = {"ruleId": "R05_MODULUS", "locations": [{"physicalLocation": {
            "artifactLocation": {"uri": "a.py"}, "region": {"startLine": 3}}}]}
        assert not oracle.check_sarif({"runs": [{"results": [result]}]}, found).unexpected
        assert oracle.check_sarif({"runs": [{"results": [result, result]}]}, found).unexpected

    def test_energy_not_conserved(self):
        class Result:
            timeline_joules = {"package": 2.0}

            def __init__(self, unattributed):
                self.unattributed_joules = {"package": unattributed}

            def __iter__(self):
                return iter([SimpleNamespace(exclusive_joules={"package": 1.0})])

        assert oracle.check_conservation(Result(0.5)).unexpected
        assert not oracle.check_conservation(Result(1.0)).unexpected


class TestSpec:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_map = json.loads((HERE / "metrics.json").read_text())

    def test_metric_names_are_valid_and_unique(self):
        names = [m["name"] for m in self.spec["end_to_end"] + self.spec["per_layer"]]
        names += [w["name"] for w in self.spec["workloads"]]
        assert len(names) == len(set(names))
        assert all(NAME.match(n) for n in names)

    def test_spec_follows_the_benchmark_contract(self):
        spec = self.spec
        assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
        assert 2 <= len(spec["workloads"]) <= 8
        assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
                   for w in spec["workloads"])
        assert 1 <= len(spec["per_layer"]) <= 128
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        assert bounds["setup_s"] == max(bounds.values()) <= 0.25
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        for m in spec["end_to_end"] + spec["per_layer"]:
            assert unit.match(m["unit"]) and m["better"] in ("higher", "lower")

    def test_map_covers_every_per_layer_metric(self):
        assert set(self.metric_map["per_layer"]) == {
            m["name"] for m in self.spec["per_layer"]
        }
        assert set(self.metric_map["end_to_end"]) == {
            m["name"] for m in self.spec["end_to_end"]
        }
        workloads = {w["name"] for w in self.spec["workloads"]}
        e2e = set(self.metric_map["end_to_end"])
        for entry in self.metric_map["per_layer"].values():
            for move in entry["moves"]:
                assert move["workload"] in workloads
                assert move["metric"] in e2e or move["metric"] in self.metric_map["per_layer"]

    def test_benchmark_does_not_use_the_vendored_analyzer(self):
        for path in HERE.glob("*.py"):
            if path.name != Path(__file__).name:
                assert "unopt" not in path.read_text(), path.name
