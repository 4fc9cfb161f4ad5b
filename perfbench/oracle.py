"""Oracles that judge PEPO's outputs without running PEPO code.

Every disagreement with an oracle is reported.  A disagreement that
matches an entry of :data:`KNOWN_DEFECTS` exactly — same template, same
rule, same direction, same line — is a documented defect of PEPO at the
commit the benchmark was written against: it still counts towards
``failed_op_share``, and it is listed by id in the run's output, but it
does not mark the run incorrect.  Any other disagreement does.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from corpus import SourceFile


@dataclass(frozen=True)
class KnownDefect:
    id: str
    phase: str  # "sweep": findings of a generated file; "fix": after a rewrite
    template: str
    rule: str
    kind: str  # "extra": PEPO reports it, "missing": PEPO does not
    offset: int | None
    why: str


KNOWN_DEFECTS: tuple[KnownDefect, ...] = (
    KnownDefect(
        "R08_LONGHAND_REBIND_FP", "sweep", "counter_rebind", "R08_STR_CONCAT",
        "extra", 5,
        "`label = label + i` on an int counter (str sentinel rebound to 0 "
        "before the loop) is flagged; the `+=` spelling is not, because "
        "type_at gives 'unknown' for the loop-carried longhand sum.",
    ),
    KnownDefect(
        "R08_LONGHAND_REBIND_FP", "fix", "counter_rebind", "R08_STR_CONCAT",
        "extra", None, "The same false positive, seen after a rewrite.",
    ),
    KnownDefect(
        "HOIST_HIDES_R01", "fix", "numeric", "R01_NUMERIC_TYPE", "missing",
        None,
        "The R04 global hoist renames Decimal to _local_Decimal; R01 matches "
        "constructor names, so Decimal built per iteration is no longer "
        "reported as unfixable.",
    ),
    KnownDefect(
        "HOIST_HIDES_R03", "fix", "boxing", "R03_BOXING", "missing", None,
        "The R04 global hoist renames np to _local_np; R03 then no longer "
        "sees np.float64 built per iteration.",
    ),
)


@dataclass
class Verdict:
    """Disagreements of one operation with its oracles."""

    unexpected: list[str] = field(default_factory=list)
    known: Counter = field(default_factory=Counter)

    @property
    def disagreed(self) -> bool:
        return bool(self.unexpected or self.known)

    def merge(self, other: "Verdict") -> "Verdict":
        self.unexpected.extend(other.unexpected)
        self.known.update(other.known)
        return self

    def fail(self, message: str) -> None:
        self.unexpected.append(message)


def _known(phase: str, template: str | None, rule: str, kind: str,
           offset: int | None) -> KnownDefect | None:
    for defect in KNOWN_DEFECTS:
        if (defect.phase == phase and defect.template == template
                and defect.rule == rule and defect.kind == kind
                and defect.offset in (None, offset)):
            return defect
    return None


def check_findings(
    source: SourceFile, got: list[tuple[str, int]], extended: bool
) -> Verdict:
    """A file's ``(rule_id, line)`` findings against its templates."""
    verdict = Verdict()
    expected = Counter(source.expected(extended))
    actual = Counter(got)
    for kind, diff in (("extra", actual - expected), ("missing", expected - actual)):
        for (rule, line), n in diff.items():
            where = source.template_at(line)
            template, offset = where if where else (None, None)
            defect = _known("sweep", template, rule, kind, offset)
            if defect is not None:
                verdict.known[defect.id] += n
            else:
                verdict.fail(f"{source.relpath}:{line} {kind} {rule} x{n}")
    return verdict


def check_after_fix(source: SourceFile, got: Counter, extended: bool) -> Verdict:
    """A rewritten file's rule-id multiset against its templates."""
    verdict = Verdict()
    expected = source.expected_after_fix(extended)
    templates = source.template_counts()
    for kind, diff in (("extra", got - expected), ("missing", expected - got)):
        for rule, n in diff.items():
            # A known defect explains at most one finding per block of
            # its template in the file.
            defects = [d for d in KNOWN_DEFECTS
                       if d.phase == "fix" and d.rule == rule and d.kind == kind]
            explained = min(n, sum(templates[d.template] for d in defects))
            if explained:
                verdict.known[defects[0].id] += explained
            if n > explained:
                verdict.fail(f"{source.relpath} after fix: {kind} {rule} x{n - explained}")
    return verdict


def check_sarif(sarif: dict, findings: dict[str, list[tuple[str, int]]]) -> Verdict:
    """SARIF results must be exactly the sweep's findings."""
    verdict = Verdict()
    got = Counter()
    for run in sarif["runs"]:
        for result in run["results"]:
            location = result["locations"][0]["physicalLocation"]
            uri = location["artifactLocation"]["uri"]
            got[(result["ruleId"], uri, location["region"]["startLine"])] += 1
    want = Counter(
        (rule, rel, line) for rel, items in findings.items() for rule, line in items
    )
    if got != want:
        verdict.fail(f"SARIF differs from the sweep: {sum((got - want).values())} "
                     f"extra, {sum((want - got).values())} missing")
    return verdict


def check_profile_counts(got: Counter, expected: Counter, what: str) -> Verdict:
    verdict = Verdict()
    if got != expected:
        extra, missing = sorted((got - expected).items()), sorted((expected - got).items())
        verdict.fail(f"{what}: call counts differ, extra {extra[:3]}, missing {missing[:3]}")
    return verdict


def check_conservation(result) -> Verdict:
    """Σ exclusive + unattributed energy equals the timeline total."""
    verdict = Verdict()
    if not result.timeline_joules:
        verdict.fail("tracer path recorded no timeline")
    for domain, total in result.timeline_joules.items():
        exclusive = math.fsum(r.exclusive_joules.get(domain, 0.0) for r in result)
        unattributed = result.unattributed_joules.get(domain, 0.0)
        if not math.isclose(exclusive + unattributed, total,
                            rel_tol=1e-9, abs_tol=1e-12):
            verdict.fail(f"energy not conserved on {domain}: {exclusive} + "
                         f"{unattributed} != {total}")
    return verdict
