"""Sweep jobs: the per-file work units the engine fans out.

A job is a small, *picklable* description of what to do to one file —
rule/transform classes are carried by reference (module + qualname), so
a ``ProcessPoolExecutor`` worker can reconstruct the real ``Analyzer``
or ``Optimizer`` in its own process via the pool initializer.  Results
cross the process boundary (and land in the on-disk cache) as plain
JSON payloads; :meth:`SweepJob.decode` rebuilds the rich objects on the
parent side.

Payloads never embed the file path: the cache key is content-addressed,
so one entry serves identical content at any path, and the decoding
side stamps the current path onto findings/results.

Findings cross the worker boundary (and land in the cache) in a
*compact* form — one flat positional row per finding instead of a
13-key dict — because on a cold sweep the parent deserializes every
finding from every worker, and key strings dominated that payload.
:func:`decode_finding` still accepts the dict form, so journals or
payloads produced by the dict codec decode identically.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analyzer.findings import Finding, Severity
from repro.semantics import SEMANTICS_VERSION
from repro.sweep.cache import CACHE_FORMAT

if TYPE_CHECKING:
    from repro.optimizer.rewriter import OptimizationResult


# -- finding / change codecs ---------------------------------------------


def encode_finding(finding: Finding) -> dict:
    """JSON-able form of a finding, path omitted (content-addressed)."""
    return {
        "line": finding.line,
        "col": finding.col,
        "rule_id": finding.rule_id,
        "component": finding.component,
        "message": finding.message,
        "suggestion": finding.suggestion,
        "severity": finding.severity.name,
        "overhead_percent": finding.overhead_percent,
        "snippet": finding.snippet,
        "confidence": finding.confidence,
        "hot_depth": finding.hot_depth,
        "caller_hotness": finding.caller_hotness,
        "pure_context": finding.pure_context,
    }


def encode_finding_compact(finding: Finding) -> list:
    """Wire form of a finding: one flat positional row.

    Field order matches :func:`encode_finding`'s key order and is part
    of the cache format — reordering or appending fields requires a
    ``CACHE_FORMAT`` bump.
    """
    return [
        finding.line,
        finding.col,
        finding.rule_id,
        finding.component,
        finding.message,
        finding.suggestion,
        finding.severity.name,
        finding.overhead_percent,
        finding.snippet,
        finding.confidence,
        finding.hot_depth,
        finding.caller_hotness,
        finding.pure_context,
    ]


def decode_finding(payload: "dict | list", file: str) -> Finding:
    """Rebuild a finding from either wire form.

    Accepts the compact positional row (what sweeps produce now) and
    the legacy key/value dict (journals and third-party payloads built
    with :func:`encode_finding`); both decode to the same object.
    """
    if isinstance(payload, list):
        return Finding(
            file=file,
            line=payload[0],
            col=payload[1],
            rule_id=payload[2],
            component=payload[3],
            message=payload[4],
            suggestion=payload[5],
            severity=Severity[payload[6]],
            overhead_percent=payload[7],
            snippet=payload[8],
            confidence=payload[9],
            hot_depth=payload[10],
            caller_hotness=payload[11],
            pure_context=payload[12],
        )
    return Finding(
        file=file,
        line=payload["line"],
        col=payload["col"],
        rule_id=payload["rule_id"],
        component=payload["component"],
        message=payload["message"],
        suggestion=payload["suggestion"],
        severity=Severity[payload["severity"]],
        overhead_percent=payload["overhead_percent"],
        snippet=payload["snippet"],
        confidence=payload["confidence"],
        # .get: cache entries written before the flow-sensitive layer
        # decode to the neutral defaults instead of raising.
        hot_depth=payload.get("hot_depth", 0),
        caller_hotness=payload.get("caller_hotness", 0),
        pure_context=payload.get("pure_context", False),
    )


def _class_token(cls: type) -> tuple:
    # Triggers are folded in for the same reason as ``version``: a rule
    # whose pre-filter triggers changed may run on a different set of
    # files, so cached results for it are stale.
    return (
        cls.__module__,
        cls.__qualname__,
        getattr(cls, "version", 1),
        getattr(cls, "triggers", None),
    )


def _digest(parts: object) -> str:
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


# -- job protocol ---------------------------------------------------------


class SweepJob:
    """Interface the engine drives; implementations are dataclasses."""

    #: Cache namespace (subdirectory under ``.pepo_cache/``).
    kind: str

    def fingerprint(self) -> str:
        """Stable digest of everything besides file content that can
        change this job's output (rule set, options, payload format)."""
        raise NotImplementedError

    def build(self) -> object:
        """Construct the per-process worker state (runs once per worker
        via the pool initializer, or once in-process for serial runs)."""
        raise NotImplementedError

    def run(self, processor: object, path: str, source: str) -> dict:
        """Process one file's source; returns a JSON-able payload."""
        raise NotImplementedError

    def decode(self, path: str, payload: dict) -> object:
        """Rebuild the rich result; ``None`` drops the file from the
        sweep (the optimizer's legacy skip-on-syntax-error behavior)."""
        raise NotImplementedError


@dataclass(frozen=True)
class AnalyzeJob(SweepJob):
    """One analyzer pass per file (``pepo suggest`` on a directory)."""

    rule_classes: tuple[type, ...]
    honor_suppressions: bool = True
    registry_fingerprint: str = ""
    #: Forwarded to :class:`~repro.analyzer.engine.Analyzer`.  It is
    #: fingerprinted: the pre-filter is designed to be output-invisible
    #: but a cache must not assume the design holds — flipping the flag
    #: recomputes rather than replaying the other mode's entries.
    prefilter: bool = True

    kind = "analyze"

    def fingerprint(self) -> str:
        return _digest(
            (
                self.kind,
                CACHE_FORMAT,
                SEMANTICS_VERSION,
                self.registry_fingerprint,
                tuple(_class_token(cls) for cls in self.rule_classes),
                self.honor_suppressions,
                self.prefilter,
            )
        )

    def build(self) -> object:
        from repro.analyzer.engine import Analyzer

        return Analyzer(
            rules=self.rule_classes,
            honor_suppressions=self.honor_suppressions,
            prefilter=self.prefilter,
        )

    def run(self, processor, path: str, source: str) -> dict:
        try:
            findings = processor.analyze_source(source, filename=path)
        except SyntaxError:
            return {"error": "syntax"}
        return {"findings": [encode_finding_compact(f) for f in findings]}

    def decode(self, path: str, payload: dict) -> list[Finding]:
        if "error" in payload:
            # JEPO shows an empty view rather than failing the sweep.
            return []
        return [decode_finding(item, path) for item in payload["findings"]]


@dataclass(frozen=True)
class OptimizeJob(SweepJob):
    """One optimizer pass per file (``pepo optimize`` on a directory).

    Carries the detector classes and the set of auto-fixable rule ids
    explicitly (instead of a registry object) so the whole job stays
    picklable: workers rebuild the "detected but not auto-fixable"
    report from these without needing the parent's registry instance.
    """

    transform_classes: tuple[type, ...]
    detector_classes: tuple[type, ...]
    fixable_rule_ids: frozenset[str]
    max_passes: int = 4
    report_unfixable: bool = True
    registry_fingerprint: str = ""

    kind = "optimize"

    def fingerprint(self) -> str:
        return _digest(
            (
                self.kind,
                CACHE_FORMAT,
                SEMANTICS_VERSION,
                self.registry_fingerprint,
                tuple(_class_token(cls) for cls in self.transform_classes),
                tuple(_class_token(cls) for cls in self.detector_classes),
                tuple(sorted(self.fixable_rule_ids)),
                self.max_passes,
                self.report_unfixable,
            )
        )

    def build(self) -> object:
        from repro.analyzer.engine import Analyzer
        from repro.optimizer.rewriter import Optimizer

        optimizer = Optimizer(
            transforms=self.transform_classes,
            max_passes=self.max_passes,
            report_unfixable=False,
        )
        analyzer = (
            Analyzer(rules=self.detector_classes)
            if self.report_unfixable
            else None
        )
        return (optimizer, analyzer)

    def run(self, processor, path: str, source: str) -> dict:
        optimizer, analyzer = processor
        try:
            result = optimizer.optimize_source(source, filename=path)
        except SyntaxError:
            return {"error": "syntax"}
        unfixable: list = []
        if analyzer is not None:
            unfixable = [
                encode_finding_compact(f)
                for f in analyzer.analyze_source(result.optimized, filename=path)
                if f.rule_id not in self.fixable_rule_ids
            ]
        return {
            "original": result.original,
            "optimized": result.optimized,
            "changes": [dataclasses.asdict(change) for change in result.changes],
            "unfixable": unfixable,
        }

    def decode(self, path: str, payload: dict) -> "OptimizationResult | None":
        if "error" in payload:
            # Legacy sweep behavior: unprocessable files are skipped.
            return None
        from repro.optimizer.rewriter import OptimizationResult
        from repro.optimizer.transforms.base import AppliedChange

        return OptimizationResult(
            filename=path,
            original=payload["original"],
            optimized=payload["optimized"],
            changes=tuple(
                AppliedChange(**change) for change in payload["changes"]
            ),
            unfixable=tuple(
                decode_finding(item, path) for item in payload["unfixable"]
            ),
        )
