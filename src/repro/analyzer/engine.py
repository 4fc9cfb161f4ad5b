"""Analyzer engine: traversal, project sweeps, and the dynamic mode.

JEPO works two ways: the *optimizer* button statically analyzes every
class in a project (Fig. 5), and the editor view re-analyzes "in
real-time … while writing code" (Fig. 2).  :class:`Analyzer` is the
static sweep; :class:`DynamicAnalyzer` is the incremental re-analysis
with per-edit finding deltas.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.analyzer.findings import Finding
from repro.analyzer.rules import AnalysisContext, Rule
from repro.analyzer.rules.base import collect_function_info
from repro.analyzer.suppress import apply_suppressions
from repro.semantics import build_semantic_model
from repro.semantics._astutil import child_nodes, memoized_children

_FUNCTION_NODE_SET = frozenset((ast.FunctionDef, ast.AsyncFunctionDef))
_LOOP_NODE_SET = frozenset((ast.For, ast.AsyncFor, ast.While))


class Analyzer:
    """Runs a set of rules over sources, files and directory trees.

    Parameters
    ----------
    rules:
        Explicit rule classes; default is every detector in the rule
        registry (runtime-registered rules included).  The rule set —
        and the dispatch/pre-filter indexes derived from it — is
        frozen at construction: an ``Analyzer`` may be reused across
        any number of ``analyze_*`` calls, but rules registered with
        the registry *afterwards* are only picked up by a fresh
        ``Analyzer``.
    extended:
        Also run the extension rules (paper future work: R14, R15).
    honor_suppressions:
        Drop findings on lines carrying ``# pepo: ignore[...]`` comments
        (default True; disable to audit suppressed code).
    registry:
        Registry supplying the default rule set; the process-wide
        :data:`repro.rules.REGISTRY` when omitted.
    prefilter:
        Skip rules (and, when every rule is skipped, the whole
        semantic model and traversal) for files containing none of a
        rule's declared trigger substrings.  Triggers are necessary
        conditions, so output is byte-identical either way; disable
        only to benchmark the unfiltered path.
    """

    def __init__(
        self,
        rules: Sequence[type[Rule]] | None = None,
        extended: bool = False,
        honor_suppressions: bool = True,
        registry=None,
        prefilter: bool = True,
    ) -> None:
        registry_fingerprint = ""
        if rules is None:
            if registry is None:
                from repro.rules import REGISTRY as registry
            rules = registry.detector_classes(extended=extended)
            registry_fingerprint = registry.fingerprint()
        self._rule_classes: tuple[type[Rule], ...] = tuple(rules)
        self._rules: list[Rule] = [rule_class() for rule_class in rules]
        self._honor_suppressions = honor_suppressions
        self._registry_fingerprint = registry_fingerprint
        self._prefilter = prefilter
        # Per-rule trigger sets, aligned with self._rules; the mask with
        # every rule active is what a disabled prefilter always returns.
        self._triggers: tuple[tuple[str, ...] | None, ...] = tuple(
            getattr(rule, "triggers", None) for rule in self._rules
        )
        self._all_active: int = (1 << len(self._rules)) - 1
        # (active-rule bitmask, concrete AST class) -> matching rules,
        # filled lazily; a sweep sees only a handful of distinct masks.
        self._dispatch: dict[tuple[int, type], tuple[Rule, ...]] = {}
        # Accounting from the most recent analyze_project sweep.
        self.last_sweep_stats: "SweepStats | None" = None
        self.last_quarantine: "QuarantineReport | None" = None
        # Self-profile of the most recent sweep (SweepOptions.self_profile).
        self.last_profile = None

    @property
    def rule_ids(self) -> tuple[str, ...]:
        return tuple(rule.rule_id for rule in self._rules)

    # -- single-source analysis -----------------------------------------

    def analyze_source(self, source: str, filename: str = "<string>") -> list[Finding]:
        """All findings for one source string, sorted by location."""
        kept, _suppressed = self.analyze_source_full(source, filename=filename)
        return kept

    def analyze_source_full(
        self, source: str, filename: str = "<string>"
    ) -> tuple[list[Finding], list[Finding]]:
        """``(kept, suppressed)`` findings for one source string.

        The suppressed list carries provenance: which findings were
        silenced by ``# pepo: ignore[...]`` comments (empty when the
        analyzer was built with ``honor_suppressions=False`` — then
        everything is kept).
        """
        # Parse before pre-filtering: a broken file must raise
        # SyntaxError whether or not any rule would have run on it.
        tree = ast.parse(source, filename=filename)
        active = self._active_rules(source)
        if not active:
            return [], []
        # The tree is immutable from here to the end of the walk, and
        # every semantic layer plus the engine traversal re-reads the
        # same child lists — share them for the duration.
        with memoized_children():
            semantics = build_semantic_model(tree, filename=filename)
            ctx = AnalysisContext(
                filename=filename, source=source, tree=tree, semantics=semantics
            )
            findings: list[Finding] = []
            self._walk(tree, ctx, findings, active)
        suppressed: list[Finding] = []
        if self._honor_suppressions:
            findings, suppressed = apply_suppressions(
                findings, source, tree=tree
            )
        findings.sort()
        suppressed.sort()
        return findings, suppressed

    def analyze_file(self, path: str | Path) -> list[Finding]:
        path = Path(path)
        return self.analyze_source(
            path.read_text(encoding="utf-8"), filename=str(path)
        )

    def analyze_project(
        self,
        project_dir: str | Path,
        *,
        jobs: int | None = None,
        cache: bool = False,
        cache_dir: str | Path | None = None,
        exclude: Sequence[str] = (),
        options: "SweepOptions | None" = None,
    ) -> dict[str, list[Finding]]:
        """Findings per file for every ``.py`` under ``project_dir``.

        Unparseable, unreadable, or non-UTF-8 files map to an empty
        list (JEPO shows an empty view rather than failing the sweep).
        The sweep runs through :class:`repro.sweep.SweepEngine`:
        ``jobs`` fans files out over worker processes (output stays
        byte-identical to serial), ``cache`` reuses on-disk results for
        files whose content and rule set are unchanged, ``exclude``
        adds glob patterns on top of the default exclude set
        (``__pycache__/``, ``.pepo_cache/``, VCS and venv directories),
        and ``options`` tunes supervision (per-file timeout, retry
        budget, resume; see :class:`repro.sweep.SweepOptions`).  Files
        quarantined after repeated crashes/hangs map to an empty list
        and are listed in :attr:`last_quarantine`; sweep accounting is
        in :attr:`last_sweep_stats`.
        """
        from repro.sweep import SweepEngine

        engine = SweepEngine(
            jobs=jobs,
            cache=cache,
            cache_dir=cache_dir,
            exclude=exclude,
            options=options,
        )
        results = engine.run(project_dir, self._sweep_job())
        self.last_sweep_stats = engine.last_stats
        self.last_quarantine = engine.last_quarantine
        self.last_profile = engine.last_profile
        return results

    def _sweep_job(self):
        """The picklable per-file work unit for project sweeps."""
        from repro.sweep import AnalyzeJob

        return AnalyzeJob(
            rule_classes=self._rule_classes,
            honor_suppressions=self._honor_suppressions,
            registry_fingerprint=self._registry_fingerprint,
            prefilter=self._prefilter,
        )

    # -- pre-filter ------------------------------------------------------

    def _active_rules(self, source: str) -> int:
        """Bitmask of rules whose triggers can match this source.

        One combined scan: each distinct trigger substring is searched
        at most once per file (C-speed ``in``), shared across rules,
        with early exit per rule on the first hit.  A rule declaring
        no triggers is always active.
        """
        if not self._prefilter:
            return self._all_active
        present: dict[str, bool] = {}
        mask = 0
        bit = 1
        for triggers in self._triggers:
            if triggers is None:
                mask |= bit
            else:
                for trigger in triggers:
                    hit = present.get(trigger)
                    if hit is None:
                        hit = present[trigger] = trigger in source
                    if hit:
                        mask |= bit
                        break
            bit <<= 1
        return mask

    # -- traversal -------------------------------------------------------

    def _rules_for(self, node_type: type, active: int) -> tuple[Rule, ...]:
        """Active rules whose ``interested_types`` cover this AST class.

        Memoized per (active-rule mask, concrete node class): after the
        first few nodes of a sweep every ``_check`` is one dict hit
        instead of dispatching all rules against all ~30 node types a
        module actually uses.
        """
        try:
            return self._dispatch[(active, node_type)]
        except KeyError:
            matched = tuple(
                rule
                for index, rule in enumerate(self._rules)
                if (active >> index) & 1
                and (
                    rule.interested_types is None
                    or issubclass(node_type, rule.interested_types)
                )
            )
            self._dispatch[(active, node_type)] = matched
            return matched

    def _check(
        self,
        node: ast.AST,
        ctx: AnalysisContext,
        out: list[Finding],
        active: int | None = None,
    ) -> None:
        if active is None:
            active = self._all_active
        for rule in self._rules_for(type(node), active):
            out.extend(rule.check(node, ctx))

    def _walk(
        self,
        node: ast.AST,
        ctx: AnalysisContext,
        out: list[Finding],
        active: int | None = None,
    ) -> None:
        """Pre-order traversal driving every rule check.

        One iterative pass with an explicit stack — the recursion this
        replaces paid two Python frames per node.  Tuple sentinels on
        the stack restore the loop/function context when a subtree is
        done: ``(0,)`` pops a loop, ``(1, saved)`` pops a function and
        restores the definition site's loop stack.
        """
        if active is None:
            active = self._all_active
        rules_for = self._rules_for
        stack: list = list(reversed(child_nodes(node)))
        while stack:
            current = stack.pop()
            cls = current.__class__
            if cls is tuple:
                if current[0] == 0:
                    ctx.loop_stack.pop()
                else:
                    ctx.function_stack.pop()
                    ctx.loop_stack = current[1]
                continue
            for rule in rules_for(cls, active):
                out.extend(rule.check(current, ctx))
            if cls in _FUNCTION_NODE_SET:
                # A function body is a fresh execution context: loops
                # enclosing the *definition* do not re-run its body.
                stack.append((1, ctx.loop_stack))
                ctx.loop_stack = []
                ctx.function_stack.append(
                    collect_function_info(current, ctx)
                )
            elif cls in _LOOP_NODE_SET:
                ctx.loop_stack.append(current)
                stack.append((0,))
            stack.extend(reversed(child_nodes(current)))


def analyze_source(source: str, filename: str = "<string>") -> list[Finding]:
    """Module-level convenience using all rules."""
    return Analyzer().analyze_source(source, filename=filename)


@dataclass(frozen=True)
class FindingDelta:
    """What changed between two analyses of the same buffer."""

    added: tuple[Finding, ...]
    removed: tuple[Finding, ...]
    unchanged: tuple[Finding, ...]


class DynamicAnalyzer:
    """Incremental re-analysis for editor integration (Fig. 2).

    Feed successive buffer contents to :meth:`update`; each call
    returns the full finding list plus the delta against the previous
    state.  A buffer that currently fails to parse keeps the previous
    findings (half-typed code should not blank the suggestions view).
    """

    def __init__(self, filename: str = "<buffer>", analyzer: Analyzer | None = None) -> None:
        self.filename = filename
        self._analyzer = analyzer or Analyzer()
        self._findings: list[Finding] = []
        self._last_good_source: str | None = None
        self._last_digest: str | None = None

    @property
    def findings(self) -> list[Finding]:
        return list(self._findings)

    @property
    def last_good_source(self) -> str | None:
        """The last buffer that parsed (and therefore produced
        :attr:`findings`), or ``None`` before the first parseable
        update.  While the current buffer is mid-edit and broken, this
        is the source the displayed findings actually describe — the
        anchor an editor needs for "apply suggestion" on stale
        positions.
        """
        return self._last_good_source

    def update(self, source: str) -> FindingDelta:
        # Editors call this per keystroke, including keystrokes that do
        # not change the buffer (cursor saves, repeated autosaves).  A
        # source-hash match means the previous answer still holds —
        # skip the re-parse and return an all-unchanged delta.
        digest = hashlib.sha256(
            source.encode("utf-8", "surrogatepass")
        ).hexdigest()
        if digest == self._last_digest:
            return FindingDelta(
                added=(), removed=(), unchanged=tuple(self._findings)
            )
        self._last_digest = digest
        try:
            new = self._analyzer.analyze_source(source, filename=self.filename)
        except SyntaxError:
            return FindingDelta(added=(), removed=(), unchanged=tuple(self._findings))
        old_keys = {self._key(f): f for f in self._findings}
        new_keys = {self._key(f): f for f in new}
        added = tuple(f for k, f in new_keys.items() if k not in old_keys)
        removed = tuple(f for k, f in old_keys.items() if k not in new_keys)
        unchanged = tuple(f for k, f in new_keys.items() if k in old_keys)
        self._findings = new
        self._last_good_source = source
        return FindingDelta(added=added, removed=removed, unchanged=unchanged)

    @staticmethod
    def _key(finding: Finding) -> tuple:
        # Line numbers shift as code is edited; key on rule + snippet so
        # an unchanged pattern that moved lines is not reported as new.
        return (finding.rule_id, finding.snippet)
