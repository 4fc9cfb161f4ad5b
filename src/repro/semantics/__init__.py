"""Per-module semantic model shared by every analyzer rule.

The paper's Table I suggestions are purely syntactic; ours were too
until this layer.  ``build_semantic_model`` computes the fact tables
once per file and hands them to every rule through the analysis
context:

* **scopes** — symbol tables for module/class/function/comprehension
  scopes; every ``ast.Name`` resolves to local / nonlocal / global /
  builtin / import, so rules stop guessing binding kinds from
  hand-rolled walks (:mod:`repro.semantics.scopes`);
* **types** — lightweight inference over literals, annotations and
  intra-scope assignment propagation yielding ``str | int | float |
  list | … | unknown``, so string/array rules only fire when operand
  types support the claim (:mod:`repro.semantics.types`);
* **hotness** — static loop-nesting depth per node, multiplied into
  each finding's ``confidence`` score
  (:mod:`repro.semantics.hotness`);
* **cfg** — per-function control-flow graphs covering branches,
  loops with ``else``, ``try``/``except``/``finally``, ``with``,
  ``match``, and boolean short-circuit (:mod:`repro.semantics.cfg`);
* **dataflow** — worklist solvers over those CFGs: reaching
  definitions, liveness, and per-program-point type states that
  replace the whole-scope type table wherever flow matters
  (:mod:`repro.semantics.dataflow`);
* **purity / call graph** — conservative side-effect analysis
  fixpointed over the intra-module call graph, which also propagates
  hotness interprocedurally so helpers called from hot loops rank as
  hot (:mod:`repro.semantics.purity`).

Every layer — scopes, types, hotness, CFG + dataflow units and the
purity pass — materializes lazily on first query.

``SEMANTICS_VERSION`` is folded into the sweep-cache fingerprint so
cached results produced without (or by an older) semantic layer are
invalidated exactly when the layer changes.
"""

from repro.semantics.cfg import CFG, build_cfg
from repro.semantics.dataflow import (
    Definition,
    Liveness,
    ReachingDefinitions,
    TypeFlow,
)
from repro.semantics.hotness import compute_hotness
from repro.semantics.model import SemanticModel, build_semantic_model
from repro.semantics.purity import FunctionEffects, PurityCallGraph
from repro.semantics.scopes import Binding, BindingKind, ScopeKind, ScopeTable
from repro.semantics.types import TYPE_UNKNOWN

#: Bump whenever scope/type/hotness/flow semantics change observable
#: rule behavior; invalidates stale sweep-cache entries.
#: 2: flow-sensitive layer (CFG, reaching defs, type states, purity,
#:    interprocedural hotness).
SEMANTICS_VERSION = 2

__all__ = [
    "Binding",
    "BindingKind",
    "CFG",
    "Definition",
    "FunctionEffects",
    "Liveness",
    "PurityCallGraph",
    "ReachingDefinitions",
    "ScopeKind",
    "ScopeTable",
    "SemanticModel",
    "SEMANTICS_VERSION",
    "TYPE_UNKNOWN",
    "TypeFlow",
    "build_cfg",
    "build_semantic_model",
    "compute_hotness",
]
