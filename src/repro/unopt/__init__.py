"""Deliberately unoptimized classifier variants — the Table IV baseline.

The paper refactors WEKA per JEPO's suggestions and compares against
the stock version.  Our library *is* the refactored version; this
package supplies the "before" side: subclasses whose genuine hot-path
subroutines are re-implemented with exactly the anti-patterns of
Table I (string ``+=`` accumulation, module-global reads in loops,
modulus bookkeeping, element-wise copies, column-major traversal,
ternaries and boxed scalars in loops).

The anti-pattern code lives in :mod:`repro.unopt.slow_ops` — it is real
Python that our own analyzer flags (see the integration tests), not a
sleep-based mock.  Which subroutine each classifier deoptimizes follows
its algorithmic profile, so the Table IV improvement *shape* emerges
naturally: ensemble bookkeeping runs per tree (Random Forest → largest
win), while Logistic/SMO spend their time inside scipy/numpy kernels
the suggestions cannot touch (→ near-zero win), matching the paper.

:mod:`repro.unopt.narrow` reproduces the accuracy-drop column: the
paper's refactor narrowed ``double→float``/``long→int``, which cost
Random Tree 0.48 % accuracy; :class:`Float32Narrowed` applies the same
narrowing to our optimized models.
"""

__all__ = [
    "Float32Narrowed",
    "NARROWED_CLASSIFIERS",
    "UNOPT_REGISTRY",
    "make_optimized",
]

_CLASSIFIER_EXPORTS = {
    "UNOPT_REGISTRY": "repro.unopt.classifiers",
    "Float32Narrowed": "repro.unopt.narrow",
    "NARROWED_CLASSIFIERS": "repro.unopt.narrow",
    "make_optimized": "repro.unopt.narrow",
}


def __getattr__(name: str):
    # Lazy exports: the classifier baselines need numpy, which
    # ``import repro.unopt`` alone must not.
    module = _CLASSIFIER_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)
