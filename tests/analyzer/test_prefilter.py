"""Pre-filter parity: trigger-filtered output is byte-identical to
unfiltered output.

The interest pre-filter may only ever skip work, never change answers:
a rule's ``triggers`` are *necessary* substrings, so any file the
filter rejects for a rule cannot contain that rule's pattern.  These
tests hold that contract three ways — a hypothesis property over
generated programs, byte-for-byte parity over a fixture corpus of real
repo sources, and directed edge cases (trigger-free files, broken
files, suppression comments).
"""

import ast
import json
import keyword
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analyzer import Analyzer
from repro.rules import REGISTRY

#: Snippets that trip different rules via different trigger substrings,
#: so generated programs exercise many distinct pre-filter masks.
_SNIPPETS = (
    "    acc = ''\n    for i in range(n):\n        acc += str(i)\n",
    "    hits = 0\n    for i in range(n):\n"
    "        if i % 8 == 0:\n            hits += 1\n",
    "    flips = 0\n    for i in range(n):\n"
    "        step = 1 if i % 3 else 2\n        flips += step\n",
    "    out = [0] * n\n    for i in range(len(out)):\n"
    "        out[i] = i\n",
    "    total = 0\n    for i in range(n):\n        total += i * KF\n",
    "    vals = []\n    for i in range(n):\n        vals.append(i)\n",
    "    pass\n",
)


@st.composite
def mixed_program(draw):
    """A module mixing trigger-rich function bodies with benign code."""
    bodies = draw(
        st.lists(st.sampled_from(_SNIPPETS), min_size=1, max_size=4)
    )
    parts = ["KF = 3\n"]
    for index, body in enumerate(bodies):
        parts.append(f"def fn_{index}(n):\n{body}")
    if draw(st.booleans()):
        parts.append("CONSTANT = 'just text'\n")
    return "\n".join(parts)


#: Identifier triggers of every rule (``Decimal``, ``float64``, ``find``,
#: ``append``, ``KeyError``, ...) become callees and methods; keyword and
#: operator triggers (``for``, ``else``, ``%``, ``+=``, ``0``, ...) come
#: from the statement templates of :func:`trigger_soup`.
_WORDS = sorted(
    {
        trigger
        for rule in REGISTRY.detector_classes(extended=True)
        for trigger in (getattr(rule, "triggers", None) or ())
        if trigger.isidentifier() and not keyword.iskeyword(trigger)
    }
)
_NAMES = st.sampled_from(("acc", "xs", "i", "n", "text"))
_EXPR = st.recursive(
    _NAMES | st.sampled_from(("0", "8", "0.5", "1e-06", "''", "[]")),
    lambda e: st.one_of(
        st.builds("({} {} {})".format, e, st.sampled_from("+-*%<"), e),
        st.builds("({} if {} else {})".format, e, e, e),
        st.builds("{}({})".format, st.sampled_from(_WORDS), e),
        st.builds("({}).{}({})".format, e, st.sampled_from(_WORDS), e),
        st.builds("{}[{}]".format, e, e),
    ),
    max_leaves=5,
)


def _compound(statement):
    body = st.lists(statement, min_size=1, max_size=3).map(
        lambda lines: "\n".join(
            "    " + line for text in lines for line in text.splitlines()
        )
    )
    errors = st.sampled_from([w for w in _WORDS if w.endswith("Error")])
    return st.one_of(
        st.builds("for {} in {}:\n{}".format, _NAMES, _EXPR, body),
        st.builds("for {} in range(len({})):\n{}".format, _NAMES, _NAMES, body),
        st.builds("while {}:\n{}".format, _EXPR, body),
        st.builds("if {}:\n{}\nelse:\n{}".format, _EXPR, body, body),
        st.builds("try:\n{}\nexcept {}:\n{}".format, body, errors, body),
        st.builds("def fn(xs, n):\n{}\n    return {}".format, body, _NAMES),
    )


def trigger_soup():
    """Random modules built only from parseable statement templates
    seeded with every rule's triggers, normalized by ``ast.unparse``."""
    statement = st.recursive(
        st.one_of(
            st.builds("{} = {}".format, _NAMES, _EXPR),
            st.builds("{} {} {}".format, _NAMES, st.sampled_from(("+=", "%=")), _EXPR),
            st.builds("{}.append({})".format, _NAMES, _EXPR),
        ),
        _compound,
        max_leaves=8,
    )
    return st.lists(statement, min_size=1, max_size=4).map(
        lambda lines: ast.unparse(ast.parse("\n".join(lines)))
    )


def _as_bytes(findings) -> bytes:
    return json.dumps([f.to_dict() for f in findings]).encode()


class TestPrefilterParityProperty:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(program=mixed_program())
    def test_generated_programs_identical(self, program):
        filtered = Analyzer(extended=True).analyze_source(program)
        unfiltered = Analyzer(
            extended=True, prefilter=False
        ).analyze_source(program)
        assert _as_bytes(filtered) == _as_bytes(unfiltered)

    @settings(max_examples=25, deadline=None)
    @given(text=trigger_soup())
    def test_parseable_soup_identical(self, text):
        filtered = Analyzer(extended=True).analyze_source(text)
        unfiltered = Analyzer(
            extended=True, prefilter=False
        ).analyze_source(text)
        assert _as_bytes(filtered) == _as_bytes(unfiltered)


class TestPrefilterParityFixtureCorpus:
    def test_rule_sources_byte_identical(self):
        # The rule implementations themselves are a trigger-dense real
        # corpus (every trigger string appears in them *as code*), and
        # the flow fixtures are curated false-positive bait.
        repo_root = Path(__file__).parents[2]
        corpus = sorted(
            (repo_root / "src" / "repro" / "analyzer" / "rules").glob("*.py")
        ) + sorted(
            (Path(__file__).parent / "fixtures" / "flow").glob("*.py")
        )
        assert len(corpus) >= 15
        filtered_analyzer = Analyzer(extended=True)
        unfiltered_analyzer = Analyzer(extended=True, prefilter=False)
        for path in corpus:
            source = path.read_text(encoding="utf-8")
            assert _as_bytes(
                filtered_analyzer.analyze_source(source, str(path))
            ) == _as_bytes(
                unfiltered_analyzer.analyze_source(source, str(path))
            ), path


class TestPrefilterEdgeCases:
    def test_trigger_free_file_yields_empty(self):
        source = "VALUE = 1\nOTHER = VALUE\n"
        assert Analyzer().analyze_source(source) == []
        assert Analyzer(prefilter=False).analyze_source(source) == []

    def test_broken_file_raises_even_when_all_rules_filtered(self):
        # Parsing happens before filtering: a syntax error must not be
        # masked by "no rule could match anyway".
        with pytest.raises(SyntaxError):
            Analyzer().analyze_source("VALUE = = 1\n")

    def test_suppressions_still_honored_with_prefilter(self):
        source = (
            "def f(xs):\n"
            "    s = ''\n"
            "    for x in xs:\n"
            "        s += x  # pepo: ignore[R08_STR_CONCAT]\n"
            "    return s\n"
        )
        kept = Analyzer().analyze_source(source)
        assert all(f.rule_id != "R08_STR_CONCAT" for f in kept)
