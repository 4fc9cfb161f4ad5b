"""Seeded source-corpus generator with hand-written expected findings.

A corpus is a tree of ``.py`` files of two kinds:

* *dense* files, a sequence of template blocks drawn from
  :data:`TEMPLATES`.  Every template is a small, runnable module
  fragment with a ``run_<k>()`` entry point and a hand-written list of
  the ``(rule_id, line_offset)`` findings PEPO must report for it.
  Together the templates make every rule of the extended set fire,
  including the flow-gated ones, next to blocks whose findings the flow
  facts must veto;
* *quiet* files of module-level constants that contain none of any
  rule's trigger substrings, so the analyzer's pre-filter skips them.

File sizes are heavy-tailed (Pareto).  The expected findings of a file
are the union of its blocks' findings shifted to the block's first
line, so the oracle never runs PEPO code.  The same seed regenerates
byte-identical files.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

# Corpus size, the same for every seed: about 13 KLoC in 140 files.  A
# cold check of it takes about 1.3 s on two CPUs, so a 20-s run holds
# 14-17 checks for the median, and the traced run of every path stays
# well inside its time limit.
#: Dense files and the template blocks spread over them.
DENSE_FILES = 100
BLOCKS = 1200
#: Quiet files and their lines.
QUIET_FILES = 40
QUIET_LINES = 4000


@dataclass(frozen=True)
class Template:
    """One runnable block and the findings it must produce.

    ``findings`` lists ``(rule_id, line)`` with 1-based lines inside the
    block; ``suppressed`` lists findings silenced by a ``# pepo:
    ignore`` comment.  ``after_fix`` is the rule-id multiset PEPO must
    still report once ``Optimizer.optimize_source`` has rewritten the
    block (line numbers move in a rewrite, rule ids do not).
    """

    name: str
    text: str
    findings: tuple[tuple[str, int], ...]
    after_fix: tuple[str, ...]
    suppressed: tuple[tuple[str, int], ...] = ()

    def render(self, k: int) -> str:
        return self.text.replace("{k}", str(k))

    @property
    def lines(self) -> int:
        return self.text.count("\n")


def _t(name, text, findings, after_fix, suppressed=()):
    return Template(name, text.lstrip("\n"), tuple(findings), tuple(after_fix),
                    tuple(suppressed))


#: The extension rules, which run only with ``Analyzer(extended=True)``.
EXTENSION_RULES = frozenset(
    {"R14_APPEND_LOOP", "R15_RANGE_LEN", "R16_DEAD_STORE",
     "R17_INVARIANT_RECOMPUTE", "R18_PURE_MEMOIZE"}
)

TEMPLATES: tuple[Template, ...] = (
    _t("numeric", """
from decimal import Decimal


def run_{k}():
    total = Decimal(0)
    count = 0.0
    for i in range(1, 40):
        total += Decimal(i) / 4
        count += 1
    return str(total), count
""", [("R01_NUMERIC_TYPE", 8), ("R04_GLOBAL_IN_LOOP", 8),
      ("R01_NUMERIC_TYPE", 9)],
       ["R01_NUMERIC_TYPE", "R01_NUMERIC_TYPE"]),
    _t("literals", """
SCALE_{k} = 1000000.0


def run_{k}():
    tiny = 0.0000001
    acc = 0
    for i in range(64):
        if i % 8 == 0:
            acc += i
        acc += 1 if i > 10 else 2
    return acc * tiny * SCALE_{k}
""", [("R02_SCI_NOTATION", 1), ("R02_SCI_NOTATION", 5),
      ("R05_MODULUS", 8), ("R06_TERNARY", 10)],
       ["R06_TERNARY"]),
    _t("boxing", """
import numpy as np


def run_{k}():
    data = np.arange(32)
    out = 0.0
    for i in range(32):
        out += float(np.float64(data[i]) * 2)
    return out
""", [("R03_BOXING", 8), ("R04_GLOBAL_IN_LOOP", 8)],
       ["R03_BOXING"]),
    _t("globals", """
RATE_{k} = 3


def check_{k}(x):
    return x > 2


def run_{k}():
    total = 0
    flag = True
    for x in range(20):
        total += x * RATE_{k}
        if check_{k}(x) and flag:
            total -= 1
    return total
""", [("R04_GLOBAL_IN_LOOP", 12), ("R04_GLOBAL_IN_LOOP", 13),
      ("R07_SHORT_CIRCUIT", 13)],
       ["R07_SHORT_CIRCUIT"]),
    _t("strings", """
def run_{k}():
    words = ["alpha", "beta", "gamma", "delta"]
    out = ""
    for w in words:
        out += w
    hits = 0
    for w in words:
        if w.find("a") != -1:
            hits += 1
    return out, hits
""", [("R08_STR_CONCAT", 5), ("R09_STR_COMPARE", 8)],
       []),
    _t("copies", """
def run_{k}():
    src = [3, 1, 4, 1, 5, 9, 2, 6]
    dst = [0] * len(src)
    for i in range(len(src)):
        dst[i] = src[i]
    total = 0
    for i in range(len(src)):
        total += src[i]
    return dst, total
""", [("R10_ARRAY_COPY", 4), ("R15_RANGE_LEN", 7)],
       []),
    _t("traversal", """
def run_{k}():
    grid = [[i * j for j in range(6)] for i in range(5)]
    s = 0
    for j in range(6):
        for i in range(5):
            s += grid[i][j]
    return s
""", [("R11_TRAVERSAL", 6)],
       []),
    _t("exceptions", """
def run_{k}():
    table = {"a": 1, "b": 2}
    out = []
    for key in ["a", "b", "c"]:
        try:
            out.append(table[key])
        except KeyError:
            pass
    return out
""", [("R12_EXCEPTION_FLOW", 7)],
       ["R12_EXCEPTION_FLOW"]),
    _t("churn", """
import re


def run_{k}():
    lines = ["ab", "aab", "b", "aaab"]
    n = 0
    for line in lines:
        pat = re.compile("a+b")
        if pat.match(line):
            n += 1
    return n
""", [("R04_GLOBAL_IN_LOOP", 8), ("R13_OBJECT_CHURN", 8)],
       []),
    _t("append", """
def run_{k}():
    xs = list(range(10))
    out = []
    for x in xs:
        out.append(x * 3)
    return out
""", [("R14_APPEND_LOOP", 4)],
       ["R14_APPEND_LOOP"]),
    _t("dead_store", """
def run_{k}():
    rows = [1, 2, 3, 4]
    total = sum(r * 2 for r in rows)
    total = 0
    for r in rows:
        total += r
    return total
""", [("R16_DEAD_STORE", 3)],
       ["R16_DEAD_STORE"]),
    _t("invariant", """
def run_{k}():
    base = 7 * 2
    out = []
    for x in range(12):
        factor = base * base + 1
        out.append(x * factor)
    return out
""", [("R17_INVARIANT_RECOMPUTE", 5)],
       ["R17_INVARIANT_RECOMPUTE"]),
    _t("memoize", """
def cost_{k}(a):
    return a * 3 + 1


def run_{k}():
    a = 5
    out = []
    for x in range(15):
        out.append(x + cost_{k}(a))
    return out
""", [("R14_APPEND_LOOP", 8), ("R04_GLOBAL_IN_LOOP", 9),
      ("R18_PURE_MEMOIZE", 9)],
       ["R14_APPEND_LOOP", "R18_PURE_MEMOIZE"]),
    _t("suppressed", """
def run_{k}():
    names = ["x", "y", "z"]
    out = ""
    for n in names:
        out += n  # pepo: ignore[R08_STR_CONCAT]
    return out
""", [], [], suppressed=[("R08_STR_CONCAT", 5)]),
    _t("format_rebind", """
def run_{k}():
    parts = []
    for i in range(5):
        fmt = "%d-item"
        parts.append(fmt % i)
    return parts
""", [], []),
    _t("counter_rebind", """
def run_{k}():
    label = "n"
    label = 0
    for i in range(6):
        label = label + i
    return label
""", [], []),
    _t("chained", """
def grade_{k}(x):
    return "a" if x > 2 else "b" if x > 1 else "c"


def run_{k}():
    return [grade_{k}(v) for v in (1, 2, 3)]
""", [("R06_TERNARY", 2)],
       ["R06_TERNARY"]),
    _t("quiet", """
def run_{k}():
    values = [v * v for v in range(9)]
    total = sum(values)
    return total // 3
""", [], []),
)

TEMPLATE_BY_NAME = {t.name: t for t in TEMPLATES}

_HEADER = '"""Generated benchmark module."""\n'
_GAP = "\n\n"


@dataclass
class Block:
    template: str
    k: int


@dataclass
class SourceFile:
    """One generated file: its blocks (dense) or its text (quiet)."""

    relpath: str
    blocks: list[Block] = field(default_factory=list)
    quiet_text: str | None = None

    def render(self) -> str:
        if self.quiet_text is not None:
            return self.quiet_text
        parts = [_HEADER]
        for block in self.blocks:
            parts.append(_GAP)
            parts.append(TEMPLATE_BY_NAME[block.template].render(block.k))
        return "".join(parts)

    def expected(self, extended: bool = True) -> list[tuple[str, int]]:
        """Sorted ``(rule_id, line)`` findings this file must produce."""
        return sorted(
            (rule, line)
            for rule, line in self._located("findings")
            if extended or rule not in EXTENSION_RULES
        )

    def expected_suppressed(self) -> list[tuple[str, int]]:
        return sorted(self._located("suppressed"))

    def expected_after_fix(self, extended: bool = False) -> Counter:
        """Rule-id multiset once the optimizer has rewritten the file."""
        counts: Counter = Counter()
        for block in self.blocks:
            for rule in TEMPLATE_BY_NAME[block.template].after_fix:
                if extended or rule not in EXTENSION_RULES:
                    counts[rule] += 1
        return counts

    def template_at(self, line: int) -> tuple[str, int] | None:
        """``(template name, line offset)`` of the block holding ``line``."""
        for start, template in self._placed():
            if start < line <= start + template.lines:
                return template.name, line - start
        return None

    def template_counts(self) -> Counter:
        return Counter(block.template for block in self.blocks)

    def _located(self, attr: str) -> list[tuple[str, int]]:
        return [
            (rule, start + offset)
            for start, template in self._placed()
            for rule, offset in getattr(template, attr)
        ]

    def _placed(self):
        """``(line before the block, template)`` for every block."""
        line = _HEADER.count("\n")
        for block in self.blocks:
            line += _GAP.count("\n")
            template = TEMPLATE_BY_NAME[block.template]
            yield line, template
            line += template.lines


# Quiet files must avoid every trigger substring of every rule
# (``def``, ``for``, ``(``, ``0``, ``+``, ``%``, ``else`` …), so they
# are built from this alphabet only.
_QUIET_WORDS = (
    "alpha", "beta", "gamma", "delta", "kappa", "sigma", "theta", "omega",
    "lumen", "pixel", "quark", "mesh", "grid", "node", "edge", "sync",
)
_QUIET_DIGITS = "123456789"


def _quiet_line(rng: random.Random, i: int) -> str:
    word = rng.choice(_QUIET_WORDS)
    kind = rng.randrange(3)
    if kind == 0:
        value = "".join(rng.choice(_QUIET_DIGITS) for _ in range(rng.randint(1, 6)))
    elif kind == 1:
        value = repr(f"{word}-{rng.choice(_QUIET_WORDS)}")
    else:
        items = ", ".join(
            "".join(rng.choice(_QUIET_DIGITS) for _ in range(3))
            for _ in range(rng.randint(2, 6))
        )
        value = f"[{items}]"
    suffix = "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(4))
    return f"{word.upper()}_{suffix.upper()}_{_alpha(i)} = {value}\n"


def _alpha(i: int) -> str:
    """Digit-free unique token for index ``i`` (quiet files avoid ``0``)."""
    letters = "ABCDEFGHJKLMNPQRSTUVWXYZ"
    out = ""
    i += 1
    while i:
        i, r = divmod(i - 1, len(letters))
        out = letters[r] + out
    return out


def _heavy_tailed(rng: random.Random, total: int, parts: int, cap: int) -> list[int]:
    """``parts`` sizes in ``[1, cap]`` summing to ``total``, heavy-tailed.

    The sizes are the Pareto(1.2) quantiles at evenly spaced
    probabilities, so every seed sweeps the same size profile; the seed
    only decides which file gets which size.
    """
    weights = [(1.0 - (i + 0.5) / parts) ** (-1 / 1.2) for i in range(parts)]
    scale = total / sum(weights)
    sizes = [max(1, min(cap, round(w * scale))) for w in weights]
    i = 0
    while sum(sizes) != total:
        step = 1 if sum(sizes) < total else -1
        if 1 <= sizes[i % parts] + step <= cap:
            sizes[i % parts] += step
        i += 1
    rng.shuffle(sizes)
    return sizes


@dataclass
class Corpus:
    """A generated tree plus everything its oracles need."""

    files: list[SourceFile]
    next_k: int

    def by_path(self) -> dict[str, SourceFile]:
        return {f.relpath: f for f in self.files}

    def write(self, root: Path) -> None:
        root.mkdir(parents=True, exist_ok=True)
        for f in self.files:
            path = root / f.relpath
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(f.render(), encoding="utf-8")

    def loc(self) -> int:
        return sum(count_loc(f.render()) for f in self.files)


def count_loc(text: str) -> int:
    """Non-blank, non-comment lines."""
    return sum(
        1 for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    )


def generate_corpus(seed: int) -> Corpus:
    """A corpus of heavy-tailed dense and quiet files for ``seed``.

    Every template appears equally often, so every rule fires whatever
    the seed.
    """
    rng = random.Random(seed)
    # Every template equally often, in seeded order: the work per sweep
    # does not depend on the seed, only where it sits.
    names = [TEMPLATES[i % len(TEMPLATES)].name for i in range(BLOCKS)]
    rng.shuffle(names)
    files: list[SourceFile] = []
    k = 0
    for i, count in enumerate(_heavy_tailed(rng, BLOCKS, DENSE_FILES, 120)):
        files.append(SourceFile(
            f"pkg{i % 8}/mod_{i:03d}.py",
            [Block(name, k + j) for j, name in enumerate(names[k:k + count])],
        ))
        k += count
    for i, count in enumerate(_heavy_tailed(rng, QUIET_LINES, QUIET_FILES, 1500)):
        text = "".join(_quiet_line(rng, j) for j in range(count))
        files.append(SourceFile(f"data{i % 4}/table_{i:03d}.py", quiet_text=text))
    files.sort(key=lambda f: f.relpath)
    return Corpus(files, k)
