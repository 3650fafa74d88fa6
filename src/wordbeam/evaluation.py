"""Word-level evaluation: exact-match accuracy, edit distance, breakdowns.

String comparisons run on canonically composed (NFC) text so accented
characters count as single units; case folding is optional. Separator
characters are expected to be stripped upstream, metrics never see
coding-scheme artifacts.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import InputValidationError


def _canon(s: str, case_insensitive: bool) -> str:
    s = unicodedata.normalize("NFC", s)
    return s.casefold() if case_insensitive else s


def check_pairs(preds: Sequence[str], gts: Sequence[str]) -> None:
    """Fail unless ``preds`` and ``gts`` pair up, one pair or more."""
    if len(preds) != len(gts):
        raise InputValidationError(
            f"prediction/ground-truth length mismatch: {len(preds)} vs {len(gts)}"
        )
    if not gts:
        raise InputValidationError("word_accuracy needs at least one pair")


def word_accuracy(
    preds: Sequence[str], gts: Sequence[str], case_insensitive: bool = False
) -> float:
    """Percentage of exact matches after NFC normalization (and optional folding)."""
    check_pairs(preds, gts)
    hits = sum(
        _canon(p, case_insensitive) == _canon(g, case_insensitive)
        for p, g in zip(preds, gts)
    )
    return 100.0 * hits / len(gts)


def levenshtein(a: str, b: str) -> int:
    """Minimal insert/delete/substitute count between two raw strings."""
    if len(a) > len(b):
        a, b = b, a
    current = list(range(len(a) + 1))
    for i, cb in enumerate(b, start=1):
        previous, current = current, [i] + [0] * len(a)
        for j, ca in enumerate(a, start=1):
            cost = previous[j - 1] + (ca != cb)
            current[j] = min(previous[j] + 1, current[j - 1] + 1, cost)
    return current[len(a)]


def oov_split(
    train_vocab: Iterable[str],
    test_words: Sequence[str],
    case_insensitive: bool = False,
) -> tuple[list[int], list[int]]:
    """Partition test indices into (in-vocabulary, out-of-vocabulary)."""
    vocab = {_canon(w, case_insensitive) for w in train_vocab}
    inv: list[int] = []
    oov: list[int] = []
    for i, w in enumerate(test_words):
        (inv if _canon(w, case_insensitive) in vocab else oov).append(i)
    return inv, oov


def length_breakdown(
    preds: Sequence[str], gts: Sequence[str], case_insensitive: bool = False
) -> dict[int, tuple[float, int]]:
    """Accuracy and count per ground-truth word length."""
    if len(preds) != len(gts) or not gts:
        raise InputValidationError("length_breakdown needs equal-length, non-empty inputs")
    hits: Counter[int] = Counter()
    totals: Counter[int] = Counter()
    for p, g in zip(preds, gts):
        g_c = _canon(g, case_insensitive)
        n = len(g_c)
        totals[n] += 1
        hits[n] += _canon(p, case_insensitive) == g_c
    return {n: (100.0 * hits[n] / totals[n], totals[n]) for n in sorted(totals)}


@dataclass
class EvalReport:
    word_accuracy: float
    total: int
    case_insensitive: bool
    per_length_accuracy: dict[int, tuple[float, int]]
    oov_accuracy: float | None = None
    inv_accuracy: float | None = None
    oov_count: int = 0
    inv_count: int = 0
    confusion_samples: list[tuple[str, str, int]] = field(default_factory=list)


# Misrecognized pairs a report lists, the first in input order.
MAX_CONFUSIONS = 20


def build_report(
    preds: Sequence[str],
    gts: Sequence[str],
    train_vocab: Iterable[str] | None = None,
    case_insensitive: bool = False,
) -> EvalReport:
    ci = case_insensitive
    acc = word_accuracy(preds, gts, ci)
    report = EvalReport(
        word_accuracy=acc,
        total=len(gts),
        case_insensitive=ci,
        per_length_accuracy=length_breakdown(preds, gts, ci),
    )
    if train_vocab is not None:
        inv, oov = oov_split(train_vocab, gts, ci)
        report.inv_count, report.oov_count = len(inv), len(oov)
        if inv:
            report.inv_accuracy = word_accuracy(
                [preds[i] for i in inv], [gts[i] for i in inv], ci
            )
        if oov:
            report.oov_accuracy = word_accuracy(
                [preds[i] for i in oov], [gts[i] for i in oov], ci
            )
    for p, g in zip(preds, gts):
        if len(report.confusion_samples) >= MAX_CONFUSIONS:
            break
        p_c, g_c = _canon(p, ci), _canon(g, ci)
        if p_c != g_c:
            report.confusion_samples.append((g, p, levenshtein(g_c, p_c)))
    return report


def format_report_table(report: EvalReport) -> str:
    lines = [
        "metric                 value",
        "-----------------------------",
        f"samples                {report.total}",
        f"case_insensitive       {'yes' if report.case_insensitive else 'no'}",
        f"word_accuracy          {report.word_accuracy:.2f}",
    ]
    if report.inv_accuracy is not None:
        lines.append(f"inv_accuracy           {report.inv_accuracy:.2f}  (n={report.inv_count})")
    if report.oov_accuracy is not None:
        lines.append(f"oov_accuracy           {report.oov_accuracy:.2f}  (n={report.oov_count})")
    lines.append("")
    lines.append("length  accuracy  count")
    for n, (acc, count) in report.per_length_accuracy.items():
        lines.append(f"{n:>6}  {acc:>8.2f}  {count:>5}")
    if report.confusion_samples:
        lines.append("")
        lines.append("ground_truth -> prediction (edit distance)")
        for g, p, d in report.confusion_samples:
            lines.append(f"{g} -> {p} ({d})")
    return "\n".join(lines) + "\n"


def format_report_kv(report: EvalReport) -> str:
    """One metric per line, ``key=value``."""
    lines = [
        f"samples={report.total}",
        f"case_insensitive={int(report.case_insensitive)}",
        f"word_accuracy={report.word_accuracy:.6f}",
    ]
    if report.inv_accuracy is not None:
        lines.append(f"inv_accuracy={report.inv_accuracy:.6f}")
        lines.append(f"inv_count={report.inv_count}")
    if report.oov_accuracy is not None:
        lines.append(f"oov_accuracy={report.oov_accuracy:.6f}")
        lines.append(f"oov_count={report.oov_count}")
    for n, (acc, count) in report.per_length_accuracy.items():
        lines.append(f"length_accuracy.{n}={acc:.6f}")
        lines.append(f"length_count.{n}={count}")
    return "\n".join(lines) + "\n"
