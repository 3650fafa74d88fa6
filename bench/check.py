"""Output checks: per-row failures, word accuracy and fingerprints.

A decode row fails when it is missing, misaligned or malformed, when a
dictionary mode returns a label that cannot be spelled from dictionary
words and non-word characters, or when its score is not finite or is
exactly 0.0. Today 0.0 is linear-domain underflow; once scores are
log-probabilities it would mean probability 1. Neither is legitimate on
noisy input. Word accuracy is computed from the same parsed rows.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass


@dataclass
class Checked:
    attempted: int  # rows (or report cells) expected
    failed: int
    words: float  # ground-truth words, the base of the accuracy
    hits: float  # of which recognized

    @property
    def accuracy(self) -> float:
        return 100.0 * self.hits / self.words if self.words else 0.0


def fingerprint(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def spellable(label: str, dictionary: frozenset[str], nonword: str) -> bool:
    if not nonword:
        return label in dictionary
    tokens = re.split("[" + re.escape(nonword) + "]", label)
    return all(not tok or tok in dictionary for tok in tokens)


def word_hits(label: str, truth: str, nonword: str) -> tuple[int, int]:
    """(truth words, truth words minus word edit errors, at least 0).

    For an isolated word this is exact match; for a line it is the
    usual 1 - WER, counted per line and clipped at zero.
    """
    split = re.compile("[" + re.escape(nonword or " ") + "]")
    pred = [w for w in split.split(label) if w]
    want = [w for w in split.split(truth) if w]
    prev = list(range(len(pred) + 1))
    for i, w in enumerate(want, start=1):
        cur = [i] + [0] * len(pred)
        for j, p in enumerate(pred, start=1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (w != p))
        prev = cur
    return len(want), max(0, len(want) - prev[-1])


def _rows(text: str) -> list[list[str]]:
    return [line.split("\t") for line in text.split("\n") if line]


def check_rows(stdout: str, ids: list[str], truth: list[str],
               dictionary: frozenset[str] | None, nonword: str, third_ok) -> Checked:
    """Rows ``id<TAB>label<TAB>third`` in the order of ``ids``.

    ``third_ok(field)`` tests the third column; with a ``dictionary`` the
    label must also be spellable from it.
    """
    rows = _rows(stdout)
    failed = hits = words = 0
    for i, (want_id, want) in enumerate(zip(ids, truth)):
        row = rows[i] if i < len(rows) else None
        n, h = word_hits(row[1] if row and len(row) > 1 else "", want, nonword)
        words += n
        if row is None or len(row) != 3 or row[0] != want_id:
            failed += 1
            continue
        ok = third_ok(row[2])
        if dictionary is not None and not spellable(row[1], dictionary, nonword):
            ok = False
        failed += not ok
        hits += h
    failed += max(0, len(rows) - len(ids))
    return Checked(len(ids), failed, words, hits)


def score_ok(field: str) -> bool:
    """A decode score: finite and not exactly 0.0."""
    try:
        score = float(field)
    except ValueError:
        return False
    return math.isfinite(score) and score != 0.0


def group_size_ok(members: int):
    """An ensemble's winning group size: a whole number from 1 to ``members``."""
    return lambda field: field.isdigit() and 1 <= int(field) <= members


_NUM = r"(\d+\.\d\d)"


def check_trend_report(stdout: str, counts: tuple[int, ...]) -> Checked:
    """Accuracy cells of a one-seed ``reproduce-trends`` report.

    The checked items are the seed's row of the ensemble table, the
    table's mean row (one cell per ensemble size), and the best-path /
    word-beam accuracy under each coding scheme. The row fails when it
    is missing; a cell fails when it is missing or outside [0, 100].
    The accuracy is the mean of the dictionary-decoding cells (all but
    best path).

    The seed's row is counted, not parsed: the report prints a seed of
    ten or more digits with no space before the first cell. With one
    seed the mean row holds the same values.
    """
    decoded: list[float] = []
    best_path: list[float] = []
    table = re.search(r"^seed\s+n=.*\n((?:.*\n)*?)^mean\s+(.*)$", stdout, re.M)
    rows = 0
    if table:
        rows = len([line for line in table.group(1).splitlines() if line.strip()])
        decoded += [float(v) for v in re.findall(_NUM, table.group(2))][: len(counts)]
    for scheme in ("plain", "extra-sep"):
        m = re.search(rf"^{scheme}\s+{_NUM}\s+{_NUM}$", stdout, re.M)
        if m:
            best_path.append(float(m.group(1)))
            decoded.append(float(m.group(2)))
    good = [v for v in decoded if 0.0 <= v <= 100.0]
    failed = ((rows != 1) + len(counts) + 4 - len(good)
              - sum(0.0 <= v <= 100.0 for v in best_path))
    return Checked(1 + len(counts) + 4, failed, len(good), sum(good) / 100.0)
