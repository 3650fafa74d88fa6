"""Hypothesis fusion by plurality voting with likelihood tie-breaks."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import InputValidationError


@dataclass(frozen=True)
class Hypothesis:
    """A recognizer's output string together with its reported likelihood."""

    text: str
    likelihood: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.likelihood) or self.likelihood < 0:
            raise InputValidationError("likelihood must be finite and non-negative")


def vote(hypotheses: Sequence[Hypothesis]) -> Hypothesis:
    """Plurality vote over exact-string groups.

    Cascade: a unique largest group wins outright; groups tied for the
    largest size fall to the highest mean likelihood (this also covers
    the all-distinct case, where every group has size one); exact mean
    ties fall to the lexicographically smallest string. The returned
    hypothesis is the winning group's highest-likelihood member.
    """
    hyps = list(hypotheses)
    if not hyps:
        raise InputValidationError("vote requires at least one hypothesis")
    groups: dict[str, list[Hypothesis]] = {}
    for h in hyps:
        groups.setdefault(h.text, []).append(h)
    top_size = max(len(g) for g in groups.values())
    tied = [(text, members) for text, members in groups.items() if len(members) == top_size]
    if len(tied) == 1:
        members = tied[0][1]
    else:
        _, members = min(
            tied, key=lambda tm: (-sum(h.likelihood for h in tm[1]) / len(tm[1]), tm[0])
        )
    return max(members, key=lambda h: h.likelihood)


def winning_group_size(hypotheses: Sequence[Hypothesis], winner: Hypothesis) -> int:
    return sum(1 for h in hypotheses if h.text == winner.text)

