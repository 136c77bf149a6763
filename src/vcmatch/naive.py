"""Brute-force window matcher.

This module optimizes for obviousness, not speed: it is the ground truth
that the fast backends are cross-checked against.
"""

from __future__ import annotations

from typing import Optional

from .core import PatternString, Record, Substitution, TextString, is_injective_mode


class MatchReport(Record):
    """Sorted 1-based match positions plus optional per-position witnesses."""

    _fields = ("positions", "witnesses")

    def __init__(
        self, positions: list[int], witnesses: Optional[dict[int, Substitution]] = None
    ) -> None:
        self.positions = positions
        self.witnesses = witnesses


def window_match(
    pattern: PatternString,
    text: TextString,
    start: int,
    injective: bool = False,
) -> tuple[bool, Optional[Substitution]]:
    """Try to map the pattern onto the text window beginning at 1-based ``start``.

    The substitution is built greedily left to right; each variable's image
    is forced by its first occurrence, so the greedy construction succeeds
    exactly when any substitution does.  Under ``injective`` a variable may
    not take an image that another variable already holds.  Returns the
    witness on success.
    """
    m, n = len(pattern), len(text)
    if not 1 <= start <= n - m + 1:
        raise IndexError(f"window start {start} out of range 1..{n - m + 1}")
    forward: dict[int, int] = {}
    text_codes = text.codes
    for i, code in enumerate(pattern.codes, start - 1):
        t = text_codes[i]
        if code >= 0:
            if code != t:
                return False, None
            continue
        bound = forward.get(-1 - code)
        if bound is None:
            if injective and t in forward.values():
                return False, None
            forward[-1 - code] = t
        elif bound != t:
            return False, None
    return True, Substitution(forward)


def naive_all(
    pattern: PatternString,
    text: TextString,
    mode: str = "fvc",
    with_witnesses: bool = False,
) -> MatchReport:
    """Check every window; O(n*m) time."""
    injective = is_injective_mode(mode)
    positions: list[int] = []
    witnesses: dict[int, Substitution] = {}
    for start in range(1, len(text) - len(pattern) + 2):
        ok, pi = window_match(pattern, text, start, injective=injective)
        if ok:
            positions.append(start)
            if with_witnesses:
                witnesses[start] = pi
    return MatchReport(positions, witnesses if with_witnesses else None)
