"""Cell rule of the kmp engine for non-injective (fvc) matching.

Each (k, j) cell summarizes its alignment classes with a representative map
over merge classes (constants win; otherwise the variable registered
first).  A cell is dead when it forces two distinct constants to be equal.
The scan, failure function and bit rows live in :mod:`vcmatch.kmp`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import PatternString, TextString
from .kmp import MACHINE_WORD, KmpEngine, ShiftTable
from .kmp import BitmapSet, build_bitmaps  # noqa: F401  (re-exported)
from .naive import MatchReport


@dataclass(frozen=True)
class ConditionEntry:
    """Merge-class summary for one (prefix length, shift) cell.

    ``reps[v]`` is the class representative of variable v, as a symbol code
    (its own code while untouched).  ``prefix_links`` stores, for each
    variable of the shifted-in prefix, one member of its class drawn from
    the window side; it is what rebuilds the succeeding bindings after a
    shift.  ``members[v]`` lists the variables currently represented by v.
    """

    reps: tuple[int, ...]
    prefix_links: dict[int, int]
    members: tuple[tuple[int, ...], ...]

    @classmethod
    def start(cls, num_variables: int) -> "ConditionEntry":
        """The shift-0 cell: every variable in its own class."""
        return cls(
            reps=tuple(-1 - vid for vid in range(num_variables)),
            prefix_links={},
            members=tuple((vid,) for vid in range(num_variables)),
        )

    def extend(self, prefix_code: int, window_code: int) -> Optional["ConditionEntry"]:
        """This cell with one more aligned pair; None if that kills it."""
        if prefix_code < 0:
            pid = -1 - prefix_code
            linked = self.prefix_links.get(pid)
            if linked is None:
                return ConditionEntry(
                    self.reps, {**self.prefix_links, pid: window_code}, self.members
                )
            prefix_code = linked
        if prefix_code == window_code:
            return self
        reps = list(self.reps)
        members = [list(t) for t in self.members]
        if not add_condition(reps, members, prefix_code, window_code):
            return None
        return ConditionEntry(tuple(reps), self.prefix_links, tuple(map(tuple, members)))

    def read(self, prefix_vars: tuple[int, ...]):
        """Pins (v, constant), ties (v, representative), clashes, links."""
        pins = []
        ties = []
        for vid, rep in enumerate(self.reps):
            if rep >= 0:
                pins.append((vid, rep))
            elif rep != -1 - vid:
                ties.append((vid, -1 - rep))
        links = self.prefix_links
        return pins, ties, (), tuple(links[vid] for vid in prefix_vars)


def add_condition(reps: list[int], members: list[list[int]], a: int, b: int) -> bool:
    """Merge the classes of symbol codes ``a`` and ``b``; False if that would
    identify two distinct constants.

    Representatives follow two rules kept invariant everywhere: a class
    containing a constant is represented by that constant, otherwise by its
    variable with the smallest id.  All member variables are relabelled on
    each merge, so lookups stay one step deep.
    """
    ra = reps[-1 - a] if a < 0 else a
    rb = reps[-1 - b] if b < 0 else b
    if ra == rb:
        return True
    a_const = ra >= 0
    b_const = rb >= 0
    if a_const and b_const:
        return False
    if a_const:
        winner, loser = ra, rb
    elif b_const:
        winner, loser = rb, ra
    else:
        winner, loser = (ra, rb) if ra > rb else (rb, ra)  # larger code = smaller id
    loser_id = -1 - loser
    for vid in members[loser_id]:
        reps[vid] = winner
    if winner < 0:
        members[-1 - winner].extend(members[loser_id])
    members[loser_id] = []
    return True


def build_table(pattern: PatternString) -> ShiftTable:
    return ShiftTable(pattern, injective=False)


class FvcKmp(KmpEngine):
    """The kmp engine for fvc matching."""

    def __init__(self, pattern: PatternString, chunk_width: int = MACHINE_WORD) -> None:
        super().__init__(pattern, False, chunk_width)


def match_fvc(
    pattern: PatternString, text: TextString, chunk_width: int = MACHINE_WORD
) -> MatchReport:
    """One-shot fvc matching; build :class:`FvcKmp` directly to reuse the
    preprocessing across texts."""
    return FvcKmp(pattern, chunk_width).find_all(text)
