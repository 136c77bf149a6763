"""Cell rule of the kmp engine for non-injective (fvc) matching.

Each (k, j) cell summarizes its alignment classes with a representative map
over merge classes (constants win; otherwise the variable registered
first).  A cell is dead when it forces two distinct constants to be equal.
The engine's fit keeps one such cell per diagonal (:func:`walk_diagonals`);
the scan, failure function and bit rows live in :mod:`vcmatch.kmp`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

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
        members = list(self.members)
        if add_condition(reps, members, prefix_code, window_code) is None:
            return None
        return ConditionEntry(tuple(reps), self.prefix_links, tuple(members))

    def read(self):
        """Pins (v, constant), ties (v, representative), clashes."""
        pins = []
        ties = []
        for vid, rep in enumerate(self.reps):
            if rep >= 0:
                pins.append((vid, rep))
            elif rep != -1 - vid:
                ties.append((vid, -1 - rep))
        return pins, ties, ()


def add_condition(
    reps: list[int], members: list[Sequence[int]], a: int, b: int
) -> Optional[tuple[int, Sequence[int]]]:
    """Merge the classes of symbol codes ``a`` and ``b``.

    Return the merged class's representative and the variables relabelled
    to it (the old representative first; empty if ``a`` and ``b`` already
    shared a class), or None if the merge would identify two distinct
    constants.

    Representatives follow two rules kept invariant everywhere: a class
    containing a constant is represented by that constant, otherwise by its
    variable with the smallest id.  All member variables are relabelled on
    each merge, so lookups stay one step deep.  ``members[v]`` lists the
    variables represented by v; a merge replaces the sequences it changes
    and never mutates one, so states may share them.
    """
    ra = reps[-1 - a] if a < 0 else a
    rb = reps[-1 - b] if b < 0 else b
    if ra == rb:
        return ra, ()
    a_const = ra >= 0
    b_const = rb >= 0
    if a_const and b_const:
        return None
    if a_const:
        winner, loser = ra, rb
    elif b_const:
        winner, loser = rb, ra
    else:
        winner, loser = (ra, rb) if ra > rb else (rb, ra)  # larger code = smaller id
    loser_id = -1 - loser
    moved = members[loser_id]
    for vid in moved:
        reps[vid] = winner
    if winner < 0:
        members[-1 - winner] = (*members[-1 - winner], *moved)
    members[loser_id] = ()
    return winner, moved


def _first_positions(codes: Sequence[int]) -> list[int]:
    """For each position, the first position holding the same code."""
    first: dict[int, int] = {}
    return [first.setdefault(code, q) for q, code in enumerate(codes)]


def walk_diagonals(codes: Sequence[int], m: int, nv: int) -> Iterator[tuple[int, tuple]]:
    """Walk every fvc diagonal d in lockstep over k, adding the pair
    (P[k-d-1], P[k-1]) to its cell; after each k, yield the live mask and
    the (pin, tie, clash) masks that :func:`vcmatch.kmp.diagonal_rows`
    builds that k's rows from.

    A mask holds bit m - d for diagonal d; an event's mask may keep bits of
    diagonals that died, and the reader may delete an event with no live
    bit from its dict.  A state is (d, reps, members) as
    ``add_condition`` keeps them.  Links are not stored: a prefix variable
    first seen at position q links to window code P[d + q].  Only a merge
    flips event bits: each variable of the losing class drops its tie to
    the loser and takes a pin or a tie to the winner, as ``add_condition``
    reports them.
    """
    first = _first_positions(codes)
    start_reps = [-1 - vid for vid in range(nv)]
    singletons = [(vid,) for vid in range(nv)]
    live = (1 << m) - 1  # diagonals past k are shifted out of row k
    masks = pinned, tied, _ = defaultdict(int), defaultdict(int), {}
    states: list = []
    for i, w in enumerate(codes):  # i = k - 1
        dead = []
        for state in states:
            d = state[0]
            q = i - d
            p = codes[q]
            if p < 0:
                f = first[q]
                if f == q:
                    continue  # first sight: only links the prefix variable
                p = codes[d + f]  # through its link
            reps = state[1]
            ra = p if p >= 0 else reps[-1 - p]
            rb = w if w >= 0 else reps[-1 - w]
            if ra == rb:
                continue
            merged = add_condition(reps, state[2], p, w)
            bit = 1 << (m - d)
            if merged is None:
                live ^= bit
                dead.append(state)
                continue
            winner, moved = merged
            loser_id = moved[0]
            for vid in moved:
                if vid != loser_id:
                    tied[vid, loser_id] ^= bit
                if winner >= 0:
                    pinned[vid, winner] ^= bit
                else:
                    tied[vid, -1 - winner] ^= bit
        if dead:
            states = [state for state in states if state not in dead]
        states.append((i + 1, start_reps.copy(), singletons.copy()))
        yield live, masks


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
