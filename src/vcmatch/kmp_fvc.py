"""Cell rule of the kmp engine for non-injective (fvc) matching.

Each (k, j) cell summarizes its alignment classes with a representative map
over merge classes (constants win; otherwise the variable registered
first).  A cell is dead when it forces two distinct constants to be equal.
The engine's fit keeps one such cell per diagonal (:func:`walk_diagonals`);
the scan, failure function and bit rows live in :mod:`vcmatch.kmp`.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from .core import PatternString, Record, TextString
from .kmp import MACHINE_WORD, KmpEngine, ShiftTable
from .kmp import BitmapSet, build_bitmaps  # noqa: F401  (re-exported)
from .naive import MatchReport


class ConditionEntry(Record):
    """Merge-class summary for one (prefix length, shift) cell.

    ``reps[v]`` is the class representative of variable v, as a symbol code
    (its own code while untouched).  ``prefix_links`` stores, for each
    variable of the shifted-in prefix, one member of its class drawn from
    the window side; it is what rebuilds the succeeding bindings after a
    shift.  ``members[v]`` lists the variables currently represented by v.
    """

    _fields = ("reps", "prefix_links", "members")

    def __init__(
        self,
        reps: tuple[int, ...],
        prefix_links: dict[int, int],
        members: tuple[tuple[int, ...], ...],
    ) -> None:
        self.reps = reps
        self.prefix_links = prefix_links
        self.members = members

    @classmethod
    def start(cls, num_variables: int) -> "ConditionEntry":
        """The shift-0 cell: every variable in its own class."""
        return cls(
            reps=tuple(-1 - vid for vid in range(num_variables)),
            prefix_links={},
            members=tuple((vid,) for vid in range(num_variables)),
        )

    def extend(self, prefix_code: int, window_code: int) -> ConditionEntry | None:
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
) -> tuple[int, Sequence[int]] | None:
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


def walk_diagonals(pattern: PatternString) -> Iterator[tuple[int, tuple]]:
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
    reports them.  Diagonal d starts at k = d + 1 with the pair (P[0], P[d]);
    two different constants there kill it before it gets a state.
    """
    codes = pattern.codes
    m = len(codes)
    nv = pattern.table.num_variables
    first = _first_positions(codes)
    start_reps = list(range(-1, -1 - nv, -1))
    singletons = [(vid,) for vid in range(nv)]
    live = (1 << m) - 1  # diagonals past k are shifted out of row k
    masks = pinned, tied, _ = {}, {}, {}
    states: list = []
    lead = codes[0]
    yield live, masks  # k = 1: shift 0 alone
    for i in range(1, m):  # i = k - 1
        w = codes[i]
        if lead >= 0 and w >= 0 and lead != w:  # diagonal i dies at its first pair
            live ^= 1 << (m - i)
        else:
            states.append((i, start_reps.copy(), singletons.copy()))  # diagonal i starts here
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
                    key = vid, loser_id
                    tied[key] = tied.get(key, 0) ^ bit
                if winner >= 0:
                    key = vid, winner
                    pinned[key] = pinned.get(key, 0) ^ bit
                else:
                    key = vid, -1 - winner
                    tied[key] = tied.get(key, 0) ^ bit
        if dead:
            states = [state for state in states if state not in dead]
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
