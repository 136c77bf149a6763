"""KMP-style backend for non-injective (fvc) matching.

The classical border array generalizes here to a *shift table*: for every
matched prefix length k and candidate shift j, aligning the first j pattern
positions under the last j of the matched prefix identifies groups of
pattern positions that must carry equal text symbols.  Each (k, j) cell
summarizes those groups with a representative map over merge classes
(constants win; otherwise the variable registered first).  A cell is dead
when it forces two distinct constants to be equal.

For the matching loop the table is flattened into bit rows per prefix
length: a shift bit survives only while it stays compatible with the
current variable bindings, so the failure function is a handful of word-
wise ANDs followed by a highest-set-bit scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ._bits import MACHINE_WORD, and_words, highest_set_bit, word_count
from .core import PatternString, Substitution, TextString
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


class ShiftConditionTable:
    """All (prefix length, shift) cells for one pattern.

    ``entries[k][j]`` holds the cell for 0 <= j < k <= m, or None when the
    alignment is impossible.  Cell (k, j) extends cell (k-1, j-1) by at most
    one new equality, so the table builds diagonal by diagonal in
    O(num_variables * m^2).
    """

    def __init__(self, pattern: PatternString) -> None:
        self.pattern = pattern
        m = len(pattern)
        nv = pattern.table.num_variables
        base = ConditionEntry(
            reps=tuple(-1 - vid for vid in range(nv)),
            prefix_links={},
            members=tuple((vid,) for vid in range(nv)),
        )
        entries: list[list[Optional[ConditionEntry]]] = [[]]
        for k in range(1, m + 1):
            entries.append([base] + [None] * (k - 1))
        codes = pattern.codes
        for k in range(2, m + 1):
            row = entries[k]
            prev_row = entries[k - 1]
            new_code = codes[k - 1]
            for j in range(1, k):
                prev = prev_row[j - 1]
                if prev is None:
                    continue
                reps = list(prev.reps)
                members = [list(t) for t in prev.members]
                links = dict(prev.prefix_links)
                prefix_code = codes[j - 1]
                if prefix_code < 0:
                    linked = links.get(-1 - prefix_code)
                    if linked is None:
                        links[-1 - prefix_code] = new_code
                        ok = True
                    elif linked == new_code:
                        ok = True
                    else:
                        ok = add_condition(reps, members, linked, new_code)
                else:
                    ok = add_condition(reps, members, prefix_code, new_code)
                if ok:
                    row[j] = ConditionEntry(
                        tuple(reps), links, tuple(tuple(ms) for ms in members)
                    )
        self.entries = entries

    def entry(self, k: int, j: int) -> Optional[ConditionEntry]:
        return self.entries[k][j]

    def is_valid(self, k: int, j: int) -> bool:
        return self.entries[k][j] is not None


def build_table(pattern: PatternString) -> ShiftConditionTable:
    return ShiftConditionTable(pattern)


@dataclass
class BitmapSet:
    """Bit-packed shift rows, one k-bit row family per prefix length k.

    * ``valid[k]``: bit j set iff cell (k, j) is alive.
    * ``allow_value[k][v][c]``: bit j cleared iff shift j forces variable v
      to a constant other than c (or the cell is dead).
    * ``allow_value_default[k][v]``: the same row for any constant that does
      not occur in the pattern (such a value can never satisfy a forced
      constant, so the row clears every shift whose class pins v down).
    * ``allow_distinct[k][x][y]``: bit j cleared iff shift j makes y the
      representative of x, i.e. forces equal bindings.  Queried in both
      orders, which makes the conjunction independent of representative
      choice.
    """

    chunk_width: int
    valid: list
    allow_value: list
    allow_value_default: list
    allow_distinct: list

    def max_valid_shift(self, k: int) -> int:
        """Largest live shift for prefix length k (the border length for
        variable-free patterns)."""
        return highest_set_bit(self.valid[k], self.chunk_width)


def build_bitmaps(
    pattern: PatternString,
    table: ShiftConditionTable,
    chunk_width: int = MACHINE_WORD,
) -> BitmapSet:
    # Bits are accumulated directly into chunk_width-sized words so each live
    # cell costs O(1) regardless of k; rows are then assembled word-wise.
    if chunk_width < 1:
        raise ValueError("chunk_width must be positive")
    m = len(pattern)
    nv = pattern.table.num_variables
    sigma = [c.id for c in pattern.constants]
    own_code = [-1 - vid for vid in range(nv)]
    valid: list = [None] * (m + 1)
    allow_value: list = [None] * (m + 1)
    allow_default: list = [None] * (m + 1)
    allow_distinct: list = [None] * (m + 1)
    for k in range(1, m + 1):
        nwords = word_count(k, chunk_width)
        alive = [0] * nwords
        any_const = [[0] * nwords for _ in range(nv)]
        const_shifts: list[dict[int, list[int]]] = [dict() for _ in range(nv)]
        rep_shifts: list[dict[int, list[int]]] = [dict() for _ in range(nv)]
        row = table.entries[k]
        for j in range(k):
            entry = row[j]
            if entry is None:
                continue
            word, offset = divmod(j, chunk_width)
            mask = 1 << offset
            alive[word] |= mask
            reps = entry.reps
            for vid in range(nv):
                rep = reps[vid]
                if rep >= 0:
                    any_const[vid][word] |= mask
                    shifts = const_shifts[vid].get(rep)
                    if shifts is None:
                        shifts = const_shifts[vid][rep] = [0] * nwords
                    shifts[word] |= mask
                elif rep != own_code[vid]:
                    ties = rep_shifts[vid].get(-1 - rep)
                    if ties is None:
                        ties = rep_shifts[vid][-1 - rep] = [0] * nwords
                    ties[word] |= mask
        valid[k] = tuple(alive)
        value_rows = []
        default_rows = []
        for vid in range(nv):
            anyc = any_const[vid]
            shift_map = const_shifts[vid]
            rows = {}
            for cid in sigma:
                shifts = shift_map.get(cid)
                if shifts is None:
                    rows[cid] = tuple(a & ~x for a, x in zip(alive, anyc))
                else:
                    rows[cid] = tuple(
                        a & ~(x & ~s) for a, x, s in zip(alive, anyc, shifts)
                    )
            value_rows.append(rows)
            default_rows.append(tuple(a & ~x for a, x in zip(alive, anyc)))
        allow_value[k] = value_rows
        allow_default[k] = default_rows
        alive_row = tuple(alive)
        allow_distinct[k] = [
            [
                None
                if x == y
                else (
                    alive_row
                    if (ties := rep_shifts[x].get(y)) is None
                    else tuple(a & ~t for a, t in zip(alive, ties))
                )
                for y in range(nv)
            ]
            for x in range(nv)
        ]
    return BitmapSet(chunk_width, valid, allow_value, allow_default, allow_distinct)


class FvcKmp:
    """Preprocessed pattern for fvc matching: shift table plus bit rows.

    Immutable after construction; each text scan keeps its own cursor and
    bindings, so one instance may serve many texts.
    """

    def __init__(self, pattern: PatternString, chunk_width: int = MACHINE_WORD) -> None:
        self.pattern = pattern
        self.chunk_width = chunk_width
        self.table = build_table(pattern)
        self.bitmaps = build_bitmaps(pattern, self.table, chunk_width)

    def failure(self, k: int, pi: Substitution) -> tuple[int, Substitution]:
        """Resume data after a mismatch at pattern position k+1.

        Given the matched prefix length ``k`` and the bindings ``pi`` built
        over it (domain must equal the variables of that prefix), return the
        largest shift j whose cell accepts ``pi``, together with the
        succeeding bindings for the first j positions.  Shift 0 always
        qualifies, so the result is well-defined.
        """
        m = len(self.pattern)
        if not 1 <= k <= m:
            raise ValueError(f"prefix length {k} out of range 1..{m}")
        expected = set(self.pattern.variables_by_prefix[k])
        if set(pi.forward) != expected:
            raise ValueError("bindings must cover exactly the variables of the prefix")
        j, forward = self._failure_ids(k, pi.forward)
        return j, Substitution(forward)

    def _failure_ids(self, k: int, forward: dict[int, int]) -> tuple[int, dict[int, int]]:
        bitmaps = self.bitmaps
        words = list(bitmaps.valid[k])
        value_rows = bitmaps.allow_value[k]
        default_rows = bitmaps.allow_value_default[k]
        for vid, cid in forward.items():
            row = value_rows[vid].get(cid)
            and_words(words, default_rows[vid] if row is None else row)
        if len(forward) > 1:
            distinct_rows = bitmaps.allow_distinct[k]
            items = list(forward.items())
            for x, cx in items:
                row_x = distinct_rows[x]
                for y, cy in items:
                    if x != y and cx != cy:
                        and_words(words, row_x[y])
        j = highest_set_bit(words, bitmaps.chunk_width)
        links = self.table.entries[k][j].prefix_links
        succeeding: dict[int, int] = {}
        for vid in self.pattern.variables_by_prefix[j]:
            code = links[vid]
            succeeding[vid] = code if code >= 0 else forward[-1 - code]
        return j, succeeding

    def find_all(self, text: TextString) -> MatchReport:
        """Scan the text once, shifting through the failure rows on mismatch."""
        pattern = self.pattern
        m, n = len(pattern), len(text)
        if m > n:
            return MatchReport([])
        pcodes = pattern.codes
        tcodes = text.codes
        positions: list[int] = []
        forward: dict[int, int] = {}
        k = 0  # matched prefix length
        i = 0  # next text index to read
        while i < n:
            code = pcodes[k]
            t = tcodes[i]
            if code >= 0:
                ok = code == t
            else:
                vid = -1 - code
                bound = forward.get(vid)
                if bound is None:
                    forward[vid] = t
                    ok = True
                else:
                    ok = bound == t
            if ok:
                i += 1
                k += 1
                if k == m:
                    positions.append(i - m + 1)
                    k, forward = self._failure_ids(m, forward)
            elif k == 0:
                i += 1
            else:
                k, forward = self._failure_ids(k, forward)
        return MatchReport(positions)


def match_fvc(
    pattern: PatternString, text: TextString, chunk_width: int = MACHINE_WORD
) -> MatchReport:
    """One-shot fvc matching; build :class:`FvcKmp` directly to reuse the
    preprocessing across texts."""
    return FvcKmp(pattern, chunk_width).find_all(text)
