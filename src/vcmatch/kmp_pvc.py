"""KMP-style backend for injective (pvc) matching.

Same shift-table idea as the fvc backend, with a stronger liveness rule:
a cell dies as soon as an alignment class would hold two window variables,
two prefix variables, or two constants, because no injective binding can
label such a class consistently.  Live classes therefore have at most one
node of each kind, so each cell stores plain partner maps instead of a
representative structure, and the failure function needs only one bit row
per (variable, bound constant) pair:

* a class pinning variable v to a constant other than its binding kills the
  shift (same rule as fvc);
* if v's class carries a prefix variable and its bound constant's class
  carries a *different* prefix variable, the shift would assign that
  constant to two prefix variables, which an injective succeeding binding
  cannot do.

Pairwise-distinct checks between variables are unnecessary: the preceding
bindings are injective by construction, and live cells never tie two window
variables together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ._bits import MACHINE_WORD, and_words, highest_set_bit, word_count
from .core import PatternString, Substitution, TextString
from .naive import MatchReport


@dataclass
class PartnerEntry:
    """Partner maps of one live cell; every class has <= 3 nodes.

    Window variables, prefix variables, and constants are linked pairwise;
    missing keys mean "no partner of that kind".
    """

    var_const: dict[int, int] = field(default_factory=dict)
    const_var: dict[int, int] = field(default_factory=dict)
    var_prefix: dict[int, int] = field(default_factory=dict)
    prefix_var: dict[int, int] = field(default_factory=dict)
    const_prefix: dict[int, int] = field(default_factory=dict)
    prefix_const: dict[int, int] = field(default_factory=dict)

    def copy(self) -> "PartnerEntry":
        return PartnerEntry(
            dict(self.var_const),
            dict(self.const_var),
            dict(self.var_prefix),
            dict(self.prefix_var),
            dict(self.const_prefix),
            dict(self.prefix_const),
        )

    def connected(self, node: tuple[str, int]) -> set[tuple[str, int]]:
        """All nodes sharing ``node``'s class, excluding the node itself.

        Nodes are ("variable", id) for window variables, ("prefix", id) for
        prefix-side variables, and ("constant", id).
        """
        kind, ident = node
        out: set[tuple[str, int]] = set()
        if kind == "variable":
            if ident in self.var_const:
                out.add(("constant", self.var_const[ident]))
            if ident in self.var_prefix:
                out.add(("prefix", self.var_prefix[ident]))
        elif kind == "constant":
            if ident in self.const_var:
                out.add(("variable", self.const_var[ident]))
            if ident in self.const_prefix:
                out.add(("prefix", self.const_prefix[ident]))
        elif kind == "prefix":
            if ident in self.prefix_var:
                out.add(("variable", self.prefix_var[ident]))
            if ident in self.prefix_const:
                out.add(("constant", self.prefix_const[ident]))
        else:
            raise ValueError(f"unknown node kind {kind!r}")
        return out


def _join_var_const(entry: PartnerEntry, vid: int, cid: int) -> bool:
    current = entry.var_const.get(vid)
    if current is not None:
        return current == cid
    if cid in entry.const_var:
        return False  # a second window variable in the class
    vp = entry.var_prefix.get(vid)
    cp = entry.const_prefix.get(cid)
    if vp is not None and cp is not None:
        return False  # a second prefix variable in the class
    entry.var_const[vid] = cid
    entry.const_var[cid] = vid
    if vp is not None:
        entry.const_prefix[cid] = vp
        entry.prefix_const[vp] = cid
    elif cp is not None:
        entry.var_prefix[vid] = cp
        entry.prefix_var[cp] = vid
    return True


def _join_var_prefix(entry: PartnerEntry, vid: int, pid: int) -> bool:
    current = entry.var_prefix.get(vid)
    if current is not None:
        return current == pid
    if pid in entry.prefix_var:
        return False
    vc = entry.var_const.get(vid)
    pc = entry.prefix_const.get(pid)
    if vc is not None and pc is not None:
        return False  # two distinct constants in the class
    entry.var_prefix[vid] = pid
    entry.prefix_var[pid] = vid
    if vc is not None:
        entry.const_prefix[vc] = pid
        entry.prefix_const[pid] = vc
    elif pc is not None:
        entry.var_const[vid] = pc
        entry.const_var[pc] = vid
    return True


def _join_const_prefix(entry: PartnerEntry, cid: int, pid: int) -> bool:
    current = entry.prefix_const.get(pid)
    if current is not None:
        return current == cid
    if cid in entry.const_prefix:
        return False
    cv = entry.const_var.get(cid)
    pv = entry.prefix_var.get(pid)
    if cv is not None and pv is not None:
        return False
    entry.const_prefix[cid] = pid
    entry.prefix_const[pid] = cid
    if cv is not None:
        entry.var_prefix[cv] = pid
        entry.prefix_var[pid] = cv
    elif pv is not None:
        entry.var_const[pv] = cid
        entry.const_var[cid] = pv
    return True


class InjectiveShiftTable:
    """All (prefix length, shift) cells under the injective liveness rule."""

    def __init__(self, pattern: PatternString) -> None:
        self.pattern = pattern
        m = len(pattern)
        base = PartnerEntry()
        entries: list[list[Optional[PartnerEntry]]] = [[]]
        for k in range(1, m + 1):
            entries.append([base] + [None] * (k - 1))
        codes = pattern.codes
        for k in range(2, m + 1):
            row = entries[k]
            prev_row = entries[k - 1]
            window_code = codes[k - 1]
            for j in range(1, k):
                prev = prev_row[j - 1]
                if prev is None:
                    continue
                prefix_code = codes[j - 1]
                entry = prev.copy()
                if prefix_code < 0:
                    if window_code < 0:
                        ok = _join_var_prefix(entry, -1 - window_code, -1 - prefix_code)
                    else:
                        ok = _join_const_prefix(entry, window_code, -1 - prefix_code)
                elif window_code < 0:
                    ok = _join_var_const(entry, -1 - window_code, prefix_code)
                else:
                    ok = window_code == prefix_code
                if ok:
                    row[j] = entry
        self.entries = entries

    def entry(self, k: int, j: int) -> Optional[PartnerEntry]:
        return self.entries[k][j]

    def is_valid(self, k: int, j: int) -> bool:
        return self.entries[k][j] is not None


def build_injective_table(pattern: PatternString) -> InjectiveShiftTable:
    return InjectiveShiftTable(pattern)


@dataclass
class TBitmapSet:
    """Bit-packed shift rows for the injective failure function."""

    chunk_width: int
    valid: list
    allow_value: list
    allow_value_default: list

    def max_valid_shift(self, k: int) -> int:
        return highest_set_bit(self.valid[k], self.chunk_width)


def build_t_bitmaps(
    pattern: PatternString,
    table: InjectiveShiftTable,
    chunk_width: int = MACHINE_WORD,
) -> TBitmapSet:
    # Same word-wise accumulation scheme as the fvc builder.
    if chunk_width < 1:
        raise ValueError("chunk_width must be positive")
    m = len(pattern)
    nv = pattern.table.num_variables
    sigma = [c.id for c in pattern.constants]
    valid: list = [None] * (m + 1)
    allow_value: list = [None] * (m + 1)
    allow_default: list = [None] * (m + 1)
    for k in range(1, m + 1):
        nwords = word_count(k, chunk_width)
        alive = [0] * nwords
        any_const = [[0] * nwords for _ in range(nv)]
        const_shifts: list[dict[int, list[int]]] = [dict() for _ in range(nv)]
        clash_shifts: list[dict[int, list[int]]] = [dict() for _ in range(nv)]
        row = table.entries[k]
        for j in range(k):
            entry = row[j]
            if entry is None:
                continue
            word, offset = divmod(j, chunk_width)
            mask = 1 << offset
            alive[word] |= mask
            for vid, cid in entry.var_const.items():
                any_const[vid][word] |= mask
                shifts = const_shifts[vid].get(cid)
                if shifts is None:
                    shifts = const_shifts[vid][cid] = [0] * nwords
                shifts[word] |= mask
            if entry.var_prefix and entry.const_prefix:
                for vid, vp in entry.var_prefix.items():
                    clashes = clash_shifts[vid]
                    for cid, cp in entry.const_prefix.items():
                        if vp != cp:
                            marks = clashes.get(cid)
                            if marks is None:
                                marks = clashes[cid] = [0] * nwords
                            marks[word] |= mask
        valid[k] = tuple(alive)
        value_rows = []
        default_rows = []
        for vid in range(nv):
            anyc = any_const[vid]
            shift_map = const_shifts[vid]
            clash_map = clash_shifts[vid]
            rows = {}
            for cid in sigma:
                shifts = shift_map.get(cid)
                if shifts is None:
                    base = [a & ~x for a, x in zip(alive, anyc)]
                else:
                    base = [a & ~(x & ~s) for a, x, s in zip(alive, anyc, shifts)]
                clashes = clash_map.get(cid)
                if clashes is not None:
                    base = [b & ~c for b, c in zip(base, clashes)]
                rows[cid] = tuple(base)
            value_rows.append(rows)
            default_rows.append(tuple(a & ~x for a, x in zip(alive, anyc)))
        allow_value[k] = value_rows
        allow_default[k] = default_rows
    return TBitmapSet(chunk_width, valid, allow_value, allow_default)


class PvcKmp:
    """Preprocessed pattern for pvc matching."""

    def __init__(self, pattern: PatternString, chunk_width: int = MACHINE_WORD) -> None:
        self.pattern = pattern
        self.chunk_width = chunk_width
        self.table = build_injective_table(pattern)
        self.bitmaps = build_t_bitmaps(pattern, self.table, chunk_width)

    def failure(self, k: int, pi: Substitution) -> tuple[int, Substitution]:
        """Resume data after a mismatch at pattern position k+1.

        ``pi`` must be injective with domain exactly the variables of the
        matched prefix; the returned succeeding bindings are injective too.
        """
        m = len(self.pattern)
        if not 1 <= k <= m:
            raise ValueError(f"prefix length {k} out of range 1..{m}")
        if not pi.is_injective:
            raise ValueError("preceding bindings must be injective")
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
        j = highest_set_bit(words, bitmaps.chunk_width)
        entry = self.table.entries[k][j]
        succeeding: dict[int, int] = {}
        for vid in self.pattern.variables_by_prefix[j]:
            cid = entry.prefix_const.get(vid)
            succeeding[vid] = cid if cid is not None else forward[entry.prefix_var[vid]]
        return j, succeeding

    def find_all(self, text: TextString) -> MatchReport:
        pattern = self.pattern
        m, n = len(pattern), len(text)
        if m > n:
            return MatchReport([])
        pcodes = pattern.codes
        tcodes = text.codes
        positions: list[int] = []
        forward: dict[int, int] = {}
        image: set[int] = set()
        k = 0
        i = 0
        while i < n:
            code = pcodes[k]
            t = tcodes[i]
            if code >= 0:
                ok = code == t
            else:
                vid = -1 - code
                bound = forward.get(vid)
                if bound is None:
                    if t in image:
                        ok = False  # injectivity conflict counts as a mismatch
                    else:
                        forward[vid] = t
                        image.add(t)
                        ok = True
                else:
                    ok = bound == t
            if ok:
                i += 1
                k += 1
                if k == m:
                    positions.append(i - m + 1)
                    k, forward = self._failure_ids(m, forward)
                    image = set(forward.values())
            elif k == 0:
                i += 1
            else:
                k, forward = self._failure_ids(k, forward)
                image = set(forward.values())
        return MatchReport(positions)


def match_pvc(
    pattern: PatternString, text: TextString, chunk_width: int = MACHINE_WORD
) -> MatchReport:
    """One-shot pvc matching; build :class:`PvcKmp` directly to reuse the
    preprocessing across texts."""
    return PvcKmp(pattern, chunk_width).find_all(text)
