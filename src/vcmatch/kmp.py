"""KMP-style engine for fvc (any binding) and pvc (injective) matching.

The classical border array generalizes here to a *shift table*: for every
matched prefix length k and candidate shift j, aligning the first j pattern
positions under the last j of the matched prefix identifies groups of
pattern positions that must carry equal text symbols.  The modes differ
only in the cell rule (``kmp_fvc.add_condition``, ``kmp_pvc._absorb``),
chosen by the engine's one switch, ``injective``.

The engine keeps only bit rows (little-endian tuples of chunk_width-bit
words): per prefix length, the live row and, in sparse dicts, the value,
default and tie rows that restrict it (:class:`BitmapSet`).  The failure
function ANDs the live row with the stored rows its bindings select, a
handful of word-wise ANDs, and scans for the highest set bit.  Cell (k, j)
is cell (k-1, j-1) plus one aligned pair, so the fit (:func:`diagonal_rows`)
walks every diagonal d = k - j once, holding one mutable cell state per
live diagonal; only a pair that changes a state touches the rows.  A
prefix variable's link, which rebuilds the succeeding bindings after a
shift, is read off the pattern: the window code aligned with its first
occurrence.  pvc needs no tie rows: the preceding bindings are injective
by construction, and live pvc cells never tie two window variables
together.

``ShiftTable`` (the cells, materialised) and ``flatten_rows`` (their bit
rows) are the inspectable reference the engine's rows are tested against.

The engine memoises the failure function per (prefix length, bindings) in
a cache flushed whenever it reaches ``FAILURE_CACHE_CAP`` entries.  Where
failures run dense, the scan itself becomes a lazily built DFA, as in RE2
(Cox, "Regular Expression Matching in the Wild"): its states are the scan
states (prefix length, bindings), and each transition is filled on first
use by one character of the plain loop.  The scan starts in the plain loop,
hands over to the DFA once failures outnumber half of the characters read
(from ``DFA_HANDOVER_INDEX`` on).  When the DFA's estimated size reaches
``DFA_TABLE_BYTES``, its table is flushed, so memory stays bounded on any
input, and the scan hands back to the plain loop for the rest of the text.
"""

from __future__ import annotations

import logging
import struct
import time
from collections import defaultdict
from dataclasses import dataclass
from itertools import accumulate, chain, compress, repeat
from operator import and_, invert, ne, or_, rshift, xor
from typing import Iterable, Optional, Sequence

from .core import PatternString, Substitution, TextString
from .naive import MatchReport

MACHINE_WORD = 64
# About 3 MiB of cached failure results with 26 variables.
FAILURE_CACHE_CAP = 2048
# The scan hands over to the lazy DFA at the first failure from this text
# index on where failures outnumber half of the characters read ...
DFA_HANDOVER_INDEX = 256
# ... and hands back for the rest of the text when the DFA's table reaches
# DFA_TABLE_BYTES (estimated), which flushes it.  A scan whose states outgrow
# the table meets fresh states faster than it reuses them, and a step into a
# fresh state costs about 1.5x a step of the plain loop.  With a full
# failure cache beside it, an engine stays under 4 MiB.
DFA_TABLE_BYTES = 1 << 19
# Estimated bytes of a state beyond its key's values and row's entries (the
# tuple and list headers and a dict slot), and of an edge completing a match.
_STATE_BYTES = 160
_EDGE_BYTES = 128

logger = logging.getLogger(__name__)


def and_words(acc: list[int], row: Sequence[int]) -> None:
    for i, w in enumerate(row):
        acc[i] &= w


def highest_set_bit(words: Sequence[int], chunk_width: int) -> int:
    """Index of the highest set bit, scanning words from the top; -1 if none."""
    for i in range(len(words) - 1, -1, -1):
        w = words[i]
        if w:
            return i * chunk_width + w.bit_length() - 1
    return -1


def shift_rows(pattern: PatternString, injective: bool) -> Iterable[list]:
    """Yield the cell rows k = 1..m; ``row[j]`` is cell (k, j), None if dead.

    Cell (k, j) is cell (k-1, j-1) with prefix position j aligned under
    window position k, so only the previous row is kept.
    """
    # The cell rules build on this module, so they are imported on use.
    if injective:
        from .kmp_pvc import PartnerEntry as cell_type
    else:
        from .kmp_fvc import ConditionEntry as cell_type
    codes = pattern.codes
    start = cell_type.start(pattern.table.num_variables)
    row: list = []
    for window_code in codes:
        row = [start] + [
            None if cell is None else cell.extend(prefix_code, window_code)
            for cell, prefix_code in zip(row, codes)
        ]
        yield row


class ShiftTable:
    """All (prefix length, shift) cells of one pattern, materialised.

    ``entries[k][j]`` holds the cell for 0 <= j < k <= m, or None when the
    alignment is impossible; row 0 is empty.  The engine does not keep it.
    """

    def __init__(self, pattern: PatternString, injective: bool) -> None:
        self.injective = injective
        self.entries: list[list] = [[], *shift_rows(pattern, injective)]

    def entry(self, k: int, j: int):
        return self.entries[k][j]

    def is_valid(self, k: int, j: int) -> bool:
        return self.entries[k][j] is not None


@dataclass
class BitmapSet:
    """Bit-packed shift rows, one k-bit row family per prefix length k.

    * ``valid[k]``: bit j set iff cell (k, j) is alive: the live row.
    * ``allow_value_default[k][v]``: the live row with every shift cleared
      that pins v to a constant; it serves any constant that does not occur
      in the pattern, which can never satisfy a pin.
    * ``allow_value[k][v, c]``: bit j cleared iff shift j forces variable v
      to a constant other than c, or (pvc) v's class holds a prefix
      variable and c's class a different one, or the cell is dead.
    * ``allow_distinct[k][x, y]`` (fvc; None for pvc): bit j cleared iff
      shift j makes y the representative of x, i.e. forces equal bindings.

    The families past ``valid`` are sparse: a dict per k holds only the rows
    that differ from the row a lookup would otherwise use.  A missing
    default or tie row is the live row, and a missing value row (v, c) is
    v's default row.  So a variable pinned to constant c alone keeps its
    value row (v, c), the live row, because it shadows v's default.  Every
    key at k names variables of ``variables_by_prefix[k]``.  Rows are
    tuples and may be shared: they are read only.
    """

    chunk_width: int
    valid: list
    allow_value: list
    allow_value_default: list
    allow_distinct: Optional[list]

    def max_valid_shift(self, k: int) -> int:
        """Largest live shift for prefix length k (the border length for
        variable-free patterns)."""
        return highest_set_bit(self.valid[k], self.chunk_width)


_WORD_FORMATS = {8: "B", 16: "H", 32: "I", 64: "Q"}


def _cutter(chunk_width: int, m: int):
    """Function cutting a column of masks, one per prefix length k = 1..m,
    into their tuples of little-endian chunk_width-bit words."""
    fmt = _WORD_FORMATS.get(chunk_width)
    if fmt is None:
        low = (1 << chunk_width) - 1
        return lambda masks: [
            tuple((x >> (i * chunk_width)) & low for i in range(-(-k // chunk_width)))
            for k, x in enumerate(masks, 1)
        ]
    # Rows k <= chunk_width are one word; longer ones go through struct.
    layouts = [struct.Struct(f"<{n}{fmt}") for n in range(2, -(-m // chunk_width) + 1)]
    per_row = list(chain.from_iterable(map(repeat, layouts, repeat(chunk_width))))
    sizes = [layout.size for layout in per_row]
    return lambda masks: [
        *zip(masks[:chunk_width]),
        *map(struct.Struct.unpack, per_row,
             map(int.to_bytes, masks[chunk_width:], sizes, repeat("little"))),
    ]


def _assemble(
    injective: bool, chunk_width: int,
    alive: list[int], pinned: dict, tied: dict, clashing: dict, shifts: list[int],
) -> BitmapSet:
    """The bit rows from mask columns over prefix lengths k = 1..m.

    Shift j of prefix length k is bit j + ``shifts[k - 1]`` of the k-th
    entry of each column: ``alive`` marks the live cells, ``pinned[v, c]``
    the cells forcing v to constant c, ``tied[x, y]`` those making y the
    representative of x, and ``clashing[v, c]`` those whose classes of v
    and c hold different prefix variables; an event column marks live
    cells only.  A row family's k-th dict keeps only the rows that differ
    from their fallback row.
    """
    m = len(alive)

    def shifted(column: list[int]) -> list[int]:
        return list(map(rshift, column, shifts))

    def clear(rows: list[int], marks: list[int]) -> list[int]:
        return list(map(and_, rows, map(invert, marks)))

    # Per pinned variable, the live shifts pinning it to no constant: pins
    # are live shifts, and one shift pins a variable at most once.
    unpinned: dict[int, list[int]] = {}
    pin_count: dict[int, int] = {}
    for (vid, _), marks in pinned.items():
        unpinned[vid] = list(map(xor, unpinned.get(vid, alive), marks))
        pin_count[vid] = pin_count.get(vid, 0) + 1
    unpinned = {vid: shifted(column) for vid, column in unpinned.items()}
    alive = shifted(alive)
    # A variable pinned to one constant only may take that one wherever it is live.
    values = {
        key: alive if pin_count[key[0]] == 1 else list(map(or_, shifted(marks), unpinned[key[0]]))
        for key, marks in pinned.items()
    }
    for key, column in clashing.items():
        base = values[key] if key in values else unpinned.get(key[0], alive)
        values[key] = clear(base, shifted(column))

    cut = _cutter(chunk_width, m)
    valid = cut(alive)

    def sparse(columns: dict, fallback) -> list:
        """Per k, a dict of the rows of ``columns`` that differ from the
        column ``fallback(key)``."""
        family: list[dict] = [{} for _ in range(m)]
        for key, column in columns.items():
            rows = valid if column is alive else cut(column)
            for k in compress(range(m), map(ne, column, fallback(key))):
                family[k][key] = rows[k]
        return [None, *family]

    distinct = None
    if not injective:
        ties = {key: clear(alive, shifted(column)) for key, column in tied.items()}
        distinct = sparse(ties, lambda _: alive)
    return BitmapSet(
        chunk_width,
        [None, *valid],
        sparse(values, lambda key: unpinned.get(key[0], alive)),
        sparse(unpinned, lambda _: alive),
        distinct,
    )


def flatten_rows(
    pattern: PatternString, rows: Iterable[list], injective: bool, chunk_width: int
) -> BitmapSet:
    """Bit rows read off materialised cell rows k = 1..m.

    The reference for :func:`diagonal_rows`, which the engine fits with:
    every live cell is read, and its events set its shift's bit.
    """
    if chunk_width < 1:
        raise ValueError("chunk_width must be positive")
    m = len(pattern)
    alive = [0] * m
    pinned, tied, clashing = (defaultdict(lambda: [0] * m) for _ in range(3))
    for k, row in enumerate(rows):
        for j, cell in enumerate(row):
            if cell is None:
                continue
            bit = 1 << j
            alive[k] |= bit
            pins, ties, clashes = cell.read()
            for pair in pins:
                pinned[pair][k] |= bit
            for pair in ties:
                tied[pair][k] |= bit
            for pair in clashes:
                clashing[pair][k] |= bit
    return _assemble(injective, chunk_width, alive, pinned, tied, clashing, [0] * m)


def build_bitmaps(
    pattern: PatternString, table: ShiftTable, chunk_width: int = MACHINE_WORD
) -> BitmapSet:
    """Bit rows of a materialised table; equal to the engine's."""
    return flatten_rows(pattern, table.entries[1:], table.injective, chunk_width)


def _flip_log(m: int) -> defaultdict:
    """Per event key, the bits flipped at each prefix length k = 1..m (entry
    k - 1); the running XOR of a key's flips is its mask at every k."""
    return defaultdict(lambda: [0] * m)


def _columns(log: dict, alive: list[int]) -> dict[tuple, list[int]]:
    """Per event key, its mask at every k: the running XOR of its flips,
    cleared where its diagonal has died."""
    return {key: list(map(and_, accumulate(flips, xor), alive)) for key, flips in log.items()}


def diagonal_rows(
    pattern: PatternString, injective: bool, chunk_width: int = MACHINE_WORD
) -> BitmapSet:
    """The bit rows of ``pattern``, fitted one diagonal at a time.

    Cell (k, j) is cell (k-1, j-1) plus the pair (P[j-1], P[k-1]), so each
    diagonal d = k - j keeps one mutable cell state and, in lockstep over
    k, absorbs its pair in place until it dies.  A pair the state already
    satisfies costs a lookup or two.  Every event (a pin, tie or clash) has
    one int mask over diagonals, bit m - d for diagonal d: the walk logs
    each real change and each death as a flip at its prefix length, the
    running XOR of an event's flips, cleared where its diagonal has died,
    is its mask at every k, and row k is that mask shifted down by m - k.
    Equal to :func:`flatten_rows` of the cell rows.
    """
    if chunk_width < 1:
        raise ValueError("chunk_width must be positive")
    # The cell rules build on this module, so they are imported on use.
    if injective:
        from .kmp_pvc import walk_diagonals
    else:
        from .kmp_fvc import walk_diagonals
    m = len(pattern)
    deaths, logs = walk_diagonals(pattern.codes, m, pattern.table.num_variables)
    deaths[0] ^= (1 << m) - 1  # diagonals start live; those past k are shifted out
    alive = list(accumulate(deaths, xor))
    return _assemble(
        injective, chunk_width, alive,
        *(_columns(log, alive) for log in logs), list(range(m - 1, -1, -1)),
    )


def _row_counts(bitmaps: BitmapSet) -> tuple[int, int]:
    """Live cells, and the words of the distinct row objects held."""
    families = (bitmaps.allow_value, bitmaps.allow_value_default, bitmaps.allow_distinct or [None])
    rows = [*bitmaps.valid[1:]]
    for family in families:
        rows += [row for stored in family[1:] for row in stored.values()]
    live = sum(w.bit_count() for row in bitmaps.valid[1:] for w in row)
    return live, sum({id(row): len(row) for row in rows}.values())


class _Dfa:
    """The scan as a lazily built DFA, one per engine.

    A state is a scan state (k, *binding values in variables_by_prefix[k]
    order), the failure cache's key format, between two characters of the
    plain loop.  Its row is a list indexed by text code, holding the row of
    the state that code leads to, and the key in its last slot: a warm step
    is one subscript.  An entry is None until filled, and stays None for an
    edge that completes a match; ``emits`` holds those, keyed by
    (id(source row), code), so that only matches leave the fast path.
    """

    __slots__ = ("rows", "emits", "width", "nbytes")

    def __init__(self, width: int) -> None:
        self.rows: dict[tuple, list] = {}
        self.emits: dict[tuple[int, int], list] = {}
        self.width = width
        self.nbytes = 0

    def state(self, key: tuple) -> list:
        row = self.rows.get(key)
        if row is None:
            row = self.rows[key] = [None] * (self.width + 1)
            row[-1] = key
            self.nbytes += _STATE_BYTES + 8 * (len(key) + self.width)
        return row

    def widen(self, width: int) -> None:
        """Give every row entries for the codes a text interned after the fit."""
        grow = [None] * (width - self.width)
        for row in self.rows.values():
            row[-1:-1] = grow
        self.nbytes += 8 * len(grow) * len(self.rows)
        self.width = width

    def clear(self) -> None:
        for row in self.rows.values():
            row.clear()  # rows point at rows: free them without the cycle collector
        self.rows.clear()
        self.emits.clear()
        self.nbytes = 0

    # Rows point at rows: a dropped table frees them without the cycle collector.
    __del__ = clear


class KmpEngine:
    """Preprocessed pattern: bit rows only.

    The bit rows are immutable after construction; each text scan keeps its
    own cursor and bindings, so one instance may serve many texts.  The
    state that grows during searches, the failure cache and the DFA table,
    is a pure cache: answers never depend on what it holds.
    """

    def __init__(
        self, pattern: PatternString, injective: bool, chunk_width: int = MACHINE_WORD
    ) -> None:
        self.pattern = pattern
        self.injective = injective
        debug = logger.isEnabledFor(logging.DEBUG)
        start = time.perf_counter_ns() if debug else 0
        self.bitmaps = diagonal_rows(pattern, injective, chunk_width)
        if debug:
            fit_ns = time.perf_counter_ns() - start
            live, words = _row_counts(self.bitmaps)
            logger.debug(
                "kmp fit: mode=%s m=%d live_cells=%d bit_row_words=%d fit_ns=%d",
                "pvc" if injective else "fvc", len(pattern), live, words, fit_ns,
            )
        # Per shift j, each prefix variable with its first position: after
        # shift j of prefix length k it takes the window code at
        # k - j + that position.
        firsts = pattern.first_occurrences
        self._link_sources = [firsts[: len(vids)] for vids in pattern.variables_by_prefix]
        # (k, *binding values in variables_by_prefix[k] order) -> (j, succeeding)
        self._failure_cache: dict[tuple, tuple[int, dict[int, int]]] = {}
        self._dfa: Optional[_Dfa] = None  # built by the first scan that hands over

    def failure(self, k: int, pi: Substitution) -> tuple[int, Substitution]:
        """Resume data after a mismatch at pattern position k+1.

        Given the matched prefix length ``k`` and the bindings ``pi`` built
        over it (domain must equal the variables of that prefix; injective
        under pvc), return the largest shift j whose cell accepts ``pi``,
        together with the succeeding bindings for the first j positions.
        Shift 0 always qualifies, so the result is well-defined.
        """
        m = len(self.pattern)
        if not 1 <= k <= m:
            raise ValueError(f"prefix length {k} out of range 1..{m}")
        if self.injective and not pi.is_injective:
            raise ValueError("preceding bindings must be injective")
        expected = set(self.pattern.variables_by_prefix[k])
        if set(pi.forward) != expected:
            raise ValueError("bindings must cover exactly the variables of the prefix")
        # The cache keys on binding values alone, so they go in scan order.
        forward = {vid: pi.forward[vid] for vid in self.pattern.variables_by_prefix[k]}
        j, forward = self._failure_ids(k, forward)
        return j, Substitution(forward)

    def _failure_ids(self, k: int, forward: dict[int, int]) -> tuple[int, dict[int, int]]:
        """``failure`` on raw ids; ``forward``'s keys must be in
        ``variables_by_prefix[k]`` order, as the scan inserts them.  The
        returned dict is the caller's to mutate."""
        cache = self._failure_cache
        key = (k, *forward.values())
        hit = cache.get(key)
        if hit is not None:
            return hit[0], hit[1].copy()
        bitmaps = self.bitmaps
        words = list(bitmaps.valid[k])
        values = bitmaps.allow_value[k]
        defaults = bitmaps.allow_value_default[k]
        for vid, cid in forward.items():
            row = values.get((vid, cid)) or defaults.get(vid)
            if row is not None:
                and_words(words, row)
        if not self.injective:
            for (x, y), row in bitmaps.allow_distinct[k].items():
                if forward[x] != forward[y]:
                    and_words(words, row)
        j = highest_set_bit(words, bitmaps.chunk_width)
        codes = self.pattern.codes
        base = k - j
        succeeding: dict[int, int] = {}
        for vid, q in self._link_sources[j]:
            code = codes[base + q]
            succeeding[vid] = code if code >= 0 else forward[-1 - code]
        if len(cache) >= FAILURE_CACHE_CAP:
            logger.debug("kmp failure cache flushed at %d entries", len(cache))
            cache.clear()
        cache[key] = (j, succeeding)
        return j, succeeding.copy()

    def find_all(self, text: TextString) -> MatchReport:
        """Scan the text once, shifting through the failure rows on mismatch.

        The scan starts in the plain loop (:meth:`_scan`), moves to the
        lazy DFA (:meth:`_dfa_scan`) once failures run dense, and comes back
        for the rest of the text if the DFA's table fills up.
        """
        m, n = len(self.pattern), len(text)
        if m > n:
            return MatchReport([])
        tcodes = text.codes
        positions: list[int] = []
        i, k, forward = self._scan(tcodes, 0, n, 0, {}, positions, DFA_HANDOVER_INDEX)
        handover = handback = None
        fills = 0
        if i < n:
            handover = i
            i, k, forward, fills = self._dfa_scan(text, i, k, forward, positions)
            if i < n:
                handback = i
                self._scan(tcodes, i, n, k, forward, positions, n + 1)
        if logger.isEnabledFor(logging.DEBUG):
            dfa = self._dfa
            logger.debug(
                "kmp scan: n=%d handover=%s fills=%d handback=%s states=%d table_bytes=%d",
                n, handover, fills, handback,
                0 if dfa is None else len(dfa.rows), 0 if dfa is None else dfa.nbytes,
            )
        return MatchReport(positions)

    def _scan(
        self, tcodes: Sequence[int], i: int, n: int, k: int, forward: dict[int, int],
        positions: list[int], handover_at: int,
    ) -> tuple[int, int, dict[int, int]]:
        """The plain loop over ``tcodes[i:n]`` from scan state (k, forward).

        Appends the 1-based start of each match to ``positions`` and returns
        the state (i, k, forward) it stops in: at n, or from index
        ``handover_at`` on as soon as failures outnumber half of i.  This is
        the one copy of the match rule; the DFA fills its entries through
        it, one character at a time.
        """
        injective = self.injective
        pcodes = self.pattern.codes
        m = len(pcodes)
        failure = self._failure_ids
        failures = 0
        while i < n:
            code = pcodes[k]
            t = tcodes[i]
            if code >= 0:
                ok = code == t
            else:
                vid = -1 - code
                bound = forward.get(vid)
                if bound is None:
                    # pvc: a value bound to another variable is a mismatch
                    ok = not injective or t not in forward.values()
                    if ok:
                        forward[vid] = t
                else:
                    ok = bound == t
            if ok:
                i += 1
                k += 1
                if k < m:
                    continue
                positions.append(i - m + 1)
            elif k == 0:
                i += 1
                continue
            k, forward = failure(k, forward)
            failures += 1
            if i >= handover_at and failures * 2 > i:
                break
        return i, k, forward

    def _dfa_scan(
        self, text: TextString, i: int, k: int, forward: dict[int, int], positions: list[int]
    ) -> tuple[int, int, dict[int, int], int]:
        """The lazy DFA over the text from index i and scan state (k, forward).

        A warm step is one subscript; a missing entry is filled by
        :meth:`_fill`.  Returns (i, k, forward, fills): i is n, or the index
        where the table filled up and the plain loop should take over.
        """
        width = text.table.num_constants
        dfa = self._dfa
        if dfa is None:
            dfa = self._dfa = _Dfa(width)
        elif dfa.width < width:
            dfa.widen(width)
        m, n = len(self.pattern), len(text)
        emits = dfa.emits
        row = dfa.state((k, *forward.values()))
        fills = 0
        codes = iter(text.codes)
        codes.__setstate__(i)
        while True:
            for code in codes:
                target = row[code]
                if target is None:
                    break
                row = target
            else:
                i = n
                break
            i = n - codes.__length_hint__()  # the index past ``code``
            target = emits.get((id(row), code))
            if target is None:
                if dfa.nbytes >= DFA_TABLE_BYTES:
                    i -= 1
                    break
                fills += 1
                target, matched = self._fill(dfa, row, code)
                if not matched:
                    row = target
                    continue
            positions.append(i - m + 1)
            row = target
        key = row[-1]
        if i < n:
            logger.debug("kmp dfa flushed at %d states, %d bytes", len(dfa.rows), dfa.nbytes)
            dfa.clear()
        k = key[0]
        return i, k, dict(zip(self.pattern.variables_by_prefix[k], key[1:])), fills

    def _fill(self, dfa: "_Dfa", row: list, code: int) -> tuple[list, bool]:
        """Record the edge from ``row``'s state on ``code``: one character of
        the plain loop.  Returns the target row, and whether the edge
        completes a match.
        """
        key = row[-1]
        k = key[0]
        matched: list[int] = []
        forward = dict(zip(self.pattern.variables_by_prefix[k], key[1:]))
        _, k, forward = self._scan((code,), 0, 1, k, forward, matched, 2)  # 2: never hand over
        target = dfa.state((k, *forward.values()))
        if matched:
            dfa.emits[id(row), code] = target
            dfa.nbytes += _EDGE_BYTES
        else:
            row[code] = target
        return target, bool(matched)
