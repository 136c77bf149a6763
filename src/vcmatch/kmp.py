"""KMP-style engine for fvc (any binding) and pvc (injective) matching.

The classical border array generalizes here to a *shift table*: for every
matched prefix length k and candidate shift j, aligning the first j pattern
positions under the last j of the matched prefix identifies groups of
pattern positions that must carry equal text symbols.  The modes differ
only in the cell rule (``kmp_fvc.add_condition``, ``kmp_pvc._absorb``),
chosen by the engine's one switch, ``injective``.

The engine keeps only bit rows, one int each: per prefix length, the live
row and, in sparse dicts, the value, default and tie rows that restrict it
(:class:`BitmapSet`).  The failure function ANDs the live row with the
stored rows its bindings select and takes the highest set bit.  Cell (k, j)
is cell (k-1, j-1) plus one aligned pair, so the fit (:func:`diagonal_rows`)
walks every diagonal d = k - j once, holding one mutable cell state per
live diagonal and one int mask over the diagonals per event (a pin, tie or
clash); only a pair that changes a state flips a bit.  Each prefix length's
rows are built from those masks as the walk reaches it.  A prefix
variable's link, which rebuilds the succeeding bindings after a shift, is
read off the pattern: the window code aligned with its first occurrence.
pvc needs no tie rows: the preceding bindings are injective by
construction, and live pvc cells never tie two window variables together.

``ShiftTable`` (the cells, materialised) and ``flatten_rows`` (their bit
rows) are the inspectable reference the engine's rows are tested against.

The engine memoises the failure function per (prefix length, bindings) in
a cache flushed whenever it reaches ``FAILURE_CACHE_CAP`` entries.  Where
failures run dense, the scan itself becomes a lazily built DFA, as in RE2
(Cox, "Regular Expression Matching in the Wild"): its states are the scan
states (prefix length, bindings), and each transition is filled on first
use by one character of the plain loop.  A warm engine's scan (its table holds
states) starts in the DFA; any other hands over once failures outnumber half
of the characters read (from ``DFA_HANDOVER_INDEX`` on).  A table whose size
reaches ``DFA_TABLE_BYTES`` (estimated) is flushed, so memory stays bounded on
any input, and the scan hands back to the plain loop for the rest of the text.

The scan leaves state k = 0 only on a character that fits the pattern's
first symbol.  When that symbol is a constant and under 1 in ``SKIP_DENSITY``
characters of the text are that constant, the plain loop jumps from a
mismatch at k = 0 to its next occurrence with ``bytes.find``, as RE2 runs
memchr on a start state's first byte.  It skips only k = 0 mismatches, so
the scan visits the same states, computes the same failures and hands over
at the same index as without the jump.
"""

from __future__ import annotations

import logging
import sys
import time
from collections import defaultdict
from collections.abc import Iterable, Sequence

from .core import PatternString, Record, Substitution, TextString
from .naive import MatchReport

# The default chunk_width.  The fit checks it (>= 1), but it does not shape
# the rows; the parameter stays because acceptance criterion 10 pins it.
MACHINE_WORD = 64
# About 3 MiB of cached failure results with 26 variables.
FAILURE_CACHE_CAP = 2048
# A cold scan (a warm one starts in the DFA) hands over to the lazy DFA at
# the first failure from this text index on where failures outnumber half of
# the characters read ...
DFA_HANDOVER_INDEX = 256
# ... and hands back for the rest of the text when the DFA's table reaches
# DFA_TABLE_BYTES (estimated), which flushes it.  A scan whose states outgrow
# the table meets fresh states faster than it reuses them, and a step into a
# fresh state costs about 1.5x a step of the plain loop.  With a full
# failure cache beside it, an engine stays under 4 MiB.
DFA_TABLE_BYTES = 1 << 19
# The plain loop jumps to the pattern's leading constant when fewer than 1 in
# SKIP_DENSITY characters of the text are that constant.  A jump costs a few
# plain steps: searches of 32 KiB texts (CPython 3.11, 2 vCPUs) read x0.84-0.97
# with it at 1 in 8 and x0.41-0.70 at 1 in 32, but x0.96-1.20 at 1 in 2 to 4.
# Texts of 1-50 characters (perfbench's crosscheck-tiny) read level with it.
SKIP_DENSITY = 8
# Estimated bytes of a state beyond its key's values and row's entries (the
# tuple and list headers and a dict slot), and of an edge completing a match.
_STATE_BYTES = 160
_EDGE_BYTES = 128

logger = logging.getLogger(__name__)


def shift_rows(pattern: PatternString, injective: bool) -> Iterable[list]:
    """Yield the cell rows k = 1..m; ``row[j]`` is cell (k, j), None if dead.

    Cell (k, j) is cell (k-1, j-1) with prefix position j aligned under
    window position k, so only the previous row is kept.
    """
    cell_type = kmp_pvc.PartnerEntry if injective else kmp_fvc.ConditionEntry
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


class BitmapSet(Record):
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
    key at k names variables of ``variables_by_prefix[k]``.  A row is an
    int, bit j for shift j; rows may be shared.
    """

    _fields = ("valid", "allow_value", "allow_value_default", "allow_distinct")

    def __init__(
        self, valid: list, allow_value: list, allow_value_default: list, allow_distinct: list | None
    ) -> None:
        self.valid = valid
        self.allow_value = allow_value
        self.allow_value_default = allow_value_default
        self.allow_distinct = allow_distinct

    def max_valid_shift(self, k: int) -> int:
        """Largest live shift for prefix length k (the border length for
        variable-free patterns)."""
        return self.valid[k].bit_length() - 1


def _add_rows(bitmaps: BitmapSet, k: int, live: int, masks: tuple, shift: int) -> None:
    """Store the rows of prefix length k in ``bitmaps``.

    Shift j of k is bit j + ``shift`` of each int mask: ``live`` marks the
    live cells, and ``masks`` is the event dicts (pinned, tied, clashing):
    ``pinned[v, c]`` marks the cells forcing v to constant c, ``tied[x, y]``
    those making y the representative of x, and ``clashing[v, c]`` those
    whose classes of v and c hold different prefix variables.  An event
    mask's bits of dead cells are ignored, and a key with none on a live
    cell is deleted from its dict.  Each row is stored only where it
    differs from the row a lookup would otherwise use.  An empty event dict
    costs a test, so a prefix length without events costs a few stores.
    """
    pinned, tied, clashing = masks
    alive = live >> shift
    bitmaps.valid[k] = alive
    values: dict[tuple[int, int], int] = {}
    unpinned: dict[int, int] = {}
    if pinned:
        # Per pinned variable, the live cells pinning it to no constant:
        # pins are live cells, and one cell pins a variable at most once.
        for key, mask in pinned.items():
            mask &= live
            if mask:
                marks = values[key] = mask >> shift
                unpinned[key[0]] = unpinned.get(key[0], alive) ^ marks
        if len(values) < len(pinned):
            _drop_dead(pinned, values)
        # A variable pinned to one constant only may take that one wherever
        # it is live: its value row is the live row itself.  A pinned value
        # row differs from v's default row, which clears the pin.
        for key, marks in values.items():
            row = marks | unpinned[key[0]]
            values[key] = alive if row == alive else row
    if clashing:
        for key, marks in _row_marks(clashing, live, shift).items():
            default = unpinned.get(key[0], alive)
            row = values.get(key, default) & ~marks
            if row != default:
                values[key] = row
            elif key in values:
                del values[key]
    bitmaps.allow_value[k] = values
    bitmaps.allow_value_default[k] = unpinned
    if bitmaps.allow_distinct is not None:
        ties = {}
        if tied:
            ties = _row_marks(tied, live, shift)
            for key, marks in ties.items():
                ties[key] = alive ^ marks
        bitmaps.allow_distinct[k] = ties


def _row_marks(masks: dict, live: int, shift: int) -> dict:
    """Each key's mask on the live cells, shifted down by ``shift``; keys
    with none leave ``masks``."""
    marks = {}
    for key, mask in masks.items():
        mask &= live
        if mask:
            marks[key] = mask >> shift
    if len(marks) < len(masks):
        _drop_dead(masks, marks)
    return marks


def _drop_dead(masks: dict, marks: dict) -> None:
    """Delete the event keys of ``masks`` that ``marks`` lacks."""
    for key in masks.keys() - marks.keys():
        del masks[key]


def _unfilled_rows(m: int, injective: bool) -> BitmapSet:
    """A :class:`BitmapSet` with a slot per prefix length 1..m."""
    slots = [None] * (m + 1)
    return BitmapSet(slots, slots.copy(), slots.copy(), None if injective else slots.copy())


def flatten_rows(
    pattern: PatternString, rows: Iterable[list], injective: bool, chunk_width: int
) -> BitmapSet:
    """Bit rows read off materialised cell rows k = 1..m.

    The reference for :func:`diagonal_rows`, which the engine fits with:
    every live cell is read, and its events set its shift's bit.
    """
    if chunk_width < 1:
        raise ValueError("chunk_width must be positive")
    bitmaps = _unfilled_rows(len(pattern), injective)
    for k, row in enumerate(rows, 1):
        live = 0
        masks = defaultdict(int), defaultdict(int), defaultdict(int)
        for j, cell in enumerate(row):
            if cell is None:
                continue
            bit = 1 << j
            live |= bit
            for marks, pairs in zip(masks, cell.read()):
                for pair in pairs:
                    marks[pair] |= bit
        _add_rows(bitmaps, k, live, masks, 0)
    return bitmaps


def build_bitmaps(
    pattern: PatternString, table: ShiftTable, chunk_width: int = MACHINE_WORD
) -> BitmapSet:
    """Bit rows of a materialised table; equal to the engine's."""
    return flatten_rows(pattern, table.entries[1:], table.injective, chunk_width)


def diagonal_rows(
    pattern: PatternString, injective: bool, chunk_width: int = MACHINE_WORD
) -> BitmapSet:
    """The bit rows of ``pattern``, fitted one diagonal at a time.

    Cell (k, j) is cell (k-1, j-1) plus the pair (P[j-1], P[k-1]), so each
    diagonal d = k - j keeps one mutable cell state and, in lockstep over
    k, absorbs its pair in place until it dies.  A pair the state already
    satisfies costs a lookup or two.  The walk keeps one int mask over
    diagonals per event (a pin, tie or clash), bit m - d for diagonal d,
    and flips a bit on each real change.  After each k, that k's rows are
    the masks on the live diagonals, shifted down by m - k, and are built
    before the walk moves on.  Equal to :func:`flatten_rows` of the cell
    rows.
    """
    if chunk_width < 1:
        raise ValueError("chunk_width must be positive")
    m = len(pattern)
    bitmaps = _unfilled_rows(m, injective)
    walk = (kmp_pvc if injective else kmp_fvc).walk_diagonals(pattern)
    for k, (live, masks) in enumerate(walk, 1):
        _add_rows(bitmaps, k, live, masks, m - k)
    return bitmaps


def _row_counts(bitmaps: BitmapSet) -> tuple[int, int]:
    """Live cells, and the bytes of the distinct row ints held."""
    families = (bitmaps.allow_value, bitmaps.allow_value_default, bitmaps.allow_distinct or [None])
    rows = [*bitmaps.valid[1:]]
    for family in families:
        rows += [row for stored in family[1:] for row in stored.values()]
    live = sum(row.bit_count() for row in bitmaps.valid[1:])
    return live, sum({id(row): sys.getsizeof(row) for row in rows}.values())


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
            live, nbytes = _row_counts(self.bitmaps)
            logger.debug(
                "kmp fit: mode=%s m=%d live_cells=%d bit_row_bytes=%d fit_ns=%d",
                "pvc" if injective else "fvc", len(pattern), live, nbytes, fit_ns,
            )
        # Per shift j, each prefix variable with its first position: after
        # shift j of prefix length k it takes the window code at
        # k - j + that position.
        self._link_sources = pattern.index_prefixes()[2]
        # (k, *binding values in variables_by_prefix[k] order) -> (j, succeeding)
        self._failure_cache: dict[tuple, tuple[int, dict[int, int]]] = {}
        self._dfa: _Dfa | None = None  # built by the first scan that hands over
        # The leading constant's text code as 1 byte (None for a leading
        # variable): the plain loop's jump target.
        lead = pattern.codes[0]
        self._lead = bytes((lead,)) if lead >= 0 else None

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
        bits = bitmaps.valid[k]
        values = bitmaps.allow_value[k]
        defaults = bitmaps.allow_value_default[k]
        for vid, cid in forward.items():
            row = values.get((vid, cid))
            if row is None:
                row = defaults.get(vid)
            if row is not None:
                bits &= row
        if not self.injective:
            for (x, y), row in bitmaps.allow_distinct[k].items():
                if forward[x] != forward[y]:
                    bits &= row
        j = bits.bit_length() - 1
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

        A warm engine's scan (its DFA table holds states) starts in the lazy
        DFA (:meth:`_dfa_scan`), logging handover=0; any other starts in the
        plain loop (:meth:`_scan`) and moves to the DFA once failures run
        dense.  It comes back if the table fills up, which flushes it.  The
        plain loops jump to the leading constant when it is sparse in the
        text (:meth:`_skip_lead`), decided when the search's first plain
        loop starts and logged as skip=on or skip=off; a warm search that
        never hands back runs no plain loop and logs skip=off.
        """
        m, n = len(self.pattern), len(text)
        if m > n:
            return MatchReport([])
        tcodes = text.codes
        positions: list[int] = []
        warm = self._dfa is not None and bool(self._dfa.rows)  # a flush empties rows
        if warm:
            i, k, forward, lead = 0, 0, {}, None
        else:
            lead = self._skip_lead(tcodes)
            i, k, forward = self._scan(tcodes, 0, 0, {}, positions, DFA_HANDOVER_INDEX, lead)
        handover = handback = None
        fills = 0
        if i < n:
            handover = i
            i, k, forward, fills = self._dfa_scan(text, i, k, forward, positions)
            if i < n:
                handback = i
                if warm:
                    lead = self._skip_lead(tcodes)
                self._scan(tcodes, i, k, forward, positions, n + 1, lead)
        if logger.isEnabledFor(logging.DEBUG):
            dfa = self._dfa
            logger.debug(
                "kmp scan: n=%d handover=%s fills=%d handback=%s states=%d table_bytes=%d "
                "skip=%s",
                n, handover, fills, handback,
                0 if dfa is None else len(dfa.rows), 0 if dfa is None else dfa.nbytes,
                "off" if lead is None else "on",
            )
        return MatchReport(positions)

    def _skip_lead(self, tcodes: bytes) -> bytes | None:
        """The leading constant for the plain loop to jump to: ``_lead`` when
        fewer than 1 in ``SKIP_DENSITY`` characters of the text are it."""
        lead = self._lead
        if lead is not None and tcodes.count(lead) * SKIP_DENSITY >= len(tcodes):
            return None
        return lead

    def _scan(
        self, tcodes: Sequence[int], i: int, k: int, forward: dict[int, int],
        positions: list[int], handover_at: int, lead: bytes | None = None,
    ) -> tuple[int, int, dict[int, int]]:
        """The plain loop over ``tcodes[i:]`` from scan state (k, forward).

        ``tcodes`` is a text's codes, ``bytes`` or a tuple.  A ``bytes``
        subscript costs more than a tuple one while iterating costs the
        same, so the loop iterates from i, and an inner loop re-tests a
        character after each failure.  Appends the 1-based start of each
        match to ``positions`` and returns the state (i, k, forward) it
        stops in: at the end, or from index ``handover_at`` on as soon as
        failures outnumber half of i.  i is then the index past a character
        that completed a match, or the index of a character that failed,
        which the next loop must read again.  Given a ``lead``, the
        pattern's leading constant code as 1 byte, ``tcodes`` must be
        ``bytes``: a mismatch at k = 0 jumps to the lead's next occurrence,
        and the scan ends at n when there is none.  This is the one copy of
        the match rule; the DFA fills its entries through it, one character
        at a time and without a lead.
        """
        injective = self.injective
        pcodes = self.pattern.codes
        m = len(pcodes)
        failure = self._failure_ids
        failures = 0
        n = len(tcodes)
        chars = iter(tcodes)
        if i:
            chars.__setstate__(i)
        for t in chars:
            while True:
                code = pcodes[k]
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
                    k += 1
                    if k < m:
                        break
                    positions.append(n - chars.__length_hint__() - m + 1)
                elif k == 0:
                    if lead is not None:  # a pointer test: cheaper than bytes truth
                        i = tcodes.find(lead, n - chars.__length_hint__())
                        if i < 0:
                            return n, 0, {}
                        chars.__setstate__(i)
                    break
                k, forward = failure(k, forward)
                failures += 1
                if failures * 2 > handover_at:  # else no hand-over can be due
                    i = n - chars.__length_hint__()  # the index past t
                    if not ok:
                        i -= 1  # t failed: the next loop reads it again
                    if i >= handover_at and failures * 2 > i:
                        return i, k, forward
                if ok:  # a match moves on; a failed character is tested again
                    break
        return n, k, forward

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
        _, k, forward = self._scan((code,), 0, k, forward, matched, 2)  # 2: never hand over
        target = dfa.state((k, *forward.values()))
        if matched:
            dfa.emits[id(row), code] = target
            dfa.nbytes += _EDGE_BYTES
        else:
            row[code] = target
        return target, bool(matched)


# The cell rules build on this module, so they are imported once it is
# complete; a fit then finds its rule's walk without an import statement.
from . import kmp_fvc, kmp_pvc  # noqa: E402
