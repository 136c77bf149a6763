"""KMP-style engine for fvc (any binding) and pvc (injective) matching.

The classical border array generalizes here to a *shift table*: for every
matched prefix length k and candidate shift j, aligning the first j pattern
positions under the last j of the matched prefix identifies groups of
pattern positions that must carry equal text symbols.  The modes differ
only in the cell rule (``kmp_fvc.add_condition``, ``kmp_pvc._absorb``),
chosen by the engine's one switch, ``injective``.

The engine keeps only bit rows, one int each: per prefix length, the live
row and, in sparse dicts, the value, default and tie rows that restrict it
(``BitmapSet``, in :mod:`vcmatch.kmp_rows` with the row assembly and the
reference).  A scan state's failure set ANDs the live row with the stored
rows its bindings select; its highest bit is the failure function.  Cell (k, j)
is cell (k-1, j-1) plus one aligned pair, so the fit (:func:`diagonal_rows`)
walks every diagonal d = k - j once, holding one mutable cell state per
live diagonal and one int mask over the diagonals per event (a pin, tie or
clash); only a pair that changes a state flips a bit.  Each prefix length's
rows are built from those masks as the walk reaches it.  A prefix
variable's link, which rebuilds the succeeding bindings after a shift, is
read off the pattern: the window code aligned with its first occurrence.
pvc needs no tie rows: the preceding bindings are injective by
construction, and live pvc cells never tie two window variables together.

A mismatch at scan state (k, bindings) resolves through the failure chain,
whose links are the shifts j in the failure set of (k, bindings), the
shifts whose cells accept the bindings: as in classical KMP, the state at
link j accepts exactly the shifts below j that (k, bindings) accepts, and
each link's bindings are read off the same window.  So the scan computes
the set once per mismatched character, and each further link costs one
test of the character against P[j].  A match is no special case: it leaves
the scan in state k = m, which every character mismatches, so the character
after it walks state m's chain, which may complete the next match.  The
engine caches failure sets per
(prefix length, bindings): an entry holds the top link j, its bindings,
the code a character must be to fit P[j] under them, and the set's other
shifts as an int.  The cache is flushed whenever it reaches
``FAILURE_CACHE_CAP`` entries.

Where failures run dense, the scan itself becomes a lazily built DFA, as in
RE2 (Cox, "Regular Expression Matching in the Wild"): its states are the
scan states (prefix length, bindings), and each transition is filled on
first use by one character of the plain loop.  A warm engine's scan (its
table holds states) starts in the DFA; any other hands over once failures,
one per chain link, outnumber half of the characters read (from
``DFA_HANDOVER_INDEX`` on), before the character whose walk made them do
so.  A table whose size reaches ``DFA_TABLE_BYTES``
(estimated) is flushed, so memory stays bounded on any input, and the scan
hands back to the plain loop for the rest of the text.

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
import time
from collections.abc import Sequence

from .core import PatternString, Substitution, TextString
from .kmp_rows import MACHINE_WORD, BitmapSet, add_rows, row_counts, unfilled_rows
from .naive import MatchReport

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
    before the walk moves on.  Equal to :func:`vcmatch.kmp_rows.flatten_rows`
    of the cell rows.
    """
    if chunk_width < 1:
        raise ValueError("chunk_width must be positive")
    m = len(pattern)
    bitmaps = unfilled_rows(m, injective)
    walk = (kmp_pvc if injective else kmp_fvc).walk_diagonals(pattern)
    for k, (live, masks) in enumerate(walk, 1):
        add_rows(bitmaps, k, live, masks, m - k)
    return bitmaps


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
            live, nbytes = row_counts(self.bitmaps)
            logger.debug(
                "kmp fit: mode=%s m=%d live_cells=%d bit_row_bytes=%d fit_ns=%d",
                "pvc" if injective else "fvc", len(pattern), live, nbytes, fit_ns,
            )
        # Per shift j, each prefix variable with its first position: after
        # shift j of prefix length k it takes the window code at
        # k - j + that position.
        self._link_sources = pattern.index_prefixes()[2]
        # The plain loop's pattern codes, with a code no text character has
        # at index m: the character after a match fails there.
        self._codes = (*pattern.codes, 256)
        # (k, *binding values in variables_by_prefix[k] order) -> _failure_set's entry
        self._failure_cache: dict[tuple, tuple] = {}
        # Each variable's first position: built by the first walk past a top link.
        self._firsts: dict[int, int] | None = None
        self._dfa: _Dfa | None = None  # built by the first scan that hands over
        # The leading constant's text code as 1 byte (None for a leading
        # variable): the plain loop's jump target.
        lead = pattern.codes[0]
        self._lead = bytes((lead,)) if lead >= 0 else None

    def failure(self, k: int, pi: Substitution) -> tuple[int, Substitution]:
        """Resume data after a mismatch at pattern position k+1, or, at
        k = m, after a match.

        Given the matched prefix length ``k`` and the bindings ``pi`` built
        over it (domain must equal the variables of that prefix; injective
        under pvc), return the largest shift j whose cell accepts ``pi``,
        together with the succeeding bindings for the first j positions.
        Shift 0 always qualifies, so the result is well-defined.  This is
        the top link of the chain that the scan walks (:meth:`_walk`).
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
        """``failure`` on raw ids: the failure chain's top link.  ``forward``'s
        keys must be in ``variables_by_prefix[k]`` order, as the scan inserts
        them.  The returned dict is the caller's to mutate."""
        key = (k, *forward.values())
        hit = self._failure_cache.get(key)
        if hit is None:
            hit = self._failure_set(key, forward)
        return hit[0], hit[1].copy()

    def _walk(self, k: int, forward: dict[int, int], t: int) -> tuple[int, dict[int, int], int]:
        """Resolve text code ``t`` after a mismatch at scan state (k, forward).

        The links of the failure chain are the shifts j in the failure set
        of (k, forward), the shifts whose cells accept its bindings, from
        the largest down: (j, pi_j) accepts exactly the shifts below j that
        (k, forward) accepts, and every shift reads its bindings off the
        same window.  So the set is computed once, and a link costs one
        test of t against P[j] under pi_j.  Returns the state after t at
        the first link where t fits (k = 0 if none does; k = m if t
        completes a match) and the number of links walked.  Only the
        returned link's bindings are built.
        """
        key = (k, *forward.values())
        hit = self._failure_cache.get(key)
        if hit is None:
            hit = self._failure_set(key, forward)
        j, succeeding, want, rest = hit
        if want == t:
            return j + 1, succeeding.copy(), 1
        if want < 0 and not (self.injective and t in succeeding.values()):
            succeeding = succeeding.copy()
            succeeding[-1 - want] = t
            return j + 1, succeeding, 1
        if not rest:
            return 0, {}, 1
        firsts = self._firsts
        if firsts is None:
            firsts = self._firsts = dict(self._link_sources[-1])
        pcodes = self.pattern.codes
        links = 1
        while rest:
            j = rest.bit_length() - 1
            rest ^= 1 << j
            links += 1
            code = pcodes[j]
            if code < 0:
                q = firsts[-1 - code]
                if q == j:  # P[j] binds its variable (under pvc, to a free t)
                    succeeding = self._bindings(k, forward, j)
                    if self.injective and t in succeeding.values():
                        continue
                    succeeding[-1 - code] = t
                    return j + 1, succeeding, links
                code = pcodes[k - j + q]  # the window code bound to it
                if code < 0:
                    code = forward[-1 - code]
            if code == t:
                return j + 1, self._bindings(k, forward, j), links
        return 0, {}, links

    def _failure_set(self, key: tuple, forward: dict[int, int]) -> tuple:
        """Compute the failure set of (k, forward), the shifts whose cells
        accept the bindings, and cache it under ``key``."""
        k = key[0]
        cache = self._failure_cache
        bitmaps = self.bitmaps
        bits = bitmaps.valid[k]
        values = bitmaps.allow_value[k]
        defaults = bitmaps.allow_value_default[k]
        if values or defaults:  # else every binding reads the live row
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
        succeeding = {}  # _bindings, inline: misses are most of a short search's failures
        for vid, q in self._link_sources[j]:
            code = codes[base + q]
            succeeding[vid] = code if code >= 0 else forward[-1 - code]
        want = codes[j]
        if want < 0:
            want = succeeding.get(-1 - want, want)
        if len(cache) >= FAILURE_CACHE_CAP:
            logger.debug("kmp failure cache flushed at %d entries", len(cache))
            cache.clear()
        # The entry: the top link j, its bindings, the code t must be to
        # fit P[j] under them (-1 - v when P[j] is v's first occurrence),
        # and the set's other shifts.
        entry = cache[key] = (j, succeeding, want, bits ^ (1 << j))
        return entry

    def _bindings(self, k: int, forward: dict[int, int], j: int) -> dict[int, int]:
        """pi_j: shift j's bindings, read off the window of (k, forward)."""
        codes = self.pattern.codes
        base = k - j
        succeeding: dict[int, int] = {}
        for vid, q in self._link_sources[j]:
            code = codes[base + q]
            succeeding[vid] = code if code >= 0 else forward[-1 - code]
        return succeeding

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
        same, so the loop iterates from i.  A character that fails at k > 0
        is resolved by one :meth:`_walk` of its failure chain, which counts
        a failure per link.  A match leaves state k = m, where the scan's
        codes hold 256, a code no text character has, so the next character
        fails there and walks state m's chain.  Appends the 1-based start
        of each match to ``positions`` and returns the state (i, k, forward)
        it stops in: at the end, or, from index ``handover_at`` on, before
        the first character whose walk makes failures outnumber half of its
        index i, in the state that character found, unread.  Given a
        ``lead``, the pattern's leading constant code as 1 byte, ``tcodes``
        must be ``bytes``: a mismatch at k = 0 jumps to the lead's next
        occurrence, and the scan ends at n when there is none.  The DFA
        fills its entries through this loop, one character at a time and
        without a lead.
        """
        injective = self.injective
        pcodes = self._codes
        m = len(pcodes) - 1
        walk = self._walk
        failures = 0
        n = len(tcodes)
        chars = iter(tcodes)
        if i:
            chars.__setstate__(i)
        for t in chars:
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
                if k == m:
                    positions.append(n - chars.__length_hint__() - m + 1)
                continue
            if k:
                j, succeeding, links = walk(k, forward, t)
                failures += links
                if failures * 2 > handover_at:  # else no hand-over can be due
                    i = n - chars.__length_hint__() - 1  # t's index
                    if i >= handover_at and failures * 2 > i:
                        return i, k, forward
                k, forward = j, succeeding
                if k:
                    if k == m:
                        positions.append(n - chars.__length_hint__() - m + 1)
                    continue
            if lead is not None:  # a pointer test: cheaper than bytes truth
                i = tcodes.find(lead, n - chars.__length_hint__())
                if i < 0:
                    return n, 0, {}
                chars.__setstate__(i)
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
        # The one character is at index 0, below any hand-over index >= 1;
        # 2 also spares a one-link walk the index computation.
        _, k, forward = self._scan((code,), 0, k, forward, matched, 2)
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
