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
rows are built from those masks as the walk reaches it.
pvc needs no tie rows: the preceding bindings are injective by
construction, and live pvc cells never tie two window variables together.

A scan state is a prefix length k at a text index i: the window
``tcodes[i-k:i]`` matches P[1:k], and every binding is read off it, the
window code under the variable's first occurrence.  Constant positions are
fixed, so the window maps one to one onto (k, bindings), and the scan
keeps nothing else.  A mismatch at state k resolves through the failure
chain, whose links are the shifts j in the window's failure set, the
shifts whose cells accept its bindings: as in classical KMP, the state at
link j, the window's last j codes, accepts exactly the shifts below j that
the window accepts.  So the scan computes the set once per mismatched
character, and each further link costs one test of the character against
P[j], a constant or a window code.  A match is no special case: it leaves
the scan in state k = m, which every character mismatches, so the
character after it walks state m's chain, which may complete the next
match.  The engine caches failure sets keyed by the window's bytes: an
entry holds the top link j, the code a character must be to fit P[j], and
the set's other shifts as an int.  The cache is flushed whenever it
reaches ``FAILURE_CACHE_CAP`` entries.

Where failures run dense, the scan itself becomes a lazily built DFA, as in
RE2 (Cox, "Regular Expression Matching in the Wild"): its states are the
windows, as ``bytes`` (k is the length), and each transition is filled on
first use by one character of the plain loop.  A warm engine's scan (its
table holds states) starts in the DFA unless it skips (below); any other
hands over once failures, one per chain link, outnumber half of the
characters read (from ``DFA_HANDOVER_INDEX`` on), before the character
whose walk made them do so.  A table whose size reaches ``DFA_TABLE_BYTES``
(estimated) is flushed, so memory stays bounded on any input, and the scan
hands back to the plain loop for the rest of the text.

The scan leaves state k = 0 only on a character that fits the pattern's
first symbol.  When that symbol is a constant and under 1 in ``SKIP_DENSITY``
characters of the text are that constant, the plain loop jumps from a
mismatch at k = 0 to its next occurrence with ``bytes.find``, as RE2 runs
memchr on a start state's first byte.  It skips only k = 0 mismatches, so
the scan visits the same states, computes the same failures and hands over
at the same index as without the jump; a search decides it once.
"""

from __future__ import annotations

import logging
import time
from operator import itemgetter

from .core import PatternString, Substitution, TextString
from .kmp_rows import MACHINE_WORD, BitmapSet, add_rows, row_counts, unfilled_rows
from .naive import MatchReport

# About 0.4 MiB of cached failure sets for A..Z then a constant (m = 27):
# an entry's key is its window, up to m bytes.
FAILURE_CACHE_CAP = 2048
# A scan that starts in the plain loop hands over to the lazy DFA at
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
# Estimated bytes of a state beyond its key's codes and row's entries (the
# bytes and list headers and a dict slot), and of an edge completing a match.
_STATE_BYTES = 160
_EDGE_BYTES = 128
# The scan's code for a variable's first occurrence: below any offset back
# to a first occurrence (-m..-1).
_FIRST = -(1 << 62)

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

    A state is a scan state's window, the ``bytes`` the failure cache keys
    on (k is its length), between two characters of the plain loop.  Its
    row is a list indexed by text code, holding the row of the state that
    code leads to, and the key in its last slot: a warm step is one
    subscript.  An entry is None until filled, and stays None for an edge
    that completes a match; ``emits`` holds those, keyed by (id(source
    row), code), so that only matches leave the fast path.
    """

    __slots__ = ("rows", "emits", "width", "nbytes")

    def __init__(self, width: int) -> None:
        self.rows: dict[bytes, list] = {}
        self.emits: dict[tuple[int, int], list] = {}
        self.width = width
        self.nbytes = 0

    def state(self, key: bytes) -> list:
        row = self.rows.get(key)
        if row is None:
            row = self.rows[key] = [None] * (self.width + 1)
            row[-1] = key
            self.nbytes += _STATE_BYTES + len(key) + 8 * self.width
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
    own cursor and prefix length, so one instance may serve many texts.  The
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
        # One pass over the pattern.  The scan's codes: a constant's code; at
        # a variable's first occurrence, _FIRST; at a later one q, the offset
        # from q back to the first, which reads its binding off the window.
        # At index m, a code no text character has: the character after a
        # match fails there.  Per prefix length, the reader of the binding
        # values off its window, in first-occurrence order (``_vids``): a
        # bytes slice where the first positions are consecutive (also for
        # fewer than two, where itemgetter would return a bare code), else a
        # tuple.
        self._first = first = {}  # pattern code -> first position
        firsts: list[int] = []
        codes: list[int] = []
        reader = itemgetter(slice(0))
        bound = [reader]
        for q, code in enumerate(pattern.codes):
            if code < 0:
                if code in first:
                    code = first[code] - q
                else:
                    first[code] = q
                    firsts.append(q)
                    lo = firsts[0]
                    consecutive = q - lo == len(firsts) - 1
                    reader = itemgetter(slice(lo, q + 1)) if consecutive else itemgetter(*firsts)
                    code = _FIRST
            codes.append(code)
            bound.append(reader)
        codes.append(256)
        self._codes = tuple(codes)
        self._bound = bound
        self._vids = [-1 - code for code in first]
        self._failure_cache: dict[bytes, tuple] = {}  # window -> _failure_set's entry
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
        if set(pi.forward) != set(self.pattern.variables_by_prefix[k]):
            raise ValueError("bindings must cover exactly the variables of the prefix")
        j, forward = self._failure_ids(k, pi.forward)
        return j, Substitution(forward)

    def _failure_ids(self, k: int, forward: dict[int, int]) -> tuple[int, dict[int, int]]:
        """``failure`` on raw ids: the failure chain's top link, for the
        window that ``forward`` binds P[1:k] to, and the bindings that
        link reads off the window."""
        window = bytes(c if c >= 0 else forward[-1 - c] for c in self.pattern.codes[:k])
        j = (self._failure_cache.get(window) or self._failure_set(window))[0]
        values = self._bound[j](window[k - j :])
        return j, dict(zip(self._vids, values))

    def _walk(self, window: bytes, t: int) -> tuple[int, int]:
        """Resolve text code ``t`` after a mismatch at the scan state whose
        window is ``window``.

        The links of the failure chain are the shifts j in the window's
        failure set, the shifts whose cells accept its bindings, from the
        largest down: the state at link j, the window's last j codes,
        accepts exactly the shifts below j that the window accepts.  So the
        set is computed once, and a link costs one test of t against P[j].
        Returns the prefix length after t, j + 1 at the first link j where
        t fits (0 if none does; m if t completes a match), and the number
        of links walked.
        """
        hit = self._failure_cache.get(window)
        if hit is None:
            hit = self._failure_set(window)
        j, want, rest = hit
        if want == t:
            return j + 1, 1
        k = len(window)
        injective = self.injective
        if want < 0 and not (injective and t in self._bound[j](window[k - j :])):
            return j + 1, 1
        pcodes = self._codes
        links = 1
        while rest:
            j = rest.bit_length() - 1
            rest ^= 1 << j
            links += 1
            code = pcodes[j]
            if code == _FIRST:  # P[j] binds its variable (under pvc, to a free t)
                if not (injective and t in self._bound[j](window[k - j :])):
                    return j + 1, links
            elif (code if code >= 0 else window[k + code]) == t:
                return j + 1, links
        return 0, links

    def _failure_set(self, window: bytes) -> tuple:
        """Compute the failure set of ``window``, the shifts whose cells
        accept the bindings read off it, and cache it under ``window``."""
        k = len(window)
        cache = self._failure_cache
        bitmaps = self.bitmaps
        bits = bitmaps.valid[k]
        values = bitmaps.allow_value[k]
        defaults = bitmaps.allow_value_default[k]
        if values or defaults:  # else every binding reads the live row
            for vid, cid in zip(self._vids, self._bound[k](window)):
                row = values.get((vid, cid))
                if row is None:
                    row = defaults.get(vid)
                if row is not None:
                    bits &= row
        if not self.injective:
            first = self._first
            for (x, y), row in bitmaps.allow_distinct[k].items():
                if window[first[-1 - x]] != window[first[-1 - y]]:
                    bits &= row
        j = bits.bit_length() - 1
        want = self._codes[j]
        if want < 0:
            want = -1 if want == _FIRST else window[k + want]
        if len(cache) >= FAILURE_CACHE_CAP:
            logger.debug("kmp failure cache flushed at %d entries", len(cache))
            cache.clear()
        # The entry: the top link j, the code t must be to fit P[j] (-1 when
        # P[j] is a variable's first occurrence), and the set's other shifts.
        entry = cache[window] = (j, want, bits ^ (1 << j))
        return entry

    def find_all(self, text: TextString) -> MatchReport:
        """Scan the text once, shifting through the failure rows on mismatch.

        The plain loops (:meth:`_scan`) jump to the leading constant when
        fewer than 1 in ``SKIP_DENSITY`` characters of the text are it,
        decided once per search and logged as skip=on or skip=off.  Without
        the jump, a warm engine (its DFA table holds states) starts in the
        lazy DFA (:meth:`_dfa_scan`), logging handover=0; any other scan
        starts in the plain loop and moves to the DFA once failures run
        dense.  It comes back if the table fills up, which flushes it.
        """
        m, n = len(self.pattern), len(text)
        if m > n:
            return MatchReport([])
        tcodes = text.codes
        positions: list[int] = []
        lead = self._lead
        if lead is not None and tcodes.count(lead) * SKIP_DENSITY >= n:
            lead = None
        i = k = 0
        if lead is not None or self._dfa is None or not self._dfa.rows:  # a flush empties rows
            i, k = self._scan(tcodes, 0, 0, positions, DFA_HANDOVER_INDEX, lead)
        handover = handback = None
        fills = 0
        if i < n:
            handover = i
            i, k, fills = self._dfa_scan(text, i, k, positions)
            if i < n:
                handback = i
                self._scan(tcodes, i, k, positions, n + 1, lead)
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

    def _scan(
        self, tcodes: bytes, i: int, k: int, positions: list[int], handover_at: int,
        lead: bytes | None = None,
    ) -> tuple[int, int]:
        """The plain loop over ``tcodes[i:]`` from prefix length k, whose
        window is ``tcodes[i-k:i]``.

        A bound variable's character is tested against the window code
        under its first occurrence; under pvc, a variable's first character
        against the codes under the other variables' first occurrences.  A
        character that fails at k > 0 is resolved by one :meth:`_walk` of
        its window's failure chain, which counts a failure per link.  A
        match leaves state k = m, where the scan's codes hold 256, a code no
        text character has, so the next character fails there and walks
        state m's chain.  Appends the 1-based start of each match to
        ``positions`` and returns the state (i, k) it stops in: at the end,
        or, from index ``handover_at`` on, before the first character whose
        walk makes failures outnumber half of its index i, in the state
        that character found, unread.  Given a ``lead``, the pattern's
        leading constant code as 1 byte, a mismatch at k = 0 jumps to the
        lead's next occurrence, and the scan ends at n when there is none.
        The DFA fills its entries through this loop, one character at a time
        and without a lead.
        """
        injective = self.injective
        pcodes = self._codes
        bound = self._bound
        first = _FIRST
        m = len(pcodes) - 1
        walk = self._walk
        failures = 0
        n = len(tcodes)
        chars = iter(tcodes)
        while True:
            chars.__setstate__(i)
            for i, t in enumerate(chars, i):
                code = pcodes[k]
                if code >= 0:
                    ok = code == t
                elif code != first:
                    ok = tcodes[i + code] == t
                else:
                    ok = not injective or t not in bound[k](tcodes[i - k : i])
                if ok:
                    k += 1
                    if k == m:
                        positions.append(i - m + 2)
                    continue
                if k:
                    after, links = walk(tcodes[i - k : i], t)
                    failures += links
                    if failures * 2 > i >= handover_at:
                        return i, k
                    k = after
                    if k:
                        if k == m:
                            positions.append(i - m + 2)
                        continue
                if lead is not None:  # a pointer test: cheaper than bytes truth
                    i = tcodes.find(lead, i + 1)
                    if i < 0:
                        return n, 0
                    break
            else:
                return n, k

    def _dfa_scan(
        self, text: TextString, i: int, k: int, positions: list[int]
    ) -> tuple[int, int, int]:
        """The lazy DFA over the text from index i and prefix length k.

        A warm step is one subscript; a missing entry is filled by
        :meth:`_fill`.  Returns (i, k, fills): i is n, or the index where
        the table filled up and the plain loop should take over.
        """
        width = text.table.num_constants
        dfa = self._dfa
        if dfa is None:
            dfa = self._dfa = _Dfa(width)
        elif dfa.width < width:
            dfa.widen(width)
        m, n = len(self.pattern), len(text)
        emits = dfa.emits
        row = dfa.state(text.codes[i - k : i])
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
        k = len(row[-1])
        if i < n:
            logger.debug("kmp dfa flushed at %d states, %d bytes", len(dfa.rows), dfa.nbytes)
            dfa.clear()
        return i, k, fills

    def _fill(self, dfa: "_Dfa", row: list, code: int) -> tuple[list, bool]:
        """Record the edge from ``row``'s state on ``code``: one character of
        the plain loop.  Returns the target row, and whether the edge
        completes a match.
        """
        window = row[-1] + bytes((code,))
        n = len(window)
        # The one character is at index n - 1, below the hand-over index n;
        # only a match reaches state m.
        _, k = self._scan(window, n - 1, n - 1, [], n)
        target = dfa.state(window[n - k :])
        matched = k == len(self.pattern)
        if matched:
            dfa.emits[id(row), code] = target
            dfa.nbytes += _EDGE_BYTES
        else:
            row[code] = target
        return target, matched


# The cell rules build on this module, so they are imported once it is
# complete; a fit then finds its rule's walk without an import statement.
from . import kmp_fvc, kmp_pvc  # noqa: E402
