"""KMP-style engine for fvc (any binding) and pvc (injective) matching.

The classical border array generalizes here to a *shift table*: for every
matched prefix length k and candidate shift j, aligning the first j pattern
positions under the last j of the matched prefix identifies groups of
pattern positions that must carry equal text symbols.  The modes differ
only in the cell rule (``kmp_fvc.ConditionEntry``, ``kmp_pvc.PartnerEntry``),
chosen by the engine's one switch, ``injective``.

Each row of cells is flattened as it is built into bit rows (little-endian
tuples of chunk_width-bit words) plus per-cell prefix links; the cells are
not kept.  The failure function is then a handful of word-wise ANDs and a
highest-set-bit scan.  pvc needs no pairwise-distinct rows: the preceding
bindings are injective by construction, and live pvc cells never tie two
window variables together.

The engine memoises the failure function per (prefix length, bindings), the
lazy-DFA idea of RE2: the cache is flushed whenever it reaches
``FAILURE_CACHE_CAP`` entries, so memory stays bounded on any input.
"""

from __future__ import annotations

import logging
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .core import PatternString, Substitution, TextString
from .naive import MatchReport

MACHINE_WORD = 64
# About 3 MiB of cached failure results with 26 variables.
FAILURE_CACHE_CAP = 2048

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

    * ``valid[k]``: bit j set iff cell (k, j) is alive.
    * ``allow_value[k][v][c]``: bit j cleared iff shift j forces variable v
      to a constant other than c, or (pvc) v's class holds a prefix
      variable and c's class a different one, or the cell is dead.
    * ``allow_value_default[k][v]``: the same row for any constant that does
      not occur in the pattern (such a value can never satisfy a forced
      constant, so the row clears every shift whose class pins v down).
    * ``allow_distinct[k][x][y]`` (fvc; None for pvc): bit j cleared iff
      shift j makes y the representative of x, i.e. forces equal bindings.
      Queried in both orders, which makes the conjunction independent of
      representative choice.
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


def _clear(row: tuple, marks: list[int]) -> tuple:
    """``row`` with the bits of ``marks`` cleared."""
    return tuple(w & ~x for w, x in zip(row, marks))


def flatten_rows(
    pattern: PatternString, rows: Iterable[list], injective: bool, chunk_width: int
) -> tuple[BitmapSet, list]:
    """Bit rows and per-cell prefix links (a constant id, or ``-1 - window
    variable``) from the cell rows k = 1..m.

    Bits are accumulated directly into chunk_width-sized words so each live
    cell costs O(1) regardless of k; rows are then assembled word-wise.
    """
    if chunk_width < 1:
        raise ValueError("chunk_width must be positive")
    nv = pattern.table.num_variables
    sigma = [c.id for c in pattern.constants]
    prefix_vars = pattern.variables_by_prefix
    valid: list = [None]
    allow_value: list = [None]
    allow_default: list = [None]
    allow_distinct: Optional[list] = None if injective else [None]
    links: list = [None]
    for k, row in enumerate(rows, 1):
        nwords = -(-k // chunk_width)
        zeros = [0] * nwords
        alive = zeros.copy()
        # (v, c) -> shifts pinning v to c, tying v to representative c, or
        # clashing v with c, as word lists.
        pinned = defaultdict(zeros.copy)
        tied = defaultdict(zeros.copy)
        clashing = defaultdict(zeros.copy)
        row_links: list = [None] * k
        for j, cell in enumerate(row):
            if cell is None:
                continue
            word, offset = divmod(j, chunk_width)
            mask = 1 << offset
            alive[word] |= mask
            pins, ties, clashes, row_links[j] = cell.read(prefix_vars[j])
            for pair in pins:
                pinned[pair][word] |= mask
            for pair in ties:
                tied[pair][word] |= mask
            for pair in clashes:
                clashing[pair][word] |= mask
        valid.append(tuple(alive))
        links.append(row_links)
        alive_row = valid[k]
        free = [alive_row] * nv  # per variable: live shifts pinning it to no constant
        for (vid, _), pins in pinned.items():
            free[vid] = _clear(free[vid], pins)
        value_rows = [dict.fromkeys(sigma, unpinned) for unpinned in free]
        for (vid, cid), pins in pinned.items():
            value_rows[vid][cid] = tuple(f | p for f, p in zip(free[vid], pins))
        for (vid, cid), clashes in clashing.items():
            value_rows[vid][cid] = _clear(value_rows[vid][cid], clashes)
        allow_value.append(value_rows)
        allow_default.append(free)
        if allow_distinct is not None:
            distinct = [[alive_row] * nv for _ in range(nv)]
            for x in range(nv):
                distinct[x][x] = None
            for (x, y), ties in tied.items():
                distinct[x][y] = _clear(alive_row, ties)
            allow_distinct.append(distinct)
    bitmaps = BitmapSet(chunk_width, valid, allow_value, allow_default, allow_distinct)
    return bitmaps, links


def build_bitmaps(
    pattern: PatternString, table: ShiftTable, chunk_width: int = MACHINE_WORD
) -> BitmapSet:
    """Bit rows of a materialised table, as the engine builds them."""
    return flatten_rows(pattern, table.entries[1:], table.injective, chunk_width)[0]


class KmpEngine:
    """Preprocessed pattern: bit rows plus per-cell prefix links.

    The bit rows and links are immutable after construction; each text scan
    keeps its own cursor and bindings, so one instance may serve many texts.
    The one state that grows during searches is the failure cache, a pure
    cache: answers never depend on what it holds.
    """

    def __init__(
        self, pattern: PatternString, injective: bool, chunk_width: int = MACHINE_WORD
    ) -> None:
        self.pattern = pattern
        self.injective = injective
        self.bitmaps, self.links = flatten_rows(
            pattern, shift_rows(pattern, injective), injective, chunk_width
        )
        # (k, *binding values in variables_by_prefix[k] order) -> (j, succeeding)
        self._failure_cache: dict[tuple, tuple[int, dict[int, int]]] = {}

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
        value_rows = bitmaps.allow_value[k]
        default_rows = bitmaps.allow_value_default[k]
        for vid, cid in forward.items():
            row = value_rows[vid].get(cid)
            and_words(words, default_rows[vid] if row is None else row)
        if not self.injective and len(forward) > 1:
            distinct_rows = bitmaps.allow_distinct[k]
            items = list(forward.items())
            for x, cx in items:
                row_x = distinct_rows[x]
                for y, cy in items:
                    if x != y and cx != cy:
                        and_words(words, row_x[y])
        j = highest_set_bit(words, bitmaps.chunk_width)
        links = self.links[k][j]
        succeeding: dict[int, int] = {}
        i = 0  # a counter costs less than zip or enumerate on these short tuples
        for vid in self.pattern.variables_by_prefix[j]:
            code = links[i]
            succeeding[vid] = code if code >= 0 else forward[-1 - code]
            i += 1
        if len(cache) >= FAILURE_CACHE_CAP:
            logger.debug("kmp failure cache flushed at %d entries", len(cache))
            cache.clear()
        cache[key] = (j, succeeding)
        return j, succeeding.copy()

    def find_all(self, text: TextString) -> MatchReport:
        """Scan the text once, shifting through the failure rows on mismatch."""
        pattern = self.pattern
        m, n = len(pattern), len(text)
        if m > n:
            return MatchReport([])
        injective = self.injective
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
            k, forward = self._failure_ids(k, forward)
        return MatchReport(positions)
