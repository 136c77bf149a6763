"""Bit rows of the kmp engine: their layout (:class:`BitmapSet`), their
assembly from the event masks of a prefix length (:func:`add_rows`, shared
by the engine's fit, :func:`vcmatch.kmp.diagonal_rows`, and the reference),
the row counts of the fit's debug line, and the inspectable reference: every
(prefix length, shift) cell materialised by its mode's cell rule
(``kmp_fvc.ConditionEntry``, ``kmp_pvc.PartnerEntry``) and the bit rows read
off those cells, which tests and the benchmark check the engine's rows
against.

They are kept apart from :mod:`vcmatch.kmp`, the scan, so that no module on
the find path is large: without a bytecode cache each process compiles the
find path's modules, and compiling the largest one sets the peak RSS of a
short search (CPython 3.11: ``import vcmatch.cli`` peaked 0.3 MiB higher with
a kmp.py of 4,500 tokens than with one of 3,900).
"""
from __future__ import annotations

import sys
from collections import defaultdict
from collections.abc import Iterable

from .core import PatternString, Record

# The default chunk_width.  The fit checks it (>= 1), but it does not shape
# the rows; the parameter stays because acceptance criterion 10 pins it.
MACHINE_WORD = 64


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


def add_rows(bitmaps: BitmapSet, k: int, live: int, masks: tuple, shift: int) -> None:
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


def unfilled_rows(m: int, injective: bool) -> BitmapSet:
    """A :class:`BitmapSet` with a slot per prefix length 1..m."""
    slots = [None] * (m + 1)
    return BitmapSet(slots, slots.copy(), slots.copy(), None if injective else slots.copy())


def row_counts(bitmaps: BitmapSet) -> tuple[int, int]:
    """Live cells, and the bytes of the distinct row ints held: the fit's
    debug line reports them."""
    families = (bitmaps.allow_value, bitmaps.allow_value_default, bitmaps.allow_distinct or [None])
    rows = [*bitmaps.valid[1:]]
    for family in families:
        rows += [row for stored in family[1:] for row in stored.values()]
    live = sum(row.bit_count() for row in bitmaps.valid[1:])
    return live, sum({id(row): sys.getsizeof(row) for row in rows}.values())


def shift_rows(pattern: PatternString, injective: bool) -> Iterable[list]:
    """Yield the cell rows k = 1..m; ``row[j]`` is cell (k, j), None if dead.

    Cell (k, j) is cell (k-1, j-1) with prefix position j aligned under
    window position k, so only the previous row is kept.
    """
    from . import kmp_fvc, kmp_pvc  # they import the engine, which imports this module

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


def flatten_rows(
    pattern: PatternString, rows: Iterable[list], injective: bool, chunk_width: int
) -> BitmapSet:
    """Bit rows read off materialised cell rows k = 1..m.

    The reference for :func:`vcmatch.kmp.diagonal_rows`, which the engine fits with:
    every live cell is read, and its events set its shift's bit.
    """
    if chunk_width < 1:
        raise ValueError("chunk_width must be positive")
    bitmaps = unfilled_rows(len(pattern), injective)
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
        add_rows(bitmaps, k, live, masks, 0)
    return bitmaps


def build_bitmaps(
    pattern: PatternString, table: ShiftTable, chunk_width: int = MACHINE_WORD
) -> BitmapSet:
    """Bit rows of a materialised table; equal to the engine's."""
    return flatten_rows(pattern, table.entries[1:], table.injective, chunk_width)
