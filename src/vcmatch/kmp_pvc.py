"""Cell rule of the kmp engine for injective (pvc) matching.

A cell dies as soon as an alignment class would hold two window variables,
two prefix variables, or two constants, because no injective binding can
label such a class consistently.  Live classes therefore have at most one
node of each kind, so each cell stores plain partner maps instead of a
representative structure.  Besides pinning v to another constant, a cell
rules out binding variable v to constant c when v's class carries a prefix
variable and c's class a *different* one (a clash): the shift would assign
c to two prefix variables, which an injective succeeding binding cannot do.

The engine's fit keeps one such cell per diagonal (:func:`walk_diagonals`);
the scan and failure function live in :mod:`vcmatch.kmp`, the bit rows in
:mod:`vcmatch.kmp_rows`.
"""

from __future__ import annotations

from collections.abc import Iterator

from .core import PatternString, Record, TextString
from .kmp import MACHINE_WORD, KmpEngine
from .kmp_rows import ShiftTable
from .kmp_rows import build_bitmaps as build_t_bitmaps  # noqa: F401  (re-exported)
from .naive import MatchReport


class PartnerEntry(Record):
    """Partner maps of one live cell; every class has <= 3 nodes.

    Window variables, prefix variables, and constants are linked pairwise;
    missing keys mean "no partner of that kind".
    """

    _fields = ("var_const", "const_var", "var_prefix", "prefix_var", "const_prefix", "prefix_const")

    def __init__(
        self,
        var_const: dict[int, int],
        const_var: dict[int, int],
        var_prefix: dict[int, int],
        prefix_var: dict[int, int],
        const_prefix: dict[int, int],
        prefix_const: dict[int, int],
    ) -> None:
        self.var_const = var_const
        self.const_var = const_var
        self.var_prefix = var_prefix
        self.prefix_var = prefix_var
        self.const_prefix = const_prefix
        self.prefix_const = prefix_const

    @classmethod
    def start(cls, num_variables: int) -> "PartnerEntry":
        """The shift-0 cell: no partners."""
        return cls({}, {}, {}, {}, {}, {})

    def extend(self, prefix_code: int, window_code: int) -> PartnerEntry | None:
        """This cell with one more aligned pair; None if that kills it."""
        if prefix_code >= 0 and window_code >= 0:
            return self if prefix_code == window_code else None
        e = self.copy()
        grew = _absorb(e.var_const, e.const_var, e.var_prefix, e.prefix_var,
                       e.const_prefix, e.prefix_const, prefix_code, window_code)
        return None if grew is None else e

    def read(self):
        """Pins (v, constant), ties, clashes (v, constant)."""
        clashes = [
            (vid, cid)
            for cid, cp in self.const_prefix.items()
            for vid, vp in self.var_prefix.items()
            if vp != cp
        ]
        return self.var_const.items(), (), clashes

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
        partners = {
            "variable": ((self.var_const, "constant"), (self.var_prefix, "prefix")),
            "constant": ((self.const_var, "variable"), (self.const_prefix, "prefix")),
            "prefix": ((self.prefix_var, "variable"), (self.prefix_const, "constant")),
        }
        if kind not in partners:
            raise ValueError(f"unknown node kind {kind!r}")
        return {(other, links[ident]) for links, other in partners[kind] if ident in links}


def _absorb(
    vc: dict, cv: dict, vp: dict, pv: dict, cp: dict, pc: dict, p: int, w: int
) -> int | None:
    """Add the aligned pair (prefix code ``p``, window code ``w``) to the
    partner maps, given in the order of ``PartnerEntry``'s fields, in
    place.  Returns None if the cell dies, else which of vc, vp and cp
    grew, as bits 1, 2 and 4 (0 when the class held the pair already).

    The pair puts node b into node a's class, a and b and a third node t
    being of distinct kinds; ``ab`` maps each node of a's kind to its
    partner of b's kind and ``ba`` back, likewise ``at``/``ta`` and
    ``bt``/``tb``.  The cell dies if the class would then hold two nodes
    of one kind.  ``grown`` holds the result when ab/ba grow alone, with
    bt/tb, and with at/ta.
    """
    if p >= 0:
        if w >= 0:
            return 0 if p == w else None
        ab, ba, at, bt, ta, tb, a, b = vc, cv, vp, cp, pv, pc, -1 - w, p
        grown = 1, 5, 3
    elif w < 0:
        ab, ba, at, bt, ta, tb, a, b = vp, pv, vc, pc, cv, cp, -1 - w, -1 - p
        grown = 2, 6, 3
    else:
        ab, ba, at, bt, ta, tb, a, b = pc, cp, pv, cv, vp, vc, -1 - p, w
        grown = 4, 5, 6
    current = ab.get(a)
    if current is not None:
        return 0 if current == b else None
    if b in ba:
        return None  # b already has a partner of a's kind
    a_t = at.get(a)
    b_t = bt.get(b)
    if a_t is not None and b_t is not None:
        return None  # two nodes of the third kind
    ab[a] = b
    ba[b] = a
    if a_t is not None:
        bt[b] = a_t
        tb[a_t] = b
        return grown[1]
    if b_t is not None:
        at[a] = b_t
        ta[b_t] = a
        return grown[2]
    return grown[0]


def walk_diagonals(pattern: PatternString) -> Iterator[tuple[int, tuple]]:
    """Walk every pvc diagonal d in lockstep over k, adding the pair
    (P[k-d-1], P[k-1]) to its cell; after each k, yield the live mask and
    the (pin, tie, clash) masks that :func:`vcmatch.kmp.diagonal_rows`
    builds that k's rows from.

    A mask holds bit m - d for diagonal d; an event's mask may keep bits of
    diagonals that died, and the reader may delete an event with no live
    bit from its dict.  A state is (d, held, *partner maps) in the order
    of ``PartnerEntry``'s fields, ``held`` being the pairs the cell has
    absorbed: classes only grow, so a held pair is skipped, and a class of
    at most three nodes holds only a few pairs.  ``_absorb`` adds at most
    one partner to each map and never replaces one, so a map that grew
    holds its new partner last; only those partners bring new pins and
    clashes.  Diagonal d starts at k = d + 1 with the pair (P[0], P[d]); two
    different constants there kill it before it gets a state, and a pair of
    equal constants adds no partner.
    """
    codes = pattern.codes
    m = len(codes)
    nv = pattern.table.num_variables
    # Pair (P[q], w) is held as keys[q] + w: codes lie in -nv .. span - nv - 1.
    span = pattern.table.num_constants + nv
    keys = [(code + nv) * span + nv for code in codes]
    live = (1 << m) - 1  # diagonals past k are shifted out of row k
    masks = pinned, _, clashing = {}, {}, {}
    states: list = []
    lead = codes[0]
    yield live, masks  # k = 1: shift 0 alone
    for i in range(1, m):  # i = k - 1
        w = codes[i]
        if lead >= 0 and w >= 0 and lead != w:  # diagonal i dies at its first pair
            live ^= 1 << (m - i)
        else:
            states.append((i, set(), {}, {}, {}, {}, {}, {}))  # diagonal i starts here
        dead = []
        for state in states:
            d = state[0]
            q = i - d
            pair = keys[q] + w
            held = state[1]
            if pair in held:
                continue
            held.add(pair)
            p = codes[q]
            if p >= 0 and w >= 0:  # two constants: no partner to add
                if p != w:
                    live ^= 1 << (m - d)
                    dead.append(state)
                continue
            _, _, vc, cv, vp, pv, cp, pc = state  # unpacked past the skips, which most pairs take
            grew = _absorb(vc, cv, vp, pv, cp, pc, p, w)
            bit = 1 << (m - d)
            if grew is None:
                live ^= bit
                dead.append(state)
                continue
            if grew & 1:  # a pin
                key = next(reversed(vc.items()))
                pinned[key] = pinned.get(key, 0) ^ bit
            if grew & 2:  # a window variable met a prefix variable
                vid, prefix = next(reversed(vp.items()))
                for cid, other in cp.items():
                    if other != prefix:
                        clashing[vid, cid] = clashing.get((vid, cid), 0) ^ bit
            if grew & 4:  # a constant met a prefix variable
                cid, prefix = next(reversed(cp.items()))
                for vid, other in vp.items():
                    if other != prefix:
                        clashing[vid, cid] = clashing.get((vid, cid), 0) ^ bit
        if dead:
            states = [state for state in states if state not in dead]
        yield live, masks


def build_injective_table(pattern: PatternString) -> ShiftTable:
    return ShiftTable(pattern, injective=True)


class PvcKmp(KmpEngine):
    """The kmp engine for pvc matching."""

    def __init__(self, pattern: PatternString, chunk_width: int = MACHINE_WORD) -> None:
        super().__init__(pattern, True, chunk_width)


def match_pvc(
    pattern: PatternString, text: TextString, chunk_width: int = MACHINE_WORD
) -> MatchReport:
    """One-shot pvc matching; build :class:`PvcKmp` directly to reuse the
    preprocessing across texts."""
    return PvcKmp(pattern, chunk_width).find_all(text)
