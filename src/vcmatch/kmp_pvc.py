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
the scan, failure function and bit rows live in :mod:`vcmatch.kmp`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterator, Optional, Sequence

from .core import PatternString, Record, TextString
from .kmp import MACHINE_WORD, KmpEngine, ShiftTable
from .kmp import build_bitmaps as build_t_bitmaps  # noqa: F401  (re-exported)
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

    def extend(self, prefix_code: int, window_code: int) -> Optional["PartnerEntry"]:
        """This cell with one more aligned pair; None if that kills it."""
        if prefix_code >= 0 and window_code >= 0:
            return self if prefix_code == window_code else None
        e = self.copy()
        ok = _absorb(e.var_const, e.const_var, e.var_prefix, e.prefix_var,
                     e.const_prefix, e.prefix_const, prefix_code, window_code)
        return e if ok else None

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


def _absorb(vc: dict, cv: dict, vp: dict, pv: dict, cp: dict, pc: dict, p: int, w: int) -> bool:
    """Add the aligned pair (prefix code ``p``, window code ``w``) to the
    partner maps, given in the order of ``PartnerEntry``'s fields, in
    place; False if the cell dies.

    The pair puts node b into node a's class, a and b and a third node t
    being of distinct kinds; ``ab`` maps each node of a's kind to its
    partner of b's kind and ``ba`` back, likewise ``at``/``ta`` and
    ``bt``/``tb``.  The cell dies if the class would then hold two nodes
    of one kind.
    """
    if p >= 0:
        if w >= 0:
            return p == w
        ab, ba, at, bt, ta, tb, a, b = vc, cv, vp, cp, pv, pc, -1 - w, p
    elif w < 0:
        ab, ba, at, bt, ta, tb, a, b = vp, pv, vc, pc, cv, cp, -1 - w, -1 - p
    else:
        ab, ba, at, bt, ta, tb, a, b = pc, cp, pv, cv, vp, vc, -1 - p, w
    current = ab.get(a)
    if current is not None:
        return current == b
    if b in ba:
        return False  # b already has a partner of a's kind
    a_t = at.get(a)
    b_t = bt.get(b)
    if a_t is not None and b_t is not None:
        return False  # two nodes of the third kind
    ab[a] = b
    ba[b] = a
    if a_t is not None:
        bt[b] = a_t
        tb[a_t] = b
    elif b_t is not None:
        at[a] = b_t
        ta[b_t] = a
    return True


def walk_diagonals(codes: Sequence[int], m: int, nv: int) -> Iterator[tuple[int, tuple]]:
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
    clashes.
    """
    live = (1 << m) - 1  # diagonals past k are shifted out of row k
    masks = pinned, _, clashing = defaultdict(int), {}, defaultdict(int)
    # Pair (P[q], w) is held as keys[q] + w: codes lie in -nv .. span - nv - 1.
    span = max(codes, default=0) + 1 + nv
    keys = [(code + nv) * span + nv for code in codes]
    states: list = []
    for i, w in enumerate(codes):  # i = k - 1
        dead = []
        for state in states:
            d = state[0]
            q = i - d
            pair = keys[q] + w
            held = state[1]
            if pair in held:
                continue
            held.add(pair)
            _, _, vc, cv, vp, pv, cp, pc = state  # unpacked past the skip, which most pairs take
            seen_vc, seen_vp, seen_cp = len(vc), len(vp), len(cp)
            bit = 1 << (m - d)
            if not _absorb(vc, cv, vp, pv, cp, pc, codes[q], w):
                live ^= bit
                dead.append(state)
                continue
            if len(vc) > seen_vc:  # a pin
                pinned[next(reversed(vc.items()))] ^= bit
            if len(vp) > seen_vp:  # a window variable met a prefix variable
                vid, prefix = next(reversed(vp.items()))
                for cid, other in cp.items():
                    if other != prefix:
                        clashing[vid, cid] ^= bit
            if len(cp) > seen_cp:  # a constant met a prefix variable
                cid, prefix = next(reversed(cp.items()))
                for vid, other in vp.items():
                    if other != prefix:
                        clashing[vid, cid] ^= bit
        if dead:
            states = [state for state in states if state not in dead]
        states.append((i + 1, set(), {}, {}, {}, {}, {}, {}))
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
