"""Cell rule of the kmp engine for injective (pvc) matching.

A cell dies as soon as an alignment class would hold two window variables,
two prefix variables, or two constants, because no injective binding can
label such a class consistently.  Live classes therefore have at most one
node of each kind, so each cell stores plain partner maps instead of a
representative structure.  Besides pinning v to another constant, a cell
rules out binding variable v to constant c when v's class carries a prefix
variable and c's class a *different* one (a clash): the shift would assign
c to two prefix variables, which an injective succeeding binding cannot do.

The scan, failure function and bit rows live in :mod:`vcmatch.kmp`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .core import PatternString, TextString
from .kmp import MACHINE_WORD, KmpEngine, ShiftTable
from .kmp import BitmapSet as TBitmapSet  # noqa: F401  (re-exported)
from .kmp import build_bitmaps as build_t_bitmaps  # noqa: F401  (re-exported)
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

    @classmethod
    def start(cls, num_variables: int) -> "PartnerEntry":
        """The shift-0 cell: no partners."""
        return cls()

    def extend(self, prefix_code: int, window_code: int) -> Optional["PartnerEntry"]:
        """This cell with one more aligned pair; None if that kills it."""
        if prefix_code >= 0 and window_code >= 0:
            return self if prefix_code == window_code else None
        e = self.copy()
        if prefix_code >= 0:
            ok = _join(e.var_const, e.const_var, e.var_prefix, e.const_prefix,
                       e.prefix_var, e.prefix_const, -1 - window_code, prefix_code)
        elif window_code < 0:
            ok = _join(e.var_prefix, e.prefix_var, e.var_const, e.prefix_const,
                       e.const_var, e.const_prefix, -1 - window_code, -1 - prefix_code)
        else:
            ok = _join(e.prefix_const, e.const_prefix, e.prefix_var, e.const_var,
                       e.var_prefix, e.var_const, -1 - prefix_code, window_code)
        return e if ok else None

    def read(self, prefix_vars: tuple[int, ...]):
        """Pins (v, constant), ties, clashes (v, constant), links."""
        clashes = [
            (vid, cid)
            for cid, cp in self.const_prefix.items()
            for vid, vp in self.var_prefix.items()
            if vp != cp
        ]
        const_of = self.prefix_const
        links = [
            const_of[pid] if pid in const_of else -1 - self.prefix_var[pid]
            for pid in prefix_vars
        ]
        return self.var_const.items(), (), clashes, tuple(links)

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


def _join(ab: dict, ba: dict, at: dict, bt: dict, ta: dict, tb: dict, a: int, b: int) -> bool:
    """Put node ``b`` into node ``a``'s class; False if the class would then
    hold two nodes of one kind.

    a, b and a third node kind t are distinct kinds; ``ab`` maps each node
    of a's kind to its partner of b's kind and ``ba`` back, likewise
    ``at``/``ta`` and ``bt``/``tb``.
    """
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
