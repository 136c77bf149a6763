"""Shared test helpers: independent oracles kept separate from the library.

Everything here recomputes expected values from first principles (explicit
graphs, quadratic scans, exhaustive enumeration) so library bugs cannot
leak into the expectations.
"""

from __future__ import annotations

import itertools
import random
import string

from vcmatch.core import MODES, PatternString, Substitution, classify_input
from vcmatch.matchers import ALGORITHMS, make_matcher


def classify(pattern, text, variables=None):
    return classify_input(pattern, text, variables)


def var_id(table, char: str) -> int:
    """Registry id of the variable written as ``char``."""
    return table.variable_bytes.index(ord(char))


def const_id(table, char: str) -> int:
    """Registry id of the constant written as ``char``."""
    return table.constant_bytes.index(ord(char))


def sub(table, mapping: dict[str, str]) -> Substitution:
    """Build a substitution from character pairs via the symbol table."""
    return Substitution({var_id(table, k): const_id(table, v) for k, v in mapping.items()})


def char_map(table, pi: Substitution) -> dict[str, str]:
    return pi.as_char_map(table)


def border_array(codes) -> list[int]:
    """Classical longest-proper-border lengths, B[0..m]."""
    m = len(codes)
    borders = [0] * (m + 1)
    for k in range(2, m + 1):
        b = borders[k - 1]
        while b and codes[k - 1] != codes[b]:
            b = borders[b]
        borders[k] = b + 1 if codes[k - 1] == codes[b] else 0
    return borders


def exact_positions(pattern: str, text: str) -> list[int]:
    """1-based exact substring occurrences via str.find."""
    out = []
    start = text.find(pattern)
    while start != -1:
        out.append(start + 1)
        start = text.find(pattern, start + 1)
    return out


# --- explicit alignment graph, rebuilt from scratch -------------------------
#
# Aligning the first j pattern positions under the last j of the prefix
# P[1:k] identifies position pairs; nodes are every pattern constant plus
# the window-side variables and prefix-side variable copies.  Nodes are
# tagged ("constant", id), ("variable", id), ("prefix", id).


def _node(code: int, variable_kind: str):
    return (variable_kind, -1 - code) if code < 0 else ("constant", code)


def graph_nodes_edges(pattern: PatternString, k: int, j: int):
    codes = pattern.codes
    nodes = {("constant", c) for c in pattern.constants}
    for idx in range(k - j, k):
        nodes.add(_node(codes[idx], "variable"))
    edges = []
    for i in range(1, j + 1):
        wnode = _node(codes[k - j + i - 1], "variable")
        pnode = _node(codes[i - 1], "prefix")
        nodes.add(pnode)
        if wnode != pnode:
            edges.append((wnode, pnode))
    return nodes, edges


def graph_components(pattern: PatternString, k: int, j: int) -> list[set]:
    nodes, edges = graph_nodes_edges(pattern, k, j)
    parent = {node: node for node in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: dict = {}
    for node in nodes:
        groups.setdefault(find(node), set()).add(node)
    return list(groups.values())


def graph_is_valid(components) -> bool:
    return all(sum(1 for kind, _ in comp if kind == "constant") <= 1 for comp in components)


def graph_is_injectively_valid(components) -> bool:
    for comp in components:
        for kind in ("constant", "variable", "prefix"):
            if sum(1 for nk, _ in comp if nk == kind) > 1:
                return False
    return True


def component_of(components, node):
    for comp in components:
        if node in comp:
            return comp
    return {node}


def representative(comp):
    """Constant if the class has one, else the variable with the least id."""
    constants = sorted(i for kind, i in comp if kind == "constant")
    if constants:
        return ("constant", constants[0])
    variables = sorted(i for kind, i in comp if kind == "variable")
    return ("variable", variables[0])


# --- greedy matcher against an arbitrary target ------------------------------


def greedy_prefix_match(pattern: PatternString, length: int, target_codes, injective: bool):
    """Bindings mapping P[1:length] onto the target codes, or None.

    Greedy left-to-right construction is complete: each variable's image is
    forced by its first occurrence.
    """
    forward: dict[int, int] = {}
    image: set[int] = set()
    for idx in range(length):
        code = pattern.codes[idx]
        t = target_codes[idx]
        if code >= 0:
            if code != t:
                return None
        else:
            vid = -1 - code
            bound = forward.get(vid)
            if bound is None:
                if injective and t in image:
                    return None
                forward[vid] = t
                image.add(t)
            elif bound != t:
                return None
    return forward


def image_codes(pattern: PatternString, forward: dict[int, int], lo: int, hi: int) -> list[int]:
    """Constant codes of P[lo:hi] (1-based, inclusive) under the bindings."""
    out = []
    for idx in range(lo - 1, hi):
        code = pattern.codes[idx]
        out.append(code if code >= 0 else forward[-1 - code])
    return out


def bit_at(row: int, j: int) -> int:
    return (row >> j) & 1


def read_row(bitmaps, k: int, v: int, c=None, y=None):
    """Row (k, v, c), v's default row (k, v) when ``c`` is None, or (fvc)
    the tie row (k, v, y), read through the sparse fallbacks: a missing
    default or tie row is the live row, a missing value row v's default."""
    live = bitmaps.valid[k]
    if y is not None:
        return bitmaps.allow_distinct[k].get((v, y), live)
    default = bitmaps.allow_value_default[k].get(v, live)
    return default if c is None else bitmaps.allow_value[k].get((v, c), default)


def expected_failure(pattern: PatternString, k: int, forward: dict[int, int], injective: bool):
    """Reference failure function straight from the definition.

    Largest j < k such that some (injective, when asked) binding maps
    P[1:j] onto the image of P[k-j+1:k] under ``forward``; greedy search
    per candidate j, scanning downward.
    """
    for j in range(k - 1, -1, -1):
        target = image_codes(pattern, forward, k - j + 1, k)
        got = greedy_prefix_match(pattern, j, target, injective)
        if got is not None:
            return j, got
    raise AssertionError("shift 0 must always be feasible")


def random_pattern_text(rng: random.Random, max_m=10, max_n=40, num_variables=3, num_constants=3):
    """Small random classified instance (no planting; see crosscheck for that)."""
    variables = string.ascii_uppercase[:num_variables]
    constants = string.ascii_lowercase[:num_constants]
    m = rng.randint(1, max_m)
    n = rng.randint(1, max_n)
    pattern = "".join(
        rng.choice(variables) if rng.random() < 0.5 else rng.choice(constants)
        for _ in range(m)
    )
    text = "".join(rng.choice(constants) for _ in range(n))
    return classify_input(pattern, text)


def failure_chain(engine, k: int, forward: dict[int, int], t: int):
    """Reference for the kmp scan's walk after a mismatch at scan state
    (k, forward) on text code ``t``: one ``engine.failure`` call per link,
    retesting t after each, as a plain KMP loop does.

    Returns the links' states (j, bindings), t unread, and the state after
    t: (j + 1, bindings with t bound) at the first link where t fits, else
    (0, {}) once t fails at j = 0.
    """
    pattern = engine.pattern
    links = []
    while True:
        j, pi = engine.failure(k, Substitution(forward))
        forward = {vid: pi.forward[vid] for vid in pattern.variables_by_prefix[j]}
        links.append((j, dict(forward)))
        code = pattern.codes[j]
        if code >= 0:
            fits = code == t
        elif -1 - code in forward:
            fits = forward[-1 - code] == t
        else:
            fits = not engine.injective or t not in forward.values()
            if fits:
                forward[-1 - code] = t
        if fits:
            return links, (j + 1, forward)
        if j == 0:
            return links, (0, {})
        k = j


def scan_by_failures(engine, codes, handover_at: int):
    """Reference for the kmp plain loop without a lead: a match leaves state
    k = m, which every character mismatches, and each mismatch runs
    ``failure_chain``, counting a failure per link.  After a character's
    chain, from index ``handover_at`` on, failures that outnumber half of
    the index hand over before that character: the state returned is the
    one the character found.  Returns (i, k, forward, positions): the
    state (i, k) that ``KmpEngine._scan`` returns, the bindings of its
    window ``codes[i-k:i]``, and the matches."""
    pattern = engine.pattern
    m = len(pattern)
    k, forward, failures, positions = 0, {}, 0, []
    for i, t in enumerate(codes):
        code = pattern.codes[k] if k < m else None  # k = m: no symbol to fit
        if code is None:
            fits = False
        elif code >= 0:
            fits = code == t
        elif -1 - code in forward:
            fits = forward[-1 - code] == t
        else:
            fits = not engine.injective or t not in forward.values()
            if fits:
                forward[-1 - code] = t
        if fits:
            k += 1
        elif k:
            links, after = failure_chain(engine, k, forward, t)
            failures += len(links)
            if i >= handover_at and failures * 2 > i:
                return i, k, forward, positions
            k, forward = after
        if k == m:
            positions.append(i + 2 - m)
    return len(codes), k, forward, positions


def de_bruijn(alphabet: str, n: int) -> str:
    """The de Bruijn sequence B(len(alphabet), n), linearized: its cyclic
    form with the first n - 1 characters appended, so every string of
    length <= n over ``alphabet`` occurs in it as a window."""
    k = len(alphabet)
    a = [0] * (n + 1)
    out: list[int] = []

    def extend(t: int, p: int) -> None:  # Fredricksen-Kessler-Maiorana
        if t > n:
            if n % p == 0:
                out.extend(a[1 : p + 1])
            return
        a[t] = a[t - p]
        extend(t + 1, p)
        for symbol in range(a[t - p] + 1, k):
            a[t] = symbol
            extend(t + 1, t)

    extend(1, 1)
    cyclic = "".join(alphabet[symbol] for symbol in out)
    return cyclic + cyclic[: n - 1]


def exhaustive_disagreements(max_length: int) -> list[tuple[bytes, str, dict]]:
    """Every pattern of length 1..``max_length`` over ``abABC``, in both
    modes, on the linearized de Bruijn text B(3, 6) over ``abc`` (734
    characters: every window content of length <= 6 occurs, and the text
    is long enough for kmp to hand over to its DFA).  Each backend fits
    once and searches twice, so kmp's second search starts warm.  Returns
    (pattern, mode, reports) for each pair whose answers are not all
    naive's first one."""
    text = de_bruijn("abc", 6).encode()
    bad = []
    for length in range(1, max_length + 1):
        for praw in map(bytes, itertools.product(b"abABC", repeat=length)):
            for mode in MODES:
                reports = {}
                for algo in ALGORITHMS:
                    matcher = make_matcher(algo, mode=mode).fit(praw)
                    reports[algo] = matcher.predict(text)
                    reports[f"{algo} searched again"] = matcher.predict(text)
                if any(positions != reports["naive"] for positions in reports.values()):
                    bad.append((praw, mode, reports))
    return bad
