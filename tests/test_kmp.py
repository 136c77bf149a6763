import itertools
import logging
import random
import string
import tracemalloc

import pytest

from helpers import random_pattern_text
from vcmatch import kmp
from vcmatch.core import Substitution, classify_input, encode_pattern
from vcmatch.crosscheck import generate_case
from vcmatch.kmp import KmpEngine
from vcmatch.kmp_fvc import build_bitmaps, build_table
from vcmatch.kmp_pvc import PvcKmp, build_injective_table, build_t_bitmaps
from vcmatch.matchers import make_matcher


def table_succeeding(entry, prefix_vars, forward, injective):
    """Succeeding bindings read straight off a materialised cell."""
    if injective:
        return {
            vid: entry.prefix_const[vid]
            if vid in entry.prefix_const
            else forward[entry.prefix_var[vid]]
            for vid in prefix_vars
        }
    codes = {vid: entry.prefix_links[vid] for vid in prefix_vars}
    return {vid: code if code >= 0 else forward[-1 - code] for vid, code in codes.items()}


def table_accepts(entry, forward, injective):
    """Whether a materialised cell admits the preceding bindings."""
    if entry is None:
        return False
    if injective:
        for vid, cid in forward.items():
            if entry.var_const.get(vid, cid) != cid:
                return False  # pinned to another constant
            prefix = entry.var_prefix.get(vid)
            if prefix is not None and entry.const_prefix.get(cid, prefix) != prefix:
                return False  # cid's class holds another prefix variable
        return True
    for vid, rep in enumerate(entry.reps):
        if vid in forward and forward[vid] != (rep if rep >= 0 else forward[-1 - rep]):
            return False
    return True


def pattern_succeeding(P, k, j, forward):
    """Succeeding bindings from the pattern: each prefix variable takes the
    window code aligned with its first occurrence."""
    first = {}
    for q, code in enumerate(P.codes):
        first.setdefault(code, q)
    return {
        vid: code if code >= 0 else forward[-1 - code]
        for vid in P.variables_by_prefix[j]
        for code in [P.codes[k - j + first[-1 - vid]]]
    }


def draw_bindings(rng, P, k, injective):
    """Bindings of the prefix variables, mostly to pattern constants (so deep
    shifts are accepted), sometimes to a constant no pattern position holds."""
    prefix = P.variables_by_prefix[k]
    consts = [c.id for c in P.constants]
    fresh = itertools.count(P.table.num_constants)
    if injective:
        values = rng.sample(consts, min(len(consts), len(prefix)))
        values += [next(fresh) for _ in range(len(prefix) - len(values))]
        rng.shuffle(values)
        values = [next(fresh) if rng.random() < 0.15 else v for v in values]
    else:
        values = [
            rng.choice(consts) if consts and rng.random() < 0.85 else next(fresh)
            for _ in prefix
        ]
    return dict(zip(prefix, values))


def periodic_pattern(rng, max_m=64):
    unit = "".join(rng.choice("ABCDabc") for _ in range(rng.randint(1, 4)))
    m = rng.randint(1, max_m)
    return encode_pattern((unit * m)[:m].encode())


def test_fit_does_not_retain_the_cell_table():
    # (aABC)*128 keeps all 131,328 shift cells live; a fit that holds them
    # peaks near 166 MiB, the bit rows alone take about 1 MiB.
    pattern = encode_pattern(b"aABC" * 128)
    tracemalloc.start()
    try:
        engine = PvcKmp(pattern)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert engine.bitmaps.max_valid_shift(512) == 511
    assert peak < 40 * 2**20


def test_worst_case_fit_keeps_only_bit_rows():
    # Every shift of (a A..Z)*20 under pvc stays live with up to 26 pins
    # and clashes; the cell-by-cell fit traced 132 MiB here.
    pattern = encode_pattern((b"a" + string.ascii_uppercase.encode()) * 20)
    tracemalloc.start()
    try:
        engine = PvcKmp(pattern)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert engine.bitmaps.max_valid_shift(len(pattern)) == len(pattern) - 1
    assert peak < 24 * 2**20


@pytest.mark.parametrize("injective", [False, True])
# 7 has no struct word format, so its rows are cut word by word.
@pytest.mark.parametrize("chunk_width", [7, 8, 16, 64])
def test_streamed_fit_equals_materialised_table(injective, chunk_width):
    rng = random.Random(60 + chunk_width + injective)
    patterns = [random_pattern_text(rng, max_m=12, num_variables=4)[0] for _ in range(40)]
    patterns += [periodic_pattern(rng) for _ in range(15)]
    for P in patterns:
        engine = KmpEngine(P, injective, chunk_width)
        if injective:
            table = build_injective_table(P)
            assert engine.bitmaps == build_t_bitmaps(P, table, chunk_width)
        else:
            table = build_table(P)
            assert engine.bitmaps == build_bitmaps(P, table, chunk_width)
        for k in range(1, len(P) + 1):
            for _ in range(3):
                forward = draw_bindings(rng, P, k, injective)
                if not injective:
                    # The pattern gives every live cell's links.
                    for j in range(k):
                        entry = table.entry(k, j)
                        if entry is not None:
                            assert pattern_succeeding(P, k, j, forward) == table_succeeding(
                                entry, P.variables_by_prefix[j], forward, False
                            )
                # The failure function takes the deepest cell that admits
                # the bindings, and rebuilds what that cell rebuilds.
                j = max(j for j in range(k) if table_accepts(table.entry(k, j), forward, injective))
                expected = table_succeeding(
                    table.entry(k, j), P.variables_by_prefix[j], forward, injective
                )
                assert engine._failure_ids(k, dict(forward)) == (j, expected)


@pytest.mark.parametrize("injective", [False, True])
def test_fit_logs_one_debug_line(injective, caplog):
    P = encode_pattern(b"aABC" * 4)
    with caplog.at_level(logging.DEBUG, logger="vcmatch.kmp"):
        engine = KmpEngine(P, injective, chunk_width=8)
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("kmp fit:")]
    assert len(lines) == 1
    fields = dict(item.split("=") for item in lines[0].split()[2:])
    assert fields["mode"] == ("pvc" if injective else "fvc")
    assert fields["m"] == "16"
    # Every shift of (aABC)*4 is live in both modes.
    assert int(fields["live_cells"]) == 16 * 17 // 2
    assert int(fields["live_cells"]) == sum(
        bin(w).count("1") for row in engine.bitmaps.valid[1:] for w in row
    )
    assert int(fields["bit_row_words"]) >= sum(len(row) for row in engine.bitmaps.valid[1:])
    assert int(fields["fit_ns"]) > 0


@pytest.mark.parametrize("cap", [None, 1])  # a cap of 1 flushes on every miss
@pytest.mark.parametrize("mode", ["fvc", "pvc"])
@pytest.mark.parametrize("chunk_width", [8, 16, 64])
def test_cached_scans_equal_the_oracle(cap, mode, chunk_width, monkeypatch, caplog):
    if cap is not None:
        monkeypatch.setattr(kmp, "FAILURE_CACHE_CAP", cap)
    rng = random.Random(chunk_width + len(mode) + (cap or 0))
    for _ in range(15):
        praw, _ = generate_case(rng, max_m=12, repeat_bias=True)
        matcher = make_matcher("kmp", mode=mode, chunk_width=chunk_width).fit(praw)
        oracle = make_matcher("naive", mode=mode).fit(praw)
        # One engine serves several texts, each twice: later scans run on a
        # cache filled by earlier ones.
        for _ in range(3):
            _, traw = generate_case(rng, max_m=12, max_n=300, repeat_bias=True)
            expected = oracle.predict(traw)
            with caplog.at_level(logging.DEBUG, logger="vcmatch.kmp"):
                assert matcher.predict(traw) == expected
                assert matcher.predict(traw) == expected
            assert len(matcher.engine_._failure_cache) <= kmp.FAILURE_CACHE_CAP
            fresh = make_matcher("kmp", mode=mode, chunk_width=chunk_width).fit(praw)
            assert fresh.predict(traw) == expected
    assert ("kmp failure cache flushed" in caplog.text) == (cap == 1)


def test_failure_cache_hands_out_copies():
    P, _ = classify_input("ABAB", "ab")
    engine = KmpEngine(P, injective=False)
    a, b = P.table.constant("a").id, P.table.constant("b").id
    expected = (3, {0: b, 1: a})
    for _ in range(3):  # a miss, then hits; the scan writes into what it gets
        j, succeeding = engine._failure_ids(4, {0: a, 1: b})
        assert (j, succeeding) == expected
        succeeding[0] = b
        succeeding[2] = a


@pytest.mark.parametrize("injective", [False, True])
def test_failure_answers_do_not_depend_on_binding_order(injective):
    rng = random.Random(90 + injective)
    trials = 0
    while trials < 1500:
        P, _ = random_pattern_text(rng, max_m=10, num_variables=4)
        k = rng.randint(1, len(P))
        prefix = P.variables_by_prefix[k]
        num_consts = P.table.num_constants
        if len(prefix) < 2 or (injective and num_consts < len(prefix)):
            continue
        trials += 1
        if injective:
            values = rng.sample(range(num_consts), len(prefix))
        else:
            values = [rng.randrange(num_consts) for _ in prefix]
        shuffled = rng.sample(values, len(values))
        engine = KmpEngine(P, injective)
        for pairs in (
            list(zip(prefix, values))[::-1],
            zip(prefix, values[::-1]),
            zip(prefix[::-1], shuffled),
        ):
            pi = Substitution(dict(pairs))
            assert engine.failure(k, pi) == KmpEngine(P, injective).failure(k, pi)


def test_full_failure_cache_stays_small():
    # 26 distinct variables then a constant the text lacks: every text
    # character past the first 26 fails at k = 26 with new bindings.
    rng = random.Random(26)
    alphabet = string.ascii_lowercase[1:]
    text = "".join(rng.choice(alphabet) for _ in range(26 + kmp.FAILURE_CACHE_CAP))
    P, T = classify_input(string.ascii_uppercase + "a", text)
    engine = KmpEngine(P, injective=False)
    tracemalloc.start()
    try:
        engine.find_all(T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(engine._failure_cache) == kmp.FAILURE_CACHE_CAP
    assert peak <= 4 * 2**20
