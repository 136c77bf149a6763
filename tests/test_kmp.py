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


def test_fit_does_not_retain_the_cell_table():
    # (aABC)*128 keeps all 131,328 shift cells live; a fit that holds them
    # peaks near 166 MiB, the bit rows and links alone take about 11 MiB.
    pattern = encode_pattern(b"aABC" * 128)
    tracemalloc.start()
    try:
        engine = PvcKmp(pattern)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert engine.bitmaps.max_valid_shift(512) == 511
    assert peak < 40 * 2**20


@pytest.mark.parametrize("injective", [False, True])
@pytest.mark.parametrize("chunk_width", [8, 16, 64])
def test_streamed_fit_equals_materialised_table(injective, chunk_width):
    rng = random.Random(60 + chunk_width + injective)
    for _ in range(40):
        P, _ = random_pattern_text(rng, max_m=12, num_variables=4)
        engine = KmpEngine(P, injective, chunk_width)
        if injective:
            table = build_injective_table(P)
            assert engine.bitmaps == build_t_bitmaps(P, table, chunk_width)
        else:
            table = build_table(P)
            assert engine.bitmaps == build_bitmaps(P, table, chunk_width)
        num_consts = P.table.num_constants
        for k in range(1, len(P) + 1):
            forward = {vid: rng.randrange(num_consts) for vid in P.variables_by_prefix[k]}
            for j in range(k):
                entry = table.entry(k, j)
                links = engine.links[k][j]
                assert (links is None) == (entry is None)
                if entry is None:
                    continue
                prefix_vars = P.variables_by_prefix[j]
                rebuilt = {
                    vid: code if code >= 0 else forward[-1 - code]
                    for vid, code in zip(prefix_vars, links)
                }
                assert rebuilt == table_succeeding(entry, prefix_vars, forward, injective)


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
