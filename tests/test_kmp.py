import gc
import itertools
import logging
import random
import string
import sys
import tracemalloc

import pytest

from helpers import (
    failure_chain,
    greedy_prefix_match,
    image_codes,
    random_pattern_text,
    scan_by_failures,
)
from vcmatch import kmp
from vcmatch.bench import make_inputs
from vcmatch.core import Substitution, classify_input, encode_pattern, encode_text
from vcmatch.crosscheck import generate_case
from vcmatch.kmp import KmpEngine
from vcmatch.kmp_fvc import FvcKmp, build_bitmaps, build_table
from vcmatch.kmp_pvc import PvcKmp, build_injective_table, build_t_bitmaps
from vcmatch.matchers import make_matcher
from vcmatch.naive import naive_all


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
    consts = list(P.constants)
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


def test_long_pattern_fit_retains_one_int_per_row():
    # (a A..Z)*20 under pvc stores about 28,000 rows of up to 540 bits: about
    # 3 MiB as one int each, 7.6 MiB as tuples of 64-bit words.
    pattern = encode_pattern((b"a" + string.ascii_uppercase.encode()) * 20)
    tracemalloc.start()
    try:
        engine = PvcKmp(pattern)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert engine.bitmaps.max_valid_shift(len(pattern)) == len(pattern) - 1
    assert retained < 5 * 2**20


def test_fvc_fit_peaks_near_the_rows_it_keeps():
    # The fit builds each prefix length's rows as its walk reaches it, so
    # beside the rows it holds one mask per event.  A fit that holds every
    # event's masks for all k = 1..m before building rows peaks at 1.9x the
    # retained bytes here.
    pattern = encode_pattern((b"a" + string.ascii_uppercase.encode()) * 20)
    gc.collect()
    tracemalloc.start()
    try:
        engine = FvcKmp(pattern)
        peak = tracemalloc.get_traced_memory()[1]
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert engine.bitmaps.max_valid_shift(len(pattern)) == len(pattern) - 1
    assert peak <= 1.5 * retained, (peak, retained)


@pytest.mark.parametrize("injective", [False, True])
def test_sparse_rows_differ_from_their_fallbacks(injective):
    rng = random.Random(80 + injective)
    patterns = [random_pattern_text(rng, max_m=12, num_variables=4)[0] for _ in range(40)]
    patterns += [periodic_pattern(rng) for _ in range(15)]
    stored = 0
    for P in patterns:
        bitmaps = KmpEngine(P, injective, rng.choice([8, 64])).bitmaps
        for k in range(1, len(P) + 1):
            live = bitmaps.valid[k]
            defaults = bitmaps.allow_value_default[k]
            assert all(row != live for row in defaults.values())
            values = bitmaps.allow_value[k]
            assert all(row != defaults.get(v, live) for (v, _), row in values.items())
            stored += len(defaults) + len(values)
            if injective:
                assert bitmaps.allow_distinct is None
                continue
            # The failure function reads forward[x] and forward[y] of each tie.
            prefix_vars = set(P.variables_by_prefix[k])
            for (x, y), row in bitmaps.allow_distinct[k].items():
                assert row != live and {x, y} <= prefix_vars
                stored += 1
    assert stored


@pytest.mark.parametrize("injective", [False, True])
# chunk_width does not shape the rows: every width fits the same ones.
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
def test_every_short_pattern_fits_the_reference_rows(injective):
    # Every pattern of length 1-5 over two constants and two variables,
    # prefix lengths without a pin, tie or clash among them: the fit's rows
    # equal the materialised table's, and two searches (a cold one that
    # hands over to the DFA, then a warm one) leave them as a fresh fit's.
    rng = random.Random(90 + injective)
    texts = (bytes(rng.choice(b"abAB") for _ in range(300)), b"abbaab")
    reference = build_t_bitmaps if injective else build_bitmaps
    table_of = build_injective_table if injective else build_table
    handed_over = 0
    for m in range(1, 6):
        for raw in map(bytes, itertools.product(b"abAB", repeat=m)):
            P = encode_pattern(raw)
            engine = KmpEngine(P, injective)
            assert engine.bitmaps == reference(P, table_of(P)), raw
            for text in texts:
                engine.find_all(encode_text(text, P.table))
            handed_over += engine._dfa is not None
            assert engine.bitmaps == KmpEngine(encode_pattern(raw), injective).bitmaps, raw
    assert handed_over > 500


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
    assert int(fields["live_cells"]) == sum(row.bit_count() for row in engine.bitmaps.valid[1:])
    # The distinct row ints' bytes: at least the live rows' bits, at most
    # every stored row counted once per reference.
    bitmaps = engine.bitmaps
    families = (bitmaps.allow_value, bitmaps.allow_value_default, bitmaps.allow_distinct or [None])
    rows = [*bitmaps.valid[1:], *(row for f in families for d in f[1:] for row in d.values())]
    live_bytes = sum(-(-row.bit_length() // 8) for row in bitmaps.valid[1:])
    assert live_bytes <= int(fields["bit_row_bytes"]) <= sum(map(sys.getsizeof, rows))
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


@pytest.mark.parametrize("injective", [False, True])
def test_walk_equals_the_failure_chain(injective):
    # One failure set per mismatched character: the walk reaches the state
    # that a failure call and a retest per link reach, in as many links.
    rng = random.Random(1900 + injective)
    deep = 0
    for trial in range(300):
        if trial % 3:
            P, _ = random_pattern_text(rng, max_m=12, num_variables=4)
        else:
            P = periodic_pattern(rng, max_m=40)
        engine = KmpEngine(P, injective)
        for _ in range(10):
            k = rng.randint(1, len(P))
            forward = draw_bindings(rng, P, k, injective)
            t = rng.randrange(P.table.num_constants + 1)  # the last code: no pattern constant
            links, after = failure_chain(engine, k, forward, t)
            window = bytes(image_codes(P, forward, 1, k))
            j, count = engine._walk(window, t)
            assert (j, count) == (after[0], len(links))
            # The state after t: the last j codes of the window and t.
            assert greedy_prefix_match(P, j, (window + bytes((t,)))[k + 1 - j :], injective) == after[1]
            assert engine._failure_ids(k, dict(forward)) == links[0]
            deep += len(links) > 2
    assert deep > 100


@pytest.mark.parametrize("injective", [False, True])
def test_a_failing_character_computes_its_failure_set_once(injective):
    # (aABC)*32 over a run of "axyz" that matches, then "au": "u" fails at
    # k = 125 against A = "x", and its chain holds every shift j = 1 (mod 4)
    # below, 31 links, down to A's first occurrence.  The walk computes
    # that set once: the cache holds it and the post-match failures' one
    # key, where a failure call per link would leave 32 entries.
    P, T = classify_input(b"aABC" * 32, b"axyz" * 40 + b"au")
    engine = KmpEngine(P, injective)
    positions = engine.find_all(T).positions
    assert positions == naive_all(P, T, mode="pvc" if injective else "fvc").positions
    assert positions == list(range(1, 34, 4))
    assert sorted(len(key) for key in engine._failure_cache) == [125, 128]


@pytest.mark.parametrize("injective", [False, True])
def test_a_match_resolves_through_the_next_characters_chain(injective):
    # (aABC)*2 over "axyz"*2 + "q": the match leaves the scan in state
    # k = 8, and "q" fails there.  Its walk down state 8's chain (links 4
    # and 0) is the only failure-set computation: no set is computed for
    # the match itself, nor for state 4.
    P, T = classify_input(b"aABC" * 2, b"axyz" * 2 + b"q")
    engine = KmpEngine(P, injective)
    positions = engine.find_all(T).positions
    assert positions == naive_all(P, T, mode="pvc" if injective else "fvc").positions
    assert positions == [1]
    assert [len(key) for key in engine._failure_cache] == [8]


@pytest.mark.parametrize("injective", [False, True])
def test_plain_loop_hands_over_where_a_failure_per_link_would(injective):
    # The walk counts a failure per link, and a hand-over due after a
    # character's walk leaves before that character: the plain loop stops
    # in the same state, at the same index, with the same matches as a
    # loop that calls the failure function once per link.  Early hand-over
    # indexes let one long chain pass half of the index.
    rng = random.Random(1910 + injective)
    handed_over = 0
    for _ in range(200):
        P = periodic_pattern(rng, max_m=24)
        pieces = [bytes(P.table.constant_bytes) or b"a", b"ab", b"abc", b"xyz"]
        raw = b"".join(rng.choice(pieces) for _ in range(100))[:300]
        T = encode_text(raw, P.table)
        engine = KmpEngine(P, injective)
        handover_at = rng.choice((2, 8, 64))
        positions = []
        state = engine._scan(T.codes, 0, 0, positions, handover_at)
        i, k, forward, expected = scan_by_failures(engine, T.codes, handover_at)
        assert (*state, positions) == (i, k, expected)
        assert greedy_prefix_match(P, k, T.codes[i - k : i], injective) == forward
        handed_over += i < len(T)
    assert handed_over > 50


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


def scan_lines(caplog) -> list[dict]:
    """The fields of each ``kmp scan:`` debug line."""
    return [
        dict(item.split("=") for item in r.getMessage().split()[2:])
        for r in caplog.records
        if r.getMessage().startswith("kmp scan:")
    ]


@pytest.mark.parametrize("mode", ["fvc", "pvc"])
@pytest.mark.parametrize("chunk_width", [8, 16, 64])
def test_dfa_scans_equal_the_oracle(mode, chunk_width, caplog):
    rng = random.Random(700 + chunk_width + len(mode))
    with caplog.at_level(logging.DEBUG, logger="vcmatch.kmp"):
        for _ in range(6):
            praw, _ = generate_case(rng, max_m=12, repeat_bias=rng.random() < 0.5)
            matcher = make_matcher("kmp", mode=mode, chunk_width=chunk_width).fit(praw)
            oracle = make_matcher("naive", mode=mode).fit(praw)
            # One engine serves texts over ever more letters, so later texts
            # bring codes interned after the fit and after the DFA was built;
            # each is searched twice, the second time on a warm DFA.
            for letters in (3, 5, 7):
                traw = bytes(rng.choice(b"abcdefg"[:letters]) for _ in range(2000 + rng.randrange(1000)))
                expected = oracle.predict(traw)
                assert matcher.predict(traw) == expected
                assert matcher.predict(traw) == expected
    lines = scan_lines(caplog)
    assert len(lines) == 6 * 3 * 2
    # A pattern that opens with a constant fails only past a first match,
    # so not every scan hands over.
    assert sum(line["handover"] != "None" for line in lines) >= len(lines) // 3


@pytest.mark.parametrize("injective", [False, True])
def test_dfa_hand_over_keeps_matches_at_its_edges(injective, caplog):
    # A variable then a second symbol ("AB" under pvc, "Ac" under fvc)
    # fails on nearly every character of a unary text, so the plain loop
    # hands over at index 256.  A "c" at index 255 completes a match there
    # (pvc: and one at 256, the DFA's first character), and a "c" at the
    # end completes one at the last character.
    text = bytearray(b"a" * 3000)
    text[255] = text[-1] = ord("c")
    P, T = classify_input(b"AB" if injective else b"Ac", bytes(text))
    engine = KmpEngine(P, injective)
    with caplog.at_level(logging.DEBUG, logger="vcmatch.kmp"):
        positions = engine.find_all(T).positions
    assert positions == naive_all(P, T, mode="pvc" if injective else "fvc").positions
    assert positions == ([255, 256, 2999] if injective else [255, 2999])
    assert scan_lines(caplog)[0]["handover"] == "256"


@pytest.mark.parametrize("injective", [False, True])
@pytest.mark.parametrize(
    "praw, traw",
    [
        # "ab" fails at every "a" after the first of a run, and failures
        # first outnumber half of the characters read at the "a" at index
        # 603: a mismatch.  The DFA must read that "a" again to match the
        # "b" after it (1-based 604).
        (b"ab", b"c" * 300 + b"a" * 301 + b"b" + b"aab" + b"a" * 100 + b"ab"),
        # "aa" completes a match at every "a" after the first; the failure
        # after the match at index 602 hands over at 603, and the DFA must
        # not read index 602 again, or it would report that match twice.
        (b"aa", b"c" * 300 + b"a" * 400),
    ],
)
def test_dfa_hand_over_after_a_mismatch_and_after_a_match(praw, traw, injective, caplog):
    P, T = classify_input(praw, traw)
    with caplog.at_level(logging.DEBUG, logger="vcmatch.kmp"):
        positions = KmpEngine(P, injective).find_all(T).positions
    assert positions == naive_all(P, T, mode="pvc" if injective else "fvc").positions
    assert scan_lines(caplog)[0]["handover"] == "603"


@pytest.mark.parametrize("mode", ["fvc", "pvc"])
def test_dfa_flush_hands_back_and_keeps_positions(mode, monkeypatch, caplog):
    rng = random.Random(71 + len(mode))
    patterns = [generate_case(rng, max_m=10, repeat_bias=True)[0] for _ in range(12)]
    texts = [[bytes(rng.choice(b"abcd") for _ in range(2500)) for _ in range(3)] for _ in patterns]
    matchers = [make_matcher("kmp", mode=mode).fit(p) for p in patterns]
    for matcher, (first, *_) in zip(matchers, texts):
        # Each DFA is warm before its cap shrinks: the second search starts
        # in the DFA and fills the states the first one's hand-over left.
        matcher.predict(first)
        matcher.predict(first)
    monkeypatch.setattr(kmp, "DFA_TABLE_BYTES", 1)  # every table is full at its first fill
    with caplog.at_level(logging.DEBUG, logger="vcmatch.kmp"):
        for praw, matcher, pair in zip(patterns, matchers, texts):
            oracle = make_matcher("naive", mode=mode).fit(praw)
            for traw in pair:
                assert matcher.predict(traw) == oracle.predict(traw)
    lines = [line for line in scan_lines(caplog) if line["handover"] != "None"]
    handbacks = [line for line in lines if line["handback"] != "None"]
    # A scan hands back at its first miss, without filling it; only a scan
    # that the warm DFA carries to the end of its text never misses.
    assert all(line["fills"] == "0" for line in lines)
    assert handbacks and caplog.text.count("kmp dfa flushed") == len(handbacks)
    assert any(int(line["handback"]) > int(line["handover"]) for line in handbacks)


def traced_dfa_peaks(P, T, expected, monkeypatch) -> tuple[dict[int, int], KmpEngine]:
    """The traced peak of a fresh fvc engine's search of T at a DFA table
    cap of 64 KiB and of 1 MiB, and the last engine."""
    peaks = {}
    for cap in (2**16, 2**20):
        monkeypatch.setattr(kmp, "DFA_TABLE_BYTES", cap)
        engine = KmpEngine(P, injective=False)
        tracemalloc.start()
        try:
            assert engine.find_all(T).positions == expected
            peaks[cap] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert engine._dfa.nbytes < cap + 1024
    return peaks, engine


def test_dfa_table_stays_bounded(monkeypatch, caplog):
    # Three variables then a constant the text lacks: every character fails,
    # nearly always into a state not seen before (25^3 of them).
    rng = random.Random(72)
    text = "".join(rng.choice(string.ascii_lowercase[1:]) for _ in range(12000))
    P, T = classify_input("ABCa", text)
    monkeypatch.setattr(kmp, "FAILURE_CACHE_CAP", 1)
    peaks, engine = traced_dfa_peaks(P, T, [], monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="vcmatch.kmp"):
        engine.find_all(T)
    assert "kmp dfa flushed" in caplog.text
    (line,) = scan_lines(caplog)
    assert int(line["handback"]) < len(text) // 2  # the plain loop finishes the text
    # The estimate tracks what the table holds: about 2,700 states fill 1 MiB.
    assert peaks[2**16] < 2**17
    assert 2**19 < peaks[2**20] < 2**21

    # Long keys: (A..Z)*4 over 26-letter words, each written 4 times.  The
    # scan climbs to k = 104 through fresh states on every word, so the
    # estimate must count a key at its size: at 8 bytes per code, the
    # table would flush at under half of what it holds at its cap.
    words = ["".join(rng.choice(string.ascii_lowercase) for _ in range(26)) * 4 for _ in range(116)]
    P, T = classify_input(string.ascii_uppercase * 4, "".join(words))
    peaks, engine = traced_dfa_peaks(P, T, naive_all(P, T).positions, monkeypatch)
    lengths = set()
    state = kmp._Dfa.state
    monkeypatch.setattr(kmp._Dfa, "state", lambda dfa, key: lengths.add(len(key)) or state(dfa, key))
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="vcmatch.kmp"):
        engine.find_all(T)
    assert "kmp dfa flushed" in caplog.text
    assert max(lengths) == 104 and len([k for k in lengths if k >= 64]) > 20
    assert peaks[2**16] < 2**17
    assert 2**19 < peaks[2**20] < 2**21


def test_dropped_engine_frees_its_dfa_without_the_cycle_collector():
    # DFA rows point at rows, so without help only the cycle collector
    # frees a dropped engine's table.  Three variables then a constant the
    # text lacks make about a thousand states, far more rows than the list
    # free list keeps headers of.
    rng = random.Random(73)
    text = "".join(rng.choice(string.ascii_lowercase[1:]) for _ in range(1200))
    P, T = classify_input("ABCa", text)
    state_lines = {line for *_, line in kmp._Dfa.state.__code__.co_lines()}

    def table_bytes() -> int:
        return sum(
            trace.size for trace in tracemalloc.take_snapshot().traces
            if trace.traceback[0].filename == kmp.__file__
            and trace.traceback[0].lineno in state_lines
        )

    collecting = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        engine = KmpEngine(P, injective=False)
        engine.find_all(T)
        held = table_bytes()
        del engine
        kept = table_bytes()
    finally:
        tracemalloc.stop()
        if collecting:
            gc.enable()
    assert held > 64 * 1024
    assert kept < held / 10, (held, kept)


def test_one_mib_scan_hands_over_and_never_back(caplog):
    # A cold DFA fills an entry on many of its first characters; its table
    # stays far below the cap, so the scan stays in the DFA.
    praw, traw = make_inputs(2**20, 32, seed=1)
    P, T = classify_input(praw, traw)
    with caplog.at_level(logging.DEBUG, logger="vcmatch.kmp"):
        positions = KmpEngine(P, injective=False).find_all(T).positions
    (line,) = scan_lines(caplog)
    assert line["handover"] == "256" and line["handback"] == "None"
    assert int(line["states"]) < 1000
    assert positions == make_matcher("conv").fit(praw).predict(traw)


def test_plain_scans_build_no_dfa(caplog):
    P, T = classify_input("ABAb", "ababbbb" * 30)
    engine = KmpEngine(P, injective=False)
    with caplog.at_level(logging.DEBUG, logger="vcmatch.kmp"):
        engine.find_all(T)
    assert scan_lines(caplog) == [
        {"n": "210", "handover": "None", "fills": "0", "handback": "None", "states": "0",
         "table_bytes": "0", "skip": "off"}
    ]
    assert engine._dfa is None


@pytest.mark.parametrize("injective", [False, True])
def test_warm_engine_starts_in_its_dfa(injective, caplog):
    # random-narrow's shape: failures run dense, so the first scan hands
    # over at index 256 or later; the second starts where the first left
    # its table, in the DFA at index 0.
    praw, traw = make_inputs(4096, 32, seed=1)
    P, T = classify_input(praw, traw)
    engine = KmpEngine(P, injective)
    expected = naive_all(P, T, mode="pvc" if injective else "fvc").positions
    with caplog.at_level(logging.DEBUG, logger="vcmatch.kmp"):
        assert engine.find_all(T).positions == expected
        assert engine.find_all(T).positions == expected
    cold, warm = scan_lines(caplog)
    assert int(cold["handover"]) >= kmp.DFA_HANDOVER_INDEX
    assert warm["handover"] == "0" and warm["handback"] == "None"
    assert int(warm["fills"]) <= int(cold["fills"])


@pytest.mark.parametrize("injective", [False, True])
def test_flushed_engine_starts_cold(injective, monkeypatch, caplog):
    # The fresh-state text of test_dfa_table_stays_bounded fills a small
    # table, whose flush leaves it empty: the next scan starts cold.
    rng = random.Random(74)
    text = "".join(rng.choice(string.ascii_lowercase[1:]) for _ in range(6000))
    P, T = classify_input("ABCa", text)
    monkeypatch.setattr(kmp, "DFA_TABLE_BYTES", 2**16)
    engine = KmpEngine(P, injective)
    with caplog.at_level(logging.DEBUG, logger="vcmatch.kmp"):
        assert engine.find_all(T).positions == []
        assert engine.find_all(T).positions == []
    flushed, after = scan_lines(caplog)
    assert flushed["handback"] != "None" and "kmp dfa flushed" in caplog.text
    assert after["handover"] == "None" or int(after["handover"]) >= kmp.DFA_HANDOVER_INDEX


@pytest.mark.parametrize("mode", ["fvc", "pvc"])
def test_one_engine_across_text_shapes(mode, caplog):
    rng = random.Random(75 + len(mode))
    # Three variables then a constant: over "bcd" the scan reuses 27 states
    # (dense reuse); over 25 letters nearly every state is fresh.
    dense = bytes(rng.choice(b"bcdbcdbcda") for _ in range(3000))
    fresh = bytes(rng.choice(string.ascii_lowercase[1:].encode()) for _ in range(12000))
    texts = [
        dense,
        fresh,  # starts warm and meets fresh states until the table fills
        b"ab",  # n < m
        b"bcda",  # n = m
        dense[:200],  # n < 256: a cold scan never hands over
        dense,  # warms the table again
        dense[:1000],
        bytes(rng.choice(b"bcda0123") for _ in range(2000)),  # codes interned after the DFA
    ]
    matcher = make_matcher("kmp", mode=mode).fit(b"ABCa")
    oracle = make_matcher("naive", mode=mode).fit(b"ABCa")
    with caplog.at_level(logging.DEBUG, logger="vcmatch.kmp"):
        for traw in texts:
            assert matcher.predict(traw) == oracle.predict(traw)
            assert matcher.engine_._dfa.nbytes < kmp.DFA_TABLE_BYTES + 1024
    assert "kmp dfa flushed" in caplog.text
    # "ab" logs no scan; the flush leaves the short texts after it cold.
    handovers = [line["handover"] for line in scan_lines(caplog)]
    assert handovers[1:4] == ["0", "None", "None"] and handovers[5:] == ["0", "0"]


def sparse_text(rng: random.Random, n: int, plants: dict[int, bytes]) -> bytes:
    """n characters over "bcdefgh", with each plant's bytes written at its
    index modulo n (so negative from the end)."""
    text = bytearray(rng.choice(b"bcdefgh") for _ in range(n))
    for index, plant in plants.items():
        text[index % n : index % n + len(plant)] = plant
    return bytes(text)


@pytest.mark.parametrize("mode", ["fvc", "pvc"])
@pytest.mark.parametrize("n", [40, 600])  # the gate is the density alone, at any length
@pytest.mark.parametrize(
    "praw, plants",
    [
        (b"aAb", {}),  # the leading constant is absent
        (b"aB", {-1: b"a"}),  # it is only the last byte
        (b"a", {0: b"a", 300: b"a", 301: b"a", -1: b"a"}),  # m = 1
        (b"abc", {17: b"abc", 200: b"ab", 400: b"abcabc", -3: b"abc"}),  # all constants
        (b"aAbB", {5: b"acbb", 290: b"a", 333: b"adbd", -4: b"ahbc"}),  # a match ends on the last byte
    ],
)
def test_skip_to_the_leading_constant_equals_the_oracle(praw, plants, n, mode, caplog):
    rng = random.Random(76 + len(praw))
    text = sparse_text(rng, n, plants)
    P, T = classify_input(praw, text)
    with caplog.at_level(logging.DEBUG, logger="vcmatch.kmp"):
        positions = KmpEngine(P, mode == "pvc").find_all(T).positions
    assert positions == naive_all(P, T, mode=mode).positions
    assert scan_lines(caplog)[0]["skip"] == "on"
    if plants and plants.keys() != {-1}:
        assert positions


# "ab" over the hand-over text of test_dfa_hand_over_after_a_mismatch_and_after_a_match,
# then a tail sparse in "a" that holds three matches, the last at its end.
HANDOVER_THEN_SPARSE = (
    b"c" * 300 + b"a" * 301 + b"b" + b"aab" + b"a" * 100 + b"ab"
    + sparse_text(random.Random(77), 4000, {10: b"ab", 2000: b"a", 3001: b"ab", -2: b"ab"})
)
# As SKIP_DENSITY: a leading constant that occurs at all is too dense to skip to.
NEVER_SKIP = 10**9


@pytest.mark.parametrize("injective", [False, True])
def test_skip_keeps_the_hand_over_index(injective, monkeypatch, caplog):
    P, T = classify_input(b"ab", HANDOVER_THEN_SPARSE)
    with caplog.at_level(logging.DEBUG, logger="vcmatch.kmp"):
        on = KmpEngine(P, injective).find_all(T).positions
        monkeypatch.setattr(kmp, "SKIP_DENSITY", NEVER_SKIP)
        off = KmpEngine(P, injective).find_all(T).positions
    assert on == off == naive_all(P, T, mode="pvc" if injective else "fvc").positions
    with_skip, without = scan_lines(caplog)
    assert (with_skip.pop("skip"), without.pop("skip")) == ("on", "off")
    assert with_skip == without and with_skip["handover"] == "603"


@pytest.mark.parametrize("mode", ["fvc", "pvc"])
def test_skip_after_a_flush_hands_back(mode, monkeypatch, caplog):
    P, T = classify_input(b"ab", HANDOVER_THEN_SPARSE)
    monkeypatch.setattr(kmp, "DFA_TABLE_BYTES", 1)  # the table is full at its first fill
    with caplog.at_level(logging.DEBUG, logger="vcmatch.kmp"):
        positions = KmpEngine(P, mode == "pvc").find_all(T).positions
    assert positions == naive_all(P, T, mode=mode).positions
    assert positions[-1] == len(T) - 1  # 1-based: the match ends on the last byte
    (line,) = scan_lines(caplog)
    assert line["skip"] == "on" and line["handover"] == line["handback"] == "603"


@pytest.mark.parametrize("mode", ["fvc", "pvc"])
def test_skip_visits_the_same_states(mode, monkeypatch, caplog):
    # Random patterns that open with a constant, over texts sparse in it,
    # some with a dense stretch that hands over: the skip removes only
    # mismatches at k = 0, so every scan line and failure cache is the
    # same with it as without it.
    runs = {}
    for density in (kmp.SKIP_DENSITY, NEVER_SKIP):
        monkeypatch.setattr(kmp, "SKIP_DENSITY", density)
        case_rng = random.Random(78 + len(mode))
        caplog.clear()
        caches = []
        with caplog.at_level(logging.DEBUG, logger="vcmatch.kmp"):
            for _ in range(12):
                praw = b"a" + generate_case(case_rng, max_m=8, repeat_bias=True)[0]
                dense = bytes(case_rng.choice(b"ab") for _ in range(case_rng.choice([0, 400])))
                traw = dense + bytes(case_rng.choice(b"abcdefghijklmnop") for _ in range(3000))
                matcher = make_matcher("kmp", mode=mode).fit(praw)
                assert matcher.predict(traw) == make_matcher("naive", mode=mode).fit(praw).predict(traw)
                caches.append(dict(matcher.engine_._failure_cache))
        runs[density] = scan_lines(caplog), caches
    (on_lines, on_caches), (off_lines, off_caches) = runs.values()
    assert {line.pop("skip") for line in on_lines} == {"on"}
    assert {line.pop("skip") for line in off_lines} == {"off"}
    assert on_lines == off_lines and on_caches == off_caches
    assert any(line["handover"] != "None" for line in on_lines)


@pytest.mark.parametrize(
    "praw, traw",
    [
        (b"ab", b"abcd" * 100),  # a dense leading constant (1 in 4)
        (b"Ab", b"bcdefgh" * 100),  # a leading variable
    ],
)
def test_skip_stays_off(praw, traw, caplog):
    P, T = classify_input(praw, traw)
    with caplog.at_level(logging.DEBUG, logger="vcmatch.kmp"):
        assert KmpEngine(P, False).find_all(T).positions == naive_all(P, T).positions
    assert scan_lines(caplog)[0]["skip"] == "off"


@pytest.mark.parametrize("mode", ["fvc", "pvc"])
def test_warm_search_decides_the_skip_before_it_scans(mode, caplog):
    # A warm engine given a text sparse in "a" runs the plain loop with the
    # skip, hands over where the cold search did and meets only states its
    # table holds; given the dense hand-over stretch alone, it starts in
    # the DFA and logs skip=off.
    naive = make_matcher("naive", mode=mode).fit(b"ab")
    matcher = make_matcher("kmp", mode=mode).fit(b"ab")
    dense = HANDOVER_THEN_SPARSE[:707]  # over half of it is "a"
    with caplog.at_level(logging.DEBUG, logger="vcmatch.kmp"):
        for traw in (HANDOVER_THEN_SPARSE, HANDOVER_THEN_SPARSE, dense):
            assert matcher.predict(traw) == naive.predict(traw)
    cold, warm, warm_dense = scan_lines(caplog)
    assert (cold["handover"], cold["handback"], cold["skip"]) == ("603", "None", "on")
    assert (warm["handover"], warm["handback"], warm["skip"], warm["fills"]) == ("603", "None", "on", "0")
    assert (warm_dense["handover"], warm_dense["skip"]) == ("0", "off")


@pytest.mark.parametrize("mode", ["fvc", "pvc"])
def test_warm_engine_keeps_the_skip_over_a_sparse_lead(mode, caplog):
    # cli-wide's shape: a pattern opening with "q" over 39 symbols with
    # planted copies.  An engine warmed on "q" * 4096, which hands over and
    # leaves states in its table, scans it as a fresh engine does.
    pattern = b"qA7zBqCC.kAD7qEzFk.AqC7zFqDkB.Eq"
    alphabet = (string.ascii_lowercase + string.digits + ".,-").encode()
    rng = random.Random(1)
    text = bytearray(rng.choices(alphabet, k=1 << 14))
    for start in range(100, len(text) - len(pattern), 1000):
        binding = dict(zip(b"ABCDEF", rng.sample(alphabet, 6)))
        text[start : start + len(pattern)] = bytes(binding.get(c, c) for c in pattern)
    text = bytes(text)
    warmed = make_matcher("kmp", mode=mode).fit(pattern)
    with caplog.at_level(logging.DEBUG, logger="vcmatch.kmp"):
        warmed.predict(b"q" * 4096)
        got = warmed.predict(text)
        make_matcher("kmp", mode=mode).fit(pattern).predict(text)
    warmup, warm, fresh = scan_lines(caplog)
    assert warmup["handover"] == "256" and warmup["states"] != "0"
    assert got == make_matcher("naive", mode=mode).fit(pattern).predict(text)
    assert len(got) >= 16
    assert (warm["handover"], warm["skip"]) == (fresh["handover"], "on")
