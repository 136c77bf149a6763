import itertools
import random
import tracemalloc

import pytest

from helpers import classify, exact_positions, image_codes, random_pattern_text, sub
from vcmatch.naive import naive_all, window_match


class TestWindowMatch:
    def test_fvc_window_with_witness(self):
        P, T = classify("ABAb", "ababbbb")
        ok, pi = window_match(P, T, 4, injective=False)
        assert ok
        assert pi == sub(P.table, {"A": "b", "B": "b"})

    def test_pvc_rejects_non_injective_window(self):
        P, T = classify("ABAb", "ababbbb")
        ok, pi = window_match(P, T, 4, injective=True)
        assert (ok, pi) == (False, None)

    def test_conflicting_variable_window(self):
        P, T = classify("ABAb", "ababbbb")
        assert window_match(P, T, 3, injective=False) == (False, None)

    def test_out_of_range(self):
        P, T = classify("ABAb", "ababbbb")
        with pytest.raises(IndexError):
            window_match(P, T, 0)
        with pytest.raises(IndexError):
            window_match(P, T, 5)


class TestNaiveAll:
    def test_both_modes_reference_vectors(self):
        P, T = classify("ABAb", "ababbbb")
        assert naive_all(P, T, "fvc").positions == [1, 2, 4]
        assert naive_all(P, T, "pvc").positions == [1, 2]

    def test_constant_only_equals_exact_search(self):
        P, T = classify("ab", "abab")
        assert naive_all(P, T, "fvc").positions == [1, 3]
        assert naive_all(P, T, "pvc").positions == [1, 3]

    def test_no_match_case(self):
        P, T = classify("AABaaCbC", "bbaaaabbb")
        assert naive_all(P, T, "fvc").positions == []

    def test_pattern_longer_than_text(self):
        P, T = classify("ABC", "ab")
        assert naive_all(P, T, "fvc").positions == []

    def test_unknown_mode_rejected(self):
        P, T = classify("A", "a")
        with pytest.raises(ValueError):
            naive_all(P, T, "nope")

    def test_holds_no_copy_of_the_text(self):
        # 64 KiB with no match: the scan reads the text's bytes in place, so
        # its traced peak stays below the text's own size (a tuple copy
        # alone would take 512 KiB).
        text = bytes(random.Random(5).choices(b"bcdefg", k=1 << 16))
        P, T = classify("ABCa", text)
        tracemalloc.start()
        try:
            assert naive_all(P, T, "pvc").positions == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16, peak

    def test_witnesses_reproduce_windows(self):
        P, T = classify("ABAb", "ababbbb")
        report = naive_all(P, T, "fvc", with_witnesses=True)
        for pos in report.positions:
            image = image_codes(P, report.witnesses[pos].forward, 1, len(P))
            assert image == list(T.codes[pos - 1 : pos - 1 + len(P)])


class TestNaiveProperties:
    def test_greedy_equals_exhaustive_enumeration(self):
        # The greedy construction must succeed exactly when some substitution
        # over the pattern variables does; check against full enumeration.
        rng = random.Random(13)
        for _ in range(300):
            P, T = random_pattern_text(rng, max_m=5, max_n=10, num_variables=2, num_constants=2)
            m, n = len(P), len(T)
            variables = P.variables
            const_ids = range(P.table.num_constants)
            for start in range(1, n - m + 2):
                window = tuple(T.codes[start - 1 : start - 1 + m])
                for injective in (False, True):
                    exists = False
                    for images in itertools.product(const_ids, repeat=len(variables)):
                        if injective and len(set(images)) != len(images):
                            continue
                        mapping = dict(zip(variables, images))
                        got = tuple(
                            code if code >= 0 else mapping[-1 - code] for code in P.codes
                        )
                        if got == window:
                            exists = True
                            break
                    ok, _ = window_match(P, T, start, injective=injective)
                    assert ok == exists

    def test_pvc_positions_subset_of_fvc(self):
        rng = random.Random(14)
        for _ in range(300):
            P, T = random_pattern_text(rng)
            pvc = naive_all(P, T, "pvc").positions
            fvc = naive_all(P, T, "fvc").positions
            assert set(pvc) <= set(fvc)

    def test_variable_free_equals_exact_search(self):
        rng = random.Random(15)
        for _ in range(200):
            m = rng.randint(1, 6)
            n = rng.randint(1, 30)
            pattern = "".join(rng.choice("ab") for _ in range(m))
            text = "".join(rng.choice("ab") for _ in range(n))
            P, T = classify(pattern, text)
            expected = exact_positions(pattern, text) if m <= n else []
            assert naive_all(P, T, "fvc").positions == expected
            assert naive_all(P, T, "pvc").positions == expected

    def test_positions_strictly_increasing_with_valid_witnesses(self):
        rng = random.Random(16)
        for _ in range(100):
            P, T = random_pattern_text(rng)
            for mode in ("fvc", "pvc"):
                report = naive_all(P, T, mode, with_witnesses=True)
                assert report.positions == sorted(set(report.positions))
                assert all(1 <= p <= len(T) - len(P) + 1 for p in report.positions)
                for pos, pi in (report.witnesses or {}).items():
                    window = list(T.codes[pos - 1 : pos - 1 + len(P)])
                    assert image_codes(P, pi.forward, 1, len(P)) == window
                    if mode == "pvc":
                        assert pi.is_injective
