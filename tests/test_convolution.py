import itertools
import logging
import random
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from helpers import classify, random_pattern_text, var_id
from vcmatch import convolution
from vcmatch.bench import make_inputs
from vcmatch.convolution import (
    OverflowRiskError,
    conv_match_all,
    correlate,
    correlate_direct,
    variable_consistent,
    wildcard_mask,
)
from vcmatch.core import classify_input
from vcmatch.crosscheck import generate_case
from vcmatch.naive import naive_all, window_match


class TestCorrelate:
    def test_hand_example(self):
        assert list(correlate([1, 2, 3], [1, 1])) == [3, 5]
        assert correlate_direct([1, 2, 3], [1, 1]) == [3, 5]

    def test_identity_kernel(self):
        a = [5, 0, 7, 2, 9]
        assert list(correlate(a, [1])) == a

    def test_indicator_example(self):
        # T=aabcbc encoded a=1,b=2,c=3 against the occurrence row of B in AaBBb.
        a = [1, 1, 2, 3, 2, 3]
        b = [0, 0, 1, 1, 0]
        assert list(correlate(a, b)) == [5, 5]
        assert correlate_direct(a, b) == [5, 5]

    def test_matches_direct_summation_randomized(self):
        rng = random.Random(21)
        for _ in range(300):
            m = rng.randint(1, 24)
            n = rng.randint(m, 96)
            top = rng.choice([1, 3, 9, 100, 1 << 16, (1 << 20) - 1])
            a = [rng.randint(0, top) for _ in range(n)]
            b = [rng.randint(0, min(top, 3)) for _ in range(m)]
            assert list(correlate(a, b)) == correlate_direct(a, b)

    def test_value_bound_violation_raises(self):
        with pytest.raises(OverflowRiskError):
            correlate([1 << 26, 1], [1])
        with pytest.raises(OverflowRiskError):
            correlate([1, 2, 3], [1 << 26])
        # combined bound: values fine individually, sum guard trips
        big = (1 << 25) - 1
        with pytest.raises(OverflowRiskError):
            correlate([big] * 512, [big] * 256)

    @pytest.mark.parametrize("seed", range(5))
    def test_rounding_error_past_one_half_raises(self, seed):
        # Sums stay below 2**53 here, yet the transform's rounding error
        # reaches whole units, so rounding would return wrong integers.
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 1_480_000, 8192)
        b = rng.integers(0, 1_480_000, 4096)
        with pytest.raises(OverflowRiskError):
            correlate(a, b)

    def test_byte_squares_stay_on_transform(self):
        # Dense byte codes square to at most 2**16; long 0/1 kernels must
        # still pass the guard and round exactly.
        rng = np.random.default_rng(5)
        a = rng.integers(1, 257, 4096) ** 2
        b = rng.integers(0, 2, 512)
        want = sliding_window_view(a, 512) @ b
        assert np.array_equal(correlate(a, b), want)

    def test_direct_summation_unbounded(self):
        big = 1 << 40
        assert correlate_direct([big, big], [big]) == [big * big, big * big]

    def test_kernel_validation(self):
        with pytest.raises(ValueError):
            correlate([1, 2], [1, 1, 1])
        with pytest.raises(ValueError):
            correlate([1, 2], [])
        with pytest.raises(ValueError):
            correlate([-1, 2], [1])


class TestWildcardMask:
    def test_mixed_pattern_example(self):
        P, T = classify("AaBBb", "aabcbc")
        assert list(wildcard_mask(P, T)) == [True, False]

    def test_all_variable_pattern(self):
        P, T = classify("ABA", "abcd")
        assert list(wildcard_mask(P, T)) == [True, True]

    def test_variable_free_pattern_is_exact_match_mask(self):
        P, T = classify("ab", "abab")
        assert list(wildcard_mask(P, T)) == [True, False, True]

    def test_direct_window_check_randomized(self):
        rng = random.Random(22)
        for _ in range(200):
            P, T = random_pattern_text(rng, max_m=6, max_n=24)
            if len(P) > len(T):
                continue
            mask = wildcard_mask(P, T)
            for i in range(len(T) - len(P) + 1):
                expected = all(
                    code < 0 or code == T.codes[i + off]
                    for off, code in enumerate(P.codes)
                )
                assert bool(mask[i]) == expected


class TestVariableConsistent:
    def test_inconsistent_variable(self):
        P, T = classify("AaBBb", "aabcbc")
        B = var_id(P.table, "B")
        assert list(variable_consistent(P, T, B)) == [False, False]

    def test_single_occurrence_always_consistent(self):
        P, T = classify("AaBBb", "aabcbc")
        A = var_id(P.table, "A")
        assert list(variable_consistent(P, T, A)) == [True, True]

    def test_equal_symbols(self):
        P, T = classify("AA", "aa")
        assert list(variable_consistent(P, T, var_id(P.table, "A"))) == [True]

    def test_unknown_variable_rejected(self):
        P, T = classify("Aa", "aa")
        with pytest.raises(ValueError, match="variable 5 "):
            variable_consistent(P, T, 5)

    def test_direct_alignment_check_randomized(self):
        rng = random.Random(23)
        for _ in range(200):
            P, T = random_pattern_text(rng, max_m=6, max_n=24)
            if len(P) > len(T) or not P.variables:
                continue
            for x in P.variables:
                mask = variable_consistent(P, T, x)
                where = [off for off, code in enumerate(P.codes) if code == -1 - x]
                for i in range(len(T) - len(P) + 1):
                    aligned = {T.codes[i + off] for off in where}
                    assert bool(mask[i]) == (len(aligned) == 1)


class TestSquaredSumIdentity:
    def test_exhaustive_small_tuples(self):
        for k in range(1, 5):
            for values in itertools.product(range(9), repeat=k):
                lhs = k * sum(v * v for v in values)
                rhs = sum(values) ** 2
                assert (lhs == rhs) == (len(set(values)) == 1)


class TestConvMatchAll:
    def test_reference_vectors(self):
        P, T = classify("ABAb", "ababbbb")
        assert conv_match_all(P, T, "fvc").positions == [1, 2, 4]
        assert conv_match_all(P, T, "pvc").positions == [1, 2]

    def test_no_match_example(self):
        P, T = classify("AaBBb", "aabcbc")
        assert conv_match_all(P, T, "fvc").positions == []
        assert conv_match_all(P, T, "pvc").positions == []

    def test_constant_only(self):
        P, T = classify("ab", "abab")
        assert conv_match_all(P, T, "fvc").positions == [1, 3]
        assert conv_match_all(P, T, "pvc").positions == [1, 3]

    def test_pattern_longer_than_text(self):
        P, T = classify("ABC", "ab")
        assert conv_match_all(P, T, "fvc").positions == []

    def test_window_decomposition_equals_window_match(self):
        # Per window: constant agreement plus per-variable consistency (plus
        # distinct values in injective mode) must equal the direct check.
        rng = random.Random(24)
        for _ in range(150):
            P, T = random_pattern_text(rng, max_m=6, max_n=24)
            if len(P) > len(T):
                continue
            wild = wildcard_mask(P, T)
            cons = [variable_consistent(P, T, x) for x in P.variables]
            for i in range(len(T) - len(P) + 1):
                fvc_decomposed = bool(wild[i]) and all(bool(c[i]) for c in cons)
                assert fvc_decomposed == window_match(P, T, i + 1, injective=False)[0]
                values = {}
                for x in P.variables:
                    values[x] = T.codes[i + P.codes.index(-1 - x)]
                pvc_decomposed = fvc_decomposed and len(set(values.values())) == len(values)
                assert pvc_decomposed == window_match(P, T, i + 1, injective=True)[0]

    def test_equals_oracle_randomized(self):
        rng = random.Random(25)
        for _ in range(400):
            P, T = random_pattern_text(rng)
            for mode in ("fvc", "pvc"):
                assert conv_match_all(P, T, mode).positions == naive_all(P, T, mode).positions

    def test_direct_fallback_equals_oracle(self, monkeypatch, caplog):
        def refuse(a_max, b_max, m):
            raise OverflowRiskError("forced")

        monkeypatch.setattr(convolution, "_check_value_bound", refuse)
        rng = random.Random(26)
        for _ in range(100):
            P, T = random_pattern_text(rng)
            for mode in ("fvc", "pvc"):
                assert conv_match_all(P, T, mode).positions == naive_all(P, T, mode).positions
        assert "falling back to direct summation" in caplog.text


def force_path(monkeypatch, path):
    costs = (0.0, 1.0) if path == "direct" else (1.0, 0.0)
    monkeypatch.setattr(convolution, "_estimated_costs", lambda *shape: costs)


def logged_paths(caplog) -> list[str]:
    return [
        r.getMessage().split()[0]
        for r in caplog.records
        if r.name == "vcmatch.convolution" and r.levelno == logging.DEBUG
    ]


class TestPathChoice:
    @pytest.mark.parametrize("path", ["direct", "fft", "fft-sliced"])
    @pytest.mark.parametrize("repeat_bias", [False, True])
    def test_forced_path_equals_oracle(self, path, repeat_bias, monkeypatch, caplog):
        # The acceptance corpus is short enough to run direct only, so each
        # path is forced here, on planted positives and repeated variables.
        force_path(monkeypatch, path)
        if path == "fft-sliced":  # slices of m windows
            monkeypatch.setattr(convolution, "FFT_CHUNK_WINDOWS", 1)
        rng = random.Random(28 + repeat_bias)
        with caplog.at_level(logging.DEBUG, logger="vcmatch.convolution"):
            for _ in range(250):
                P, T = classify_input(*generate_case(rng, max_m=40, max_n=120, repeat_bias=repeat_bias))
                for mode in ("fvc", "pvc"):
                    assert conv_match_all(P, T, mode).positions == naive_all(P, T, mode).positions
        assert set(logged_paths(caplog)) == {path.split("-")[0]}

    def chosen_path(self, caplog, raw_pattern, raw_text, mode) -> str:
        P, T = classify_input(raw_pattern, raw_text)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="vcmatch.convolution"):
            conv_match_all(P, T, mode)
        (path,) = logged_paths(caplog)
        return path

    def test_long_pattern_over_few_windows_takes_fft(self, caplog):
        # The periodic-long benchmark slice: m=512, 1,024 windows, pvc, 3 variables.
        text = b"axyz" * 383 + b"axy"
        assert self.chosen_path(caplog, b"aABC" * 128, text, "pvc") == "fft"

    def test_long_text_takes_direct(self, caplog):
        pattern, text = make_inputs(4096 + 63, 64)
        assert self.chosen_path(caplog, pattern, text, "fvc") == "direct"
        assert self.chosen_path(caplog, pattern, text, "pvc") == "direct"

    def test_short_searches_take_direct(self, caplog):
        rng = random.Random(29)
        for _ in range(200):
            pattern, text = generate_case(rng, max_m=10, max_n=50)
            if len(pattern) <= len(text):
                for mode in ("fvc", "pvc"):
                    assert self.chosen_path(caplog, pattern, text, mode) == "direct"

    def test_refused_guard_logs_fallback_path(self, monkeypatch, caplog):
        def refuse(a_max, b_max, m):
            raise OverflowRiskError("forced")

        monkeypatch.setattr(convolution, "_check_value_bound", refuse)
        assert self.chosen_path(caplog, b"aABC" * 128, b"axyz" * 383 + b"axy", "pvc") == "fallback"
        assert "falling back to direct summation" in caplog.text

    @pytest.mark.parametrize("path", ["direct", "fft"])
    def test_one_mib_search_memory_is_bounded(self, path, monkeypatch):
        # Transforming the whole text at once held about 164 MiB here.  Every
        # window agrees on constants and repeats, so no compare is skipped;
        # only injectivity rejects them.
        force_path(monkeypatch, path)
        pattern, _ = make_inputs(64, 32)
        P, T = classify_input(pattern.translate(str.maketrans("bc", "aa")), "a" * (1 << 20))
        assert len(P.variables) > 1
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            got = conv_match_all(P, T, "pvc").positions
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert got == []
        assert peak < 32 * 2**20
