import random

import pytest

from helpers import classify, const_id, var_id
from vcmatch.core import (
    ASCII_UPPERCASE,
    InvalidInputError,
    PatternString,
    SymbolTable,
    TextString,
    encode_pattern,
    encode_text,
    normalize_charset,
)
from vcmatch.matchers import ALGORITHMS, make_matcher


class TestClassifyInput:
    def test_variables_and_constants_split(self):
        P, T = classify("ABAb", "ababbbb")
        assert P.codes == (-1, -2, -1, 0)
        assert P.variables == (0, 1) and P.constants == (0,)
        assert P.table.variable_bytes == [ord("A"), ord("B")]
        assert P.table.constant_bytes[:1] == [ord("b")]
        assert len(T) == 7

    def test_constant_only_pattern(self):
        P, T = classify("ab", "ab")
        assert P.variables == ()
        assert len(P.constants) == 2

    def test_remark_pattern_shapes(self):
        P, T = classify("AABaaCbC", "bbaaaabbb")
        assert len(P) == 8 and len(T) == 9
        assert {P.table.variable_bytes[v] for v in P.variables} == {ord("A"), ord("B"), ord("C")}
        assert {P.table.constant_bytes[c] for c in P.constants} == {ord("a"), ord("b")}

    def test_empty_pattern_rejected(self):
        with pytest.raises(InvalidInputError):
            classify("", "abc")

    def test_registries_first_appearance_order(self):
        P, T = classify("CBA", "zya")
        assert [P.table.variable_bytes[i] for i in range(3)] == [ord("C"), ord("B"), ord("A")]
        assert [P.table.constant_bytes[i] for i in range(3)] == [ord("z"), ord("y"), ord("a")]

    def test_text_bytes_in_variable_charset_stay_constants(self):
        P, T = classify("Ab", "AbA")
        assert min(T.codes) >= 0

    def test_custom_charset(self):
        P, _ = classify("xay", "aa", variables="xy")
        assert [code < 0 for code in P.codes] == [True, False, True]

    def test_charset_rejects_non_bytes(self):
        with pytest.raises(InvalidInputError):
            normalize_charset([300])

    def test_charset_str_must_be_ascii(self):
        # A str charset is read per character: "é" is two UTF-8 bytes, and
        # each would otherwise become a variable of its own.
        with pytest.raises(InvalidInputError, match="bytes"):
            normalize_charset("é")
        with pytest.raises(InvalidInputError):
            classify("éb", "xyb", variables="Aé")
        assert normalize_charset("é".encode()) == frozenset(b"\xc3\xa9")
        assert normalize_charset([0xE9]) == frozenset([0xE9])
        assert normalize_charset("xy") == frozenset(b"xy")

    def test_occurrence_data(self):
        P, _ = classify("AABaaCbC", "b")
        A, B, C = (var_id(P.table, c) for c in "ABC")
        assert P.variables == (A, B, C)
        assert P.constants == tuple(const_id(P.table, c) for c in "ab")
        assert P.variables_by_prefix[1] == P.variables_by_prefix[2] == (A,)
        assert P.variables_by_prefix[5] == (A, B)
        assert P.variables_by_prefix[8] == (A, B, C)
        assert P.first_occurrences == ((A, 0), (B, 2), (C, 5))
        assert classify("ab", "b")[0].first_occurrences == ()


def per_byte_encoding(raw_pattern: bytes, raw_texts, charset=ASCII_UPPERCASE):
    """Codes and registries from interning one byte at a time, in order."""
    table = SymbolTable()
    pattern = tuple(
        -1 - table.intern_variable(b) if b in charset else table.intern_constant(b)
        for b in raw_pattern
    )
    texts = [tuple(table.intern_constant(b) for b in raw) for raw in raw_texts]
    return pattern, texts, table


def assert_same_encoding(raw_pattern: bytes, raw_texts, charset=ASCII_UPPERCASE):
    want_pattern, want_texts, want_table = per_byte_encoding(raw_pattern, raw_texts, charset)
    P = encode_pattern(raw_pattern, charset)
    texts = [encode_text(raw, P.table) for raw in raw_texts]
    assert P.codes == want_pattern
    assert [tuple(T.codes) for T in texts] == want_texts
    assert P.table.constant_bytes == want_table.constant_bytes
    assert P.table.variable_bytes == want_table.variable_bytes


class TestEncoder:
    def test_all_byte_values_shuffled(self):
        rng = random.Random(11)
        values = list(range(256))
        for _ in range(5):
            rng.shuffle(values)
            text = bytes(values) * 3 + bytes(rng.sample(values, 40))
            assert_same_encoding(b"AbA", [text])
            assert_same_encoding(bytes(values), [text])

    def test_text_bytes_from_variable_charset(self):
        assert_same_encoding(b"AxBy", [b"ABAxzyBB", b"QQxA"])
        P, T = classify("AxBy", "ABAxzyBB")
        assert min(T.codes) >= 0
        assert bytes(T.table.constant_bytes[c] for c in T.codes) == b"ABAxzyBB"

    def test_empty_text(self):
        assert_same_encoding(b"Ab", [b""])
        P, T = classify("Ab", "")
        assert tuple(T.codes) == () and len(T) == 0

    def test_randomized_against_per_byte_loop(self):
        rng = random.Random(12)
        for _ in range(300):
            alphabet = bytes(rng.sample(range(256), rng.randint(1, 256)))
            pattern = bytes(rng.choice(alphabet) for _ in range(rng.randint(1, 20)))
            texts = [
                bytes(rng.choice(alphabet) for _ in range(rng.choice([0, 1, 5, 255, 256, 257, 300, 3000])))
                for _ in range(rng.randint(1, 3))
            ]
            assert_same_encoding(pattern, texts)

    def test_second_text_appends_new_constants(self):
        matcher = make_matcher("kmp").fit("AbBa")
        first = matcher._encode_text("abba")
        before = list(matcher.symbol_table_.constant_bytes)
        second = matcher._encode_text("zbyaz")
        table = matcher.symbol_table_
        assert table.constant_bytes == before + [ord("z"), ord("y")]
        assert tuple(first.codes) == tuple(before.index(b) for b in b"abba")
        assert tuple(second.codes) == tuple(table.constant_bytes.index(b) for b in b"zbyaz")
        assert matcher.predict("abbazbaab") == [1, 5]

    @pytest.mark.parametrize("key", [-1, 256, 1000])
    def test_registries_refuse_non_byte_keys(self, key):
        P, T = classify("AbB", "abcab")
        table = P.table

        def state():
            return table.num_constants, table.num_variables, list(table.constant_bytes), list(table.variable_bytes)

        before = state()
        with pytest.raises(InvalidInputError, match="0..255"):
            table.intern_constant(key)
        with pytest.raises(InvalidInputError, match="0..255"):
            table.intern_variable(key)
        assert state() == before
        assert table.encode_text(b"abcab") == T.codes

    def test_encoder_output_equals_checked_hand_built_text(self):
        # The encoder skips the checks of a hand-built TextString; the same
        # codes must pass them and compare equal.
        rng = random.Random(13)
        for _ in range(200):
            alphabet = bytes(rng.sample(range(256), rng.randint(1, 60)))
            P = encode_pattern(bytes(rng.choice(alphabet) for _ in range(rng.randint(1, 8))))
            for _ in range(3):
                T = encode_text(bytes(rng.choice(alphabet) for _ in range(rng.randint(0, 200))), P.table)
                assert TextString(T.codes, T.table) == T

    def test_encoded_text_codes_are_bytes(self):
        P = encode_pattern(b"Ab")
        # b is constant 0, and a is interned as constant 1 by the text.
        assert P.table.encode_text(b"abba") == b"\x01\x00\x00\x01"
        assert type(P.table.encode_text(b"abba")) is bytes
        assert type(encode_text(b"", P.table).codes) is bytes

    def test_hand_built_byte_sized_codes_are_stored_as_bytes(self):
        P, T = classify("AbB", "abcab")
        for codes in (tuple(T.codes), list(T.codes), bytearray(T.codes), T.codes):
            hand = TextString(codes, T.table)
            assert type(hand.codes) is bytes
            assert hand == T

    def test_hand_built_codes_are_range_checked(self):
        P, T = classify("Ab", "ab")
        with pytest.raises(InvalidInputError, match="code -2 "):
            PatternString((-2, 0), P.table)
        with pytest.raises(InvalidInputError, match="code 2 "):
            PatternString((-1, 2), P.table)
        with pytest.raises(InvalidInputError):
            PatternString((), P.table)
        with pytest.raises(InvalidInputError, match="code 2 "):
            TextString((0, 2), T.table)
        with pytest.raises(InvalidInputError):
            TextString((0, -1), T.table)
        with pytest.raises(InvalidInputError, match="code 300 "):
            TextString((300,), T.table)

    @pytest.mark.parametrize("algo", ALGORITHMS)
    @pytest.mark.parametrize("mode", ["fvc", "pvc"])
    def test_find_leaves_symbols_unmaterialised(self, algo, mode):
        # Searches read the flat codes; no per-position cache is built.
        matcher = make_matcher(algo, mode=mode).fit("ABAb")
        text = matcher._encode_text("ababbbbab")
        report = matcher.find(text, with_witnesses=True)
        assert report.positions
        assert set(text.__dict__) == {"codes", "table"}
        assert set(matcher.pattern_.__dict__) <= {
            "codes", "table", "variables", "constants", "variables_by_prefix", "first_occurrences"
        }
