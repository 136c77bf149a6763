import random

import pytest

from helpers import classify, sub
from vcmatch.core import (
    ASCII_UPPERCASE,
    InvalidInputError,
    PatternString,
    Substitution,
    Symbol,
    SymbolTable,
    TextString,
    UndefinedVariableError,
    apply_substitution,
    encode_pattern,
    encode_text,
    extend_mapping,
    normalize_charset,
)
from vcmatch.matchers import ALGORITHMS, make_matcher


class TestClassifyInput:
    def test_variables_and_constants_split(self):
        P, T = classify("ABAb", "ababbbb")
        assert [s.kind for s in P.symbols] == ["variable", "variable", "variable", "constant"]
        assert P.table.decode(P.symbols) == "ABAb"
        assert {P.table.byte_of(v) for v in P.variables} == {ord("A"), ord("B")}
        assert {P.table.byte_of(c) for c in P.constants} == {ord("b")}
        assert len(T) == 7

    def test_constant_only_pattern(self):
        P, T = classify("ab", "ab")
        assert P.variables == ()
        assert len(P.constants) == 2

    def test_remark_pattern_shapes(self):
        P, T = classify("AABaaCbC", "bbaaaabbb")
        assert len(P) == 8 and len(T) == 9
        assert {P.table.byte_of(v) for v in P.variables} == {ord("A"), ord("B"), ord("C")}
        assert {P.table.byte_of(c) for c in P.constants} == {ord("a"), ord("b")}

    def test_empty_pattern_rejected(self):
        with pytest.raises(InvalidInputError):
            classify("", "abc")

    def test_registries_first_appearance_order(self):
        P, T = classify("CBA", "zya")
        assert [P.table.variable_bytes[i] for i in range(3)] == [ord("C"), ord("B"), ord("A")]
        assert [P.table.constant_bytes[i] for i in range(3)] == [ord("z"), ord("y"), ord("a")]

    def test_text_bytes_in_variable_charset_stay_constants(self):
        P, T = classify("Ab", "AbA")
        assert all(not s.is_variable for s in T.symbols)

    def test_custom_charset(self):
        P, _ = classify("xay", "aa", variables="xy")
        assert [s.kind for s in P.symbols] == ["variable", "constant", "variable"]

    def test_charset_rejects_non_bytes(self):
        with pytest.raises(InvalidInputError):
            normalize_charset([300])

    def test_occurrence_data(self):
        P, _ = classify("AABaaCbC", "b")
        A, C = P.table.variable("A"), P.table.variable("C")
        assert P.occurrence_counts[A] == 2
        assert P.occurrence_positions[A] == (0, 1)
        assert P.occurrence_positions[C] == (5, 7)
        total = sum(P.occurrence_counts.values())
        n_const = sum(1 for s in P.symbols if not s.is_variable)
        assert total + n_const == len(P)


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
    assert [T.codes for T in texts] == want_texts
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
        assert T.table.decode(T.symbols) == "ABAxzyBB"

    def test_empty_text(self):
        assert_same_encoding(b"Ab", [b""])
        P, T = classify("Ab", "")
        assert T.codes == () and len(T) == 0

    def test_randomized_against_per_byte_loop(self):
        rng = random.Random(12)
        for _ in range(300):
            alphabet = bytes(rng.sample(range(256), rng.randint(1, 60)))
            pattern = bytes(rng.choice(alphabet) for _ in range(rng.randint(1, 20)))
            texts = [
                bytes(rng.choice(alphabet) for _ in range(rng.choice([0, 1, 5, 300, 3000])))
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
        assert first.codes == tuple(before.index(b) for b in b"abba")
        assert second.codes == tuple(table.constant_bytes.index(b) for b in b"zbyaz")
        assert matcher.predict("abbazbaab") == [1, 5]

    def test_non_byte_keys_with_byte_sized_ids(self):
        # Ids equal keys here, so every byte's id fits the translate table.
        table = SymbolTable()
        for key in range(9000):
            table.intern_constant(key)
        T = encode_text(b"\x00a\xff", table)
        assert T.codes == (0, ord("a"), 255)
        assert table.num_constants == 9000

    def test_non_byte_keys_never_truncate_ids(self):
        table = SymbolTable()
        for key in range(1000, 1300):
            table.intern_constant(key)
        with pytest.raises(InvalidInputError):
            encode_text(b"bcd", table)
        assert table.constant_bytes[300] == ord("b")

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

    def test_hand_built_codes_are_range_checked(self):
        P, T = classify("Ab", "ab")
        with pytest.raises(InvalidInputError):
            PatternString((-2, 0), P.table)
        with pytest.raises(InvalidInputError):
            PatternString((), P.table)
        with pytest.raises(InvalidInputError):
            TextString((0, 2), T.table)
        with pytest.raises(InvalidInputError):
            TextString((0, -1), T.table)
        with pytest.raises(InvalidInputError):
            TextString((300,), T.table)

    @pytest.mark.parametrize("algo", ALGORITHMS)
    @pytest.mark.parametrize("mode", ["fvc", "pvc"])
    def test_find_leaves_symbols_unmaterialised(self, algo, mode):
        matcher = make_matcher(algo, mode=mode).fit("ABAb")
        text = matcher._encode_text("ababbbbab")
        report = matcher.find(text, with_witnesses=True)
        assert report.positions
        assert "symbols" not in text.__dict__
        assert "symbols" not in matcher.pattern_.__dict__


class TestApplySubstitution:
    def test_example_abab(self):
        P, _ = classify("ABAb", "ababbbb")
        pi = sub(P.table, {"A": "a", "B": "b"})
        assert P.table.decode(apply_substitution(pi, P)) == "abab"

    def test_identity_on_constants(self):
        P, _ = classify("ab", "ab")
        assert P.table.decode(apply_substitution(Substitution(), P)) == "ab"

    def test_non_injective_image(self):
        P, T = classify("ABAb", "ababbbb")
        pi = sub(P.table, {"A": "b", "B": "b"})
        assert P.table.decode(apply_substitution(pi, P)) == "bbbb"

    def test_unbound_variable_raises(self):
        P, _ = classify("ABAb", "ababbbb")
        with pytest.raises(UndefinedVariableError):
            apply_substitution(sub(P.table, {"A": "a"}), P)

    def test_length_preserving_and_constant_fixed_randomized(self):
        rng = random.Random(42)
        for _ in range(200):
            m = rng.randint(1, 12)
            pattern = "".join(rng.choice("ABCabc") for _ in range(m))
            P, _ = classify(pattern, "abc")
            pi = Substitution({v.id: rng.randrange(3) for v in P.variables})
            out = apply_substitution(pi, P)
            assert len(out) == len(P)
            for before, after in zip(P.symbols, out):
                assert not after.is_variable
                if not before.is_variable:
                    assert after == before


class TestExtendMapping:
    def test_empty_map_extension(self):
        P, _ = classify("A", "b")
        pi = Substitution()
        assert extend_mapping(pi, P.table.variable("A"), P.table.constant("b"), injective=True)
        assert pi.as_char_map(P.table) == {"A": "b"}

    def test_injective_conflict(self):
        P, _ = classify("AB", "b")
        pi = sub(P.table, {"A": "b"})
        assert not extend_mapping(pi, P.table.variable("B"), P.table.constant("b"), injective=True)
        assert pi.as_char_map(P.table) == {"A": "b"}  # unchanged

    def test_non_injective_shares_image(self):
        P, _ = classify("AB", "b")
        pi = sub(P.table, {"A": "b"})
        assert extend_mapping(pi, P.table.variable("B"), P.table.constant("b"))
        assert pi.as_char_map(P.table) == {"A": "b", "B": "b"}

    def test_rebinding_idempotent(self):
        P, _ = classify("A", "b")
        pi = Substitution()
        x, c = P.table.variable("A"), P.table.constant("b")
        for _ in range(3):
            assert extend_mapping(pi, x, c, injective=True)
        assert len(pi) == 1

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            extend_mapping(Substitution(), Symbol.constant(0), Symbol.constant(1))
        with pytest.raises(ValueError):
            extend_mapping(Substitution(), Symbol.variable(0), Symbol.variable(1))


class TestSubstitutionInvariants:
    def test_forward_inverse_consistency_randomized(self):
        rng = random.Random(7)
        for _ in range(200):
            pi = Substitution()
            for _ in range(rng.randint(0, 20)):
                pi.bind(rng.randrange(5), rng.randrange(5), injective=rng.random() < 0.5)
            rebuilt: dict[int, set[int]] = {}
            for v, c in pi.items():
                rebuilt.setdefault(c, set()).add(v)
            assert rebuilt == pi.inverse

    def test_injective_flag_keeps_inverse_thin(self):
        rng = random.Random(8)
        for _ in range(100):
            pi = Substitution()
            for _ in range(20):
                pi.bind(rng.randrange(6), rng.randrange(3), injective=True)
            assert pi.is_injective
