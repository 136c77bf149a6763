import random

import pytest

from helpers import (
    bit_at,
    border_array,
    classify,
    component_of,
    const_id,
    expected_failure,
    graph_components,
    graph_is_valid,
    image_codes,
    random_pattern_text,
    read_row,
    representative,
    sub,
    var_id,
)
from vcmatch.core import Substitution
from vcmatch.kmp_fvc import FvcKmp, add_condition, build_bitmaps, build_table, match_fvc
from vcmatch.naive import naive_all


def fresh_state(num_variables):
    reps = [-1 - vid for vid in range(num_variables)]
    members = [[vid] for vid in range(num_variables)]
    return reps, members


class TestAddCondition:
    def test_two_singleton_variables_take_least_id_representative(self):
        reps, members = fresh_state(2)
        assert add_condition(reps, members, -1, -2)  # A with B
        assert reps[1] == -1  # B now represented by A
        assert sorted(members[0]) == [0, 1]

    def test_two_distinct_constants_invalid(self):
        reps, members = fresh_state(1)
        assert add_condition(reps, members, -1, 0)  # A with constant 0
        assert reps[0] == 0
        assert not add_condition(reps, members, -1, 1)  # now A with constant 1
        assert reps[0] == 0  # unchanged on failure

    def test_constant_representative_wins(self):
        reps, members = fresh_state(3)
        assert add_condition(reps, members, -2, -3)  # B with C
        assert add_condition(reps, members, -2, 7)  # class gains constant 7
        assert reps[1] == reps[2] == 7
        assert add_condition(reps, members, -1, -3)  # A joins via C
        assert reps[0] == 7

    def test_remark_pattern_class_of_C_pins_to_a(self):
        P, _ = classify("AABaaCbC", "b")
        table = build_table(P)
        entry = table.entry(7, 6)
        assert entry.reps[var_id(P.table, "C")] == const_id(P.table, "a")


class TestBuildTable:
    def test_reference_validity_cells(self):
        P, _ = classify("AABaaCbC", "b")
        table = build_table(P)
        assert table.is_valid(7, 6)

    def test_constant_clash_cell_invalid(self):
        P, _ = classify("ab", "ab")
        table = build_table(P)
        assert not table.is_valid(2, 1)

    def test_zero_shift_always_valid(self):
        rng = random.Random(31)
        for _ in range(20):
            P, _ = random_pattern_text(rng, max_m=8)
            table = build_table(P)
            for k in range(1, len(P) + 1):
                assert table.is_valid(k, 0)
                assert table.entry(k, 0).prefix_links == {}

    def test_matches_explicit_graph_randomized(self):
        rng = random.Random(32)
        for _ in range(60):
            P, _ = random_pattern_text(rng, max_m=8)
            table = build_table(P)
            for k in range(1, len(P) + 1):
                for j in range(k):
                    comps = graph_components(P, k, j)
                    assert table.is_valid(k, j) == graph_is_valid(comps)
                    if not table.is_valid(k, j):
                        continue
                    entry = table.entry(k, j)
                    for v in range(P.table.num_variables):
                        comp = component_of(comps, ("variable", v))
                        kind, ident = representative(comp)
                        expected = ident if kind == "constant" else -1 - ident
                        assert entry.reps[v] == expected
                    # every prefix variable links into its own class
                    for vid in P.variables_by_prefix[j]:
                        comp = component_of(comps, ("prefix", vid))
                        code = entry.prefix_links[vid]
                        node = ("constant", code) if code >= 0 else ("variable", -1 - code)
                        assert node in comp


class TestBuildBitmaps:
    def test_reference_bits(self):
        P, _ = classify("AABaaCbC", "b")
        table = build_table(P)
        bm = build_bitmaps(P, table, chunk_width=8)
        A, B, C = (var_id(P.table, c) for c in "ABC")
        a, b = (const_id(P.table, c) for c in "ab")
        assert bit_at(read_row(bm, 7, B, y=A), 6) == 0
        assert bit_at(read_row(bm, 7, C, a), 6) == 1
        assert bit_at(read_row(bm, 7, C, b), 6) == 0

    def test_zero_shift_bits_always_one(self):
        rng = random.Random(33)
        for _ in range(10):
            P, _ = random_pattern_text(rng, max_m=8)
            bm = build_bitmaps(P, build_table(P), chunk_width=8)
            for k in range(1, len(P) + 1):
                assert bit_at(bm.valid[k], 0) == 1
                for v in range(P.table.num_variables):
                    for c in P.constants:
                        assert bit_at(read_row(bm, k, v, c), 0) == 1
                    assert bit_at(read_row(bm, k, v), 0) == 1

    def test_matches_explicit_graph_randomized(self):
        rng = random.Random(34)
        for _ in range(40):
            P, _ = random_pattern_text(rng, max_m=8)
            table = build_table(P)
            width = rng.choice([8, 16, 64])
            bm = build_bitmaps(P, table, chunk_width=width)
            nv = P.table.num_variables
            for k in range(1, len(P) + 1):
                for j in range(k):
                    comps = graph_components(P, k, j)
                    valid = graph_is_valid(comps)
                    assert bit_at(bm.valid[k], j) == int(valid)
                    for v in range(nv):
                        comp = component_of(comps, ("variable", v))
                        kind, ident = representative(comp) if valid else (None, None)
                        pinned = valid and kind == "constant"
                        for cid in P.constants:
                            expected = int(valid and not (pinned and ident != cid))
                            assert bit_at(read_row(bm, k, v, cid), j) == expected
                        assert bit_at(read_row(bm, k, v), j) == int(
                            valid and not pinned
                        )
                        for y in range(nv):
                            if y == v:
                                continue
                            ties = valid and representative(comp) == ("variable", y)
                            expected_s = int(valid and not ties)
                            assert (
                                bit_at(read_row(bm, k, v, y=y), j) == expected_s
                            )


class TestFailureFunction:
    def test_reference_vectors(self):
        P, _ = classify("AABaaCbC", "bbaaaabbb")
        engine = FvcKmp(P)
        j, succ = engine.failure(7, sub(P.table, {"A": "b", "B": "b", "C": "a"}))
        assert j == 6
        assert succ.as_char_map(P.table) == {"A": "b", "B": "a", "C": "b"}
        j, succ = engine.failure(7, sub(P.table, {"A": "b", "B": "a", "C": "a"}))
        assert j == 3
        assert succ.as_char_map(P.table) == {"A": "a", "B": "b"}

    def test_variable_free_degenerates_to_border(self):
        P, _ = classify("abab", "x")
        engine = FvcKmp(P)
        j, succ = engine.failure(4, Substitution())
        assert (j, dict(succ.items())) == (2, {})

    def test_domain_validation(self):
        P, _ = classify("AABaaCbC", "b")
        engine = FvcKmp(P)
        with pytest.raises(ValueError):
            engine.failure(7, sub(P.table, {"A": "b"}))
        for k in (0, 9):
            with pytest.raises(ValueError):
                engine.failure(k, Substitution())
        # fvc takes bindings that pvc refuses as not injective.
        pi = sub(P.table, {"A": "b", "B": "b", "C": "b"})
        j, succ = engine.failure(7, pi)
        assert (j, dict(succ.items())) == expected_failure(P, 7, dict(pi.items()), injective=False)

    def test_equals_definition_randomized(self):
        # The failure function must return exactly the largest feasible shift
        # and its (unique) succeeding bindings, including preceding values
        # outside the pattern's own constants.
        rng = random.Random(35)
        for _ in range(150):
            P, T = random_pattern_text(rng, max_m=8, num_constants=3)
            P.table.intern_constant(ord("z"))  # a constant foreign to the pattern
            engine = FvcKmp(P, chunk_width=rng.choice([8, 16, 64]))
            num_consts = P.table.num_constants
            for k in range(1, len(P) + 1):
                for _ in range(3):
                    forward = {
                        vid: rng.randrange(num_consts)
                        for vid in P.variables_by_prefix[k]
                    }
                    j, succ = engine._failure_ids(k, forward)
                    exp_j, exp_forward = expected_failure(P, k, forward, injective=False)
                    assert (j, succ) == (exp_j, exp_forward)
                    # soundness restated on symbols
                    assert image_codes(P, succ, 1, j) == image_codes(
                        P, forward, k - j + 1, k
                    )


class TestMatchFvc:
    def test_reference_vectors(self):
        P, T = classify("ABAb", "ababbbb")
        assert match_fvc(P, T).positions == [1, 2, 4]

    def test_regression_overeager_shift(self):
        P, T = classify("AABaaCbC", "bbaaaabbb")
        report = match_fvc(P, T)
        assert report.positions == []
        assert 2 not in report.positions

    def test_constant_only(self):
        P, T = classify("ab", "abab")
        assert match_fvc(P, T).positions == [1, 3]

    def test_pattern_longer_than_text(self):
        P, T = classify("ABC", "ab")
        assert match_fvc(P, T).positions == []

    def test_equals_oracle_randomized(self):
        rng = random.Random(36)
        for _ in range(500):
            P, T = random_pattern_text(rng, max_m=12, max_n=64, num_variables=4, num_constants=4)
            assert match_fvc(P, T).positions == naive_all(P, T, "fvc").positions

    def test_chunk_width_invariance(self):
        rng = random.Random(37)
        for _ in range(100):
            P, T = random_pattern_text(rng)
            reports = {w: match_fvc(P, T, chunk_width=w).positions for w in (8, 16, 64)}
            assert reports[8] == reports[16] == reports[64]

    def test_variable_free_border_array(self):
        rng = random.Random(38)
        for _ in range(100):
            m = rng.randint(1, 16)
            pattern = "".join(rng.choice("ab") for _ in range(m))
            P, _ = classify(pattern, "ab")
            engine = FvcKmp(P)
            borders = border_array(P.codes)
            for k in range(1, m + 1):
                assert engine.bitmaps.max_valid_shift(k) == borders[k]

    def test_engine_reusable_across_texts(self):
        P, T1 = classify("ABAb", "ababbbb")
        engine = FvcKmp(P)
        assert engine.find_all(T1).positions == [1, 2, 4]
        T2_raw = "bbbb"
        import vcmatch.core as core

        T2 = core.TextString(
            tuple(P.table.intern_constant(b) for b in T2_raw.encode()),
            P.table,
        )
        assert engine.find_all(T2).positions == [1]
