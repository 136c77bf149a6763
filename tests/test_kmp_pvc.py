import random

import pytest

from helpers import (
    bit_at,
    classify,
    component_of,
    const_id,
    expected_failure,
    graph_components,
    graph_is_injectively_valid,
    image_codes,
    random_pattern_text,
    read_row,
    sub,
    var_id,
)
from vcmatch.core import Substitution
from vcmatch.kmp_fvc import build_table
from vcmatch.kmp_pvc import (
    PvcKmp,
    build_injective_table,
    build_t_bitmaps,
    match_pvc,
)
from vcmatch.naive import naive_all


def random_injective_forward(rng, vids, num_consts):
    images = rng.sample(range(num_consts), k=len(vids))
    return dict(zip(vids, images))


class TestBuildInjectiveTable:
    def test_reference_cells(self):
        P, _ = classify("AABaaCbC", "b")
        table = build_injective_table(P)
        assert not table.is_valid(7, 6)  # two window variables share a class
        assert table.is_valid(7, 3)
        entry = table.entry(7, 3)
        a, b = (const_id(P.table, c) for c in "ab")
        A, B, C = (var_id(P.table, c) for c in "ABC")
        # classes {a, prefix-A, C} and {b, prefix-B}
        assert entry.connected(("variable", C)) == {("constant", a), ("prefix", A)}
        assert entry.connected(("constant", b)) == {("prefix", B)}

    def test_zero_shift_always_valid_with_empty_partners(self):
        rng = random.Random(41)
        for _ in range(20):
            P, _ = random_pattern_text(rng, max_m=8)
            table = build_injective_table(P)
            for k in range(1, len(P) + 1):
                assert table.is_valid(k, 0)
                assert table.entry(k, 0).var_const == {}
                assert table.entry(k, 0).var_prefix == {}

    def test_matches_explicit_graph_randomized(self):
        rng = random.Random(42)
        for _ in range(60):
            P, _ = random_pattern_text(rng, max_m=8)
            table = build_injective_table(P)
            for k in range(1, len(P) + 1):
                for j in range(k):
                    comps = graph_components(P, k, j)
                    assert table.is_valid(k, j) == graph_is_injectively_valid(comps)
                    if not table.is_valid(k, j):
                        continue
                    entry = table.entry(k, j)
                    for v in range(P.table.num_variables):
                        comp = component_of(comps, ("variable", v))
                        expected = comp - {("variable", v)}
                        assert entry.connected(("variable", v)) == expected
                    for vid in P.variables_by_prefix[j]:
                        comp = component_of(comps, ("prefix", vid))
                        expected = comp - {("prefix", vid)}
                        assert entry.connected(("prefix", vid)) == expected

    def test_live_classes_have_at_most_two_partners(self):
        rng = random.Random(43)
        for _ in range(40):
            P, _ = random_pattern_text(rng, max_m=10)
            table = build_injective_table(P)
            for k in range(1, len(P) + 1):
                for j in range(k):
                    entry = table.entry(k, j)
                    if entry is None:
                        continue
                    nodes = (
                        [("variable", v) for v in entry.var_const]
                        + [("variable", v) for v in entry.var_prefix]
                        + [("constant", c) for c in entry.const_var]
                        + [("constant", c) for c in entry.const_prefix]
                        + [("prefix", p) for p in entry.prefix_var]
                        + [("prefix", p) for p in entry.prefix_const]
                    )
                    for node in nodes:
                        assert len(entry.connected(node)) <= 2

    def test_injectively_valid_implies_valid(self):
        rng = random.Random(44)
        for _ in range(40):
            P, _ = random_pattern_text(rng, max_m=10)
            loose = build_table(P)
            strict = build_injective_table(P)
            for k in range(1, len(P) + 1):
                for j in range(k):
                    if strict.is_valid(k, j):
                        assert loose.is_valid(k, j)


class TestBuildTBitmaps:
    def test_reference_bits(self):
        P, _ = classify("AABaaCbC", "b")
        table = build_injective_table(P)
        bm = build_t_bitmaps(P, table, chunk_width=8)
        A, C = (var_id(P.table, c) for c in "AC")
        a, b = (const_id(P.table, c) for c in "ab")
        assert bit_at(read_row(bm, 7, C, a), 3) == 1
        assert bit_at(read_row(bm, 7, C, b), 3) == 0
        # dead column at j=6 zeroes every row
        for cid in (a, b):
            assert bit_at(read_row(bm, 7, A, cid), 6) == 0

    def test_zero_shift_bits_always_one(self):
        rng = random.Random(45)
        for _ in range(10):
            P, _ = random_pattern_text(rng, max_m=8)
            bm = build_t_bitmaps(P, build_injective_table(P), chunk_width=8)
            for k in range(1, len(P) + 1):
                assert bit_at(bm.valid[k], 0) == 1
                for v in range(P.table.num_variables):
                    for c in P.constants:
                        assert bit_at(read_row(bm, k, v, c), 0) == 1

    def test_matches_explicit_graph_randomized(self):
        rng = random.Random(46)
        for _ in range(40):
            P, _ = random_pattern_text(rng, max_m=8)
            table = build_injective_table(P)
            width = rng.choice([8, 16, 64])
            bm = build_t_bitmaps(P, table, chunk_width=width)
            nv = P.table.num_variables
            for k in range(1, len(P) + 1):
                for j in range(k):
                    comps = graph_components(P, k, j)
                    alive = graph_is_injectively_valid(comps)
                    assert bit_at(bm.valid[k], j) == int(alive)
                    for v in range(nv):
                        comp_v = component_of(comps, ("variable", v))
                        consts_v = {i for kind, i in comp_v if kind == "constant"}
                        prefix_v = {i for kind, i in comp_v if kind == "prefix"}
                        for cid in P.constants:
                            comp_c = component_of(comps, ("constant", cid))
                            prefix_c = {i for kind, i in comp_c if kind == "prefix"}
                            clash = bool(prefix_v) and bool(prefix_c) and prefix_v != prefix_c
                            expected = int(
                                alive and not (consts_v - {cid}) and not clash
                            )
                            assert bit_at(read_row(bm, k, v, cid), j) == expected
                        assert bit_at(read_row(bm, k, v), j) == int(
                            alive and not consts_v
                        )


class TestFailurePvc:
    def test_reference_vectors(self):
        P, _ = classify("AABaaCbC", "bbaaaabbb")
        P.table.intern_constant(ord("c"))
        P.table.intern_constant(ord("d"))
        engine = PvcKmp(P)
        j, succ = engine.failure(7, sub(P.table, {"A": "b", "B": "c", "C": "a"}))
        assert j == 3
        assert succ.as_char_map(P.table) == {"A": "a", "B": "b"}
        j, succ = engine.failure(7, sub(P.table, {"A": "b", "B": "c", "C": "d"}))
        assert j == 1
        assert succ.as_char_map(P.table) == {"A": "b"}

    def test_variable_free_degenerates_to_border(self):
        P, _ = classify("abab", "x")
        engine = PvcKmp(P)
        j, succ = engine.failure(4, Substitution())
        assert (j, dict(succ.items())) == (2, {})

    def test_rejects_non_injective_preceding(self):
        P, _ = classify("AABaaCbC", "bb")
        engine = PvcKmp(P)
        with pytest.raises(ValueError):
            engine.failure(7, sub(P.table, {"A": "b", "B": "b", "C": "b"}))
        # The refusals of fvc's test_domain_validation hold under pvc too.
        with pytest.raises(ValueError):
            engine.failure(7, sub(P.table, {"A": "b"}))
        for k in (0, 9):
            with pytest.raises(ValueError):
                engine.failure(k, Substitution())

    def test_equals_definition_randomized(self):
        rng = random.Random(47)
        for _ in range(150):
            P, T = random_pattern_text(rng, max_m=8, num_constants=3)
            for extra in "wxyz":  # plenty of constants foreign to the pattern
                P.table.intern_constant(ord(extra))
            engine = PvcKmp(P, chunk_width=rng.choice([8, 16, 64]))
            num_consts = P.table.num_constants
            for k in range(1, len(P) + 1):
                vids = list(P.variables_by_prefix[k])
                for _ in range(3):
                    forward = random_injective_forward(rng, vids, num_consts)
                    j, succ = engine._failure_ids(k, forward)
                    exp_j, exp_forward = expected_failure(P, k, forward, injective=True)
                    assert (j, succ) == (exp_j, exp_forward)
                    assert image_codes(P, succ, 1, j) == image_codes(
                        P, forward, k - j + 1, k
                    )
                    # succeeding bindings stay injective
                    assert len(set(succ.values())) == len(succ)


class TestMatchPvc:
    def test_reference_vectors(self):
        P, T = classify("ABAb", "ababbbb")
        assert match_pvc(P, T).positions == [1, 2]

    def test_constant_only(self):
        P, T = classify("ab", "abab")
        assert match_pvc(P, T).positions == [1, 3]

    def test_no_match_regression_pattern(self):
        P, T = classify("AABaaCbC", "bbaaaabbb")
        assert match_pvc(P, T).positions == []

    def test_equals_oracle_randomized(self):
        rng = random.Random(48)
        for _ in range(500):
            P, T = random_pattern_text(rng, max_m=12, max_n=64, num_variables=4, num_constants=4)
            assert match_pvc(P, T).positions == naive_all(P, T, "pvc").positions

    def test_positions_subset_of_fvc(self):
        from vcmatch.kmp_fvc import match_fvc

        rng = random.Random(49)
        for _ in range(200):
            P, T = random_pattern_text(rng)
            assert set(match_pvc(P, T).positions) <= set(match_fvc(P, T).positions)

    def test_chunk_width_invariance(self):
        rng = random.Random(50)
        for _ in range(100):
            P, T = random_pattern_text(rng)
            reports = {w: match_pvc(P, T, chunk_width=w).positions for w in (8, 16, 64)}
            assert reports[8] == reports[16] == reports[64]
