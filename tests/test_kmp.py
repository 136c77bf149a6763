import random
import tracemalloc

import pytest

from helpers import random_pattern_text
from vcmatch.core import encode_pattern
from vcmatch.kmp import KmpEngine
from vcmatch.kmp_fvc import build_bitmaps, build_table
from vcmatch.kmp_pvc import PvcKmp, build_injective_table, build_t_bitmaps


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
