"""vcmatch: pattern matching with variable symbols bound to text symbols.

A pattern mixes constants with variables; a window of the text matches when
some substitution of constants for variables reproduces it exactly.  The
``pvc`` mode additionally requires the substitution to be injective.  Three
cross-checking backends are provided: a brute-force scan, a cross-
correlation method, and a single-pass scanner with bit-packed shift tables.
"""

import importlib

__version__ = "0.1.0"

# Every public name, by its home module, imported on first use (PEP 562): a
# process loads only the modules it reads names from, and numpy only with
# the convolution names.
_HOMES = {
    name: home
    for home, names in {
        "core": "InvalidInputError PatternString Substitution SymbolTable TextString classify_input",
        "kmp": "KmpEngine",
        "kmp_rows": "ShiftTable",
        "kmp_fvc": "BitmapSet FvcKmp add_condition build_bitmaps build_table match_fvc",
        "kmp_pvc": "PvcKmp build_injective_table build_t_bitmaps match_pvc",
        "matchers": "ConvolutionMatcher KmpMatcher NaiveMatcher NotFittedError find_all make_matcher",
        "naive": "MatchReport naive_all window_match",
        "convolution": "OverflowRiskError conv_match_all correlate correlate_direct variable_consistent "
        "wildcard_mask",
    }.items()
    for name in names.split()
}

# ``from vcmatch import *`` keeps giving what the eager imports gave: every
# name but the convolution ones.
__all__ = ["__version__", *(name for name, home in _HOMES.items() if home != "convolution")]


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
