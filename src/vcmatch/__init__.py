"""vcmatch: pattern matching with variable symbols bound to text symbols.

A pattern mixes constants with variables; a window of the text matches when
some substitution of constants for variables reproduces it exactly.  The
``pvc`` mode additionally requires the substitution to be injective.  Three
cross-checking backends are provided: a brute-force scan, a cross-
correlation method, and a single-pass scanner with bit-packed shift tables.
"""

from .core import InvalidInputError, PatternString, Substitution, SymbolTable, TextString, classify_input
from .kmp import KmpEngine, ShiftTable
from .kmp_fvc import BitmapSet, FvcKmp, add_condition, build_bitmaps, build_table, match_fvc
from .kmp_pvc import PvcKmp, build_injective_table, build_t_bitmaps, match_pvc
from .matchers import (
    ConvolutionMatcher,
    KmpMatcher,
    NaiveMatcher,
    NotFittedError,
    find_all,
    make_matcher,
)
from .naive import MatchReport, naive_all, window_match

__version__ = "0.1.0"

# The convolution names load numpy, so they are imported on first use (PEP 562).
_CONVOLUTION_NAMES = frozenset({
    "OverflowRiskError",
    "conv_match_all",
    "correlate",
    "correlate_direct",
    "variable_consistent",
    "wildcard_mask",
})


def __getattr__(name: str):
    if name in _CONVOLUTION_NAMES:
        from . import convolution

        return getattr(convolution, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
