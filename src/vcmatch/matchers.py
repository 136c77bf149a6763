"""Estimator-style matcher classes: fit a pattern once, search many texts.

The classes follow the familiar fit/predict surface -- parameters are
stored verbatim by ``__init__``, ``fit`` compiles the pattern and returns
``self``, fitted state lives in trailing-underscore attributes, and
``get_params``/``set_params`` allow cloning and grid-style composition.
"""

from __future__ import annotations

from functools import cache

from .core import Substitution, TextString, encode_pattern, encode_text, is_injective_mode
from .kmp import KmpEngine
from .naive import MatchReport, naive_all

ALGORITHMS = ("naive", "conv", "kmp")


class NotFittedError(RuntimeError):
    """The matcher must be fitted with a pattern before searching."""


def check_pattern(pattern) -> str | bytes:
    if not isinstance(pattern, (str, bytes, bytearray)):
        raise TypeError(f"pattern must be str or bytes, got {type(pattern).__name__}")
    if len(pattern) == 0:
        raise ValueError("pattern must be non-empty")
    return pattern


def check_text(text) -> str | bytes:
    if not isinstance(text, (str, bytes, bytearray)):
        raise TypeError(f"text must be str or bytes, got {type(text).__name__}")
    return text


class BaseMatcher:
    """Shared parameter handling, input validation, and search surface."""

    def __init__(self, mode: str = "fvc", variables=None):
        self.mode = mode
        self.variables = variables

    def get_params(self, deep: bool = True) -> dict:
        # The named parameters of __init__ past self: its code object lists
        # them first, ahead of any *args, **kwargs and locals.
        code = type(self).__init__.__code__
        names = code.co_varnames[1 : code.co_argcount + code.co_kwonlyargcount]
        return {name: getattr(self, name) for name in names}

    def set_params(self, **params) -> "BaseMatcher":
        valid = self.get_params()
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters are {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def fit(self, pattern, y=None) -> "BaseMatcher":
        """Classify and preprocess the pattern; returns self."""
        check_pattern(pattern)
        self.injective_ = is_injective_mode(self.mode)
        self.pattern_ = encode_pattern(pattern, self.variables)
        self.symbol_table_ = self.pattern_.table
        self._compile()
        return self

    def _compile(self) -> None:
        """Hook for per-backend preprocessing; default is none."""

    def _check_fitted(self) -> None:
        if not hasattr(self, "pattern_"):
            raise NotFittedError(f"{type(self).__name__} must be fitted before searching")

    def _encode_text(self, text) -> TextString:
        if isinstance(text, TextString):
            if text.table is not self.symbol_table_:
                raise ValueError("text was classified against a different symbol table")
            return text
        return encode_text(check_text(text), self.symbol_table_)

    def find(self, text, with_witnesses: bool = False) -> MatchReport:
        """Search a text; optionally attach a witness binding per position.

        A matching window fixes its substitution, each variable taking the
        text symbol under its first occurrence, so a witness is read off
        those positions instead of re-matching the window.
        """
        self._check_fitted()
        encoded = self._encode_text(text)
        report = self._search(encoded)
        if with_witnesses:
            codes = encoded.codes
            firsts = self.pattern_.first_occurrences
            report.witnesses = {
                pos: Substitution({vid: codes[pos - 1 + q] for vid, q in firsts})
                for pos in report.positions
            }
        return report

    def predict(self, text) -> list[int]:
        """1-based start positions of all matching windows."""
        return self.find(text).positions

    def _search(self, text: TextString) -> MatchReport:
        raise NotImplementedError


class NaiveMatcher(BaseMatcher):
    """Window-by-window scan; the reference backend."""

    def _search(self, text: TextString) -> MatchReport:
        return naive_all(self.pattern_, text, mode=self.mode)


@cache
def _conv_match_all():
    """``conv_match_all``, imported (with numpy) on the first call only."""
    from .convolution import conv_match_all

    return conv_match_all


class ConvolutionMatcher(BaseMatcher):
    """Cross-correlation backend.

    numpy is imported with the first instance, so a process that never
    builds one never loads it, and no fit or search pays for the import.
    """

    def __init__(self, mode: str = "fvc", variables=None):
        super().__init__(mode, variables)
        _conv_match_all()

    def _search(self, text: TextString) -> MatchReport:
        return _conv_match_all()(self.pattern_, text, mode=self.mode)


class KmpMatcher(BaseMatcher):
    """Single-pass backend with bit-packed shift tables."""

    def __init__(self, mode: str = "fvc", variables=None, chunk_width: int = 64):
        super().__init__(mode, variables)
        self.chunk_width = chunk_width

    def _compile(self) -> None:
        self.engine_ = KmpEngine(self.pattern_, self.injective_, self.chunk_width)

    def _search(self, text: TextString) -> MatchReport:
        return self.engine_.find_all(text)


def make_matcher(algo: str, mode: str = "fvc", variables=None, chunk_width: int = 64) -> BaseMatcher:
    """Instantiate a backend by name (one of 'naive', 'conv', 'kmp')."""
    if algo == "naive":
        return NaiveMatcher(mode=mode, variables=variables)
    if algo == "conv":
        return ConvolutionMatcher(mode=mode, variables=variables)
    if algo == "kmp":
        return KmpMatcher(mode=mode, variables=variables, chunk_width=chunk_width)
    raise ValueError(f"unknown algorithm {algo!r}; expected one of {ALGORITHMS}")


def find_all(
    pattern,
    text,
    mode: str = "fvc",
    algo: str = "kmp",
    variables=None,
    chunk_width: int = 64,
) -> list[int]:
    """Convenience one-shot search returning 1-based match positions."""
    matcher = make_matcher(algo, mode=mode, variables=variables, chunk_width=chunk_width)
    return matcher.fit(pattern).predict(text)
