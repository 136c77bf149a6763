"""Correlation-based backend.

A window matches iff (1) every constant position of the pattern agrees with
the text and (2) for each variable, all text symbols aligned under its
occurrences are equal.  Both checks reduce to sliding cross-correlations:

* constant agreement is checked with one 0/1 indicator correlation per
  distinct pattern constant;
* per-variable equality uses the squared-sum identity
  ``k * sum(a_i^2) == (sum(a_i))^2  iff  all a_i equal``,
  which needs two correlations per variable (text and squared text against
  the variable's occurrence indicator).

In injective (pvc) mode the per-variable window values must additionally be
pairwise distinct.  Correlations run block-wise over a fast transform and
are rounded back to exact integers; inputs whose rounding error bound
reaches 1/2 raise :class:`OverflowRiskError` and callers fall back to direct
summation with arbitrary-precision integers.
"""

from __future__ import annotations

import logging
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import PatternString, Symbol, TextString, is_injective_mode
from .naive import MatchReport

logger = logging.getLogger(__name__)

# Exactness guard for the float transform path: values stay below 2**26, and
# the first-order rounding error bound of a float64 FFT convolution of size
# 2**k, |a|_2 * |b|_2 * eps * (c * k + c0) (Percival, Math. Comp. 72, 2003),
# stays below 1/2, with |a|_2 <= a_max * sqrt(2m-1) per block and |b|_2 <=
# b_max * sqrt(m).  c = 3 + 3*sqrt(5) + 3 for one-eps twiddles, rounded up.
VALUE_LIMIT = 1 << 26
FFT_EPS = 2.0**-53
FFT_ERROR_PER_LEVEL = 16.0
FFT_ERROR_BASE = 4.0


class OverflowRiskError(OverflowError):
    """Inputs may produce correlation sums too large to round exactly."""


def _as_int_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        if not np.all(np.equal(np.mod(arr, 1), 0)):
            raise ValueError(f"{name} must contain integers")
    arr = arr.astype(np.int64)
    if arr.size and arr.min() < 0:
        raise ValueError(f"{name} must be non-negative")
    return arr


def _check_value_bound(a_max: int, b_max: int, m: int) -> None:
    """Raise unless rounding the blocked transform provably gives exact
    integers, for blocks of 2m-1 values up to ``a_max`` and kernels of m
    values up to ``b_max``."""
    if a_max >= VALUE_LIMIT or b_max >= VALUE_LIMIT:
        raise OverflowRiskError(f"values up to {max(a_max, b_max)} reach the limit {VALUE_LIMIT}")
    levels = _next_pow2(2 * m - 1).bit_length() - 1
    norms = a_max * b_max * math.sqrt((2 * m - 1) * m)
    bound = norms * FFT_EPS * (FFT_ERROR_PER_LEVEL * levels + FFT_ERROR_BASE)
    if bound >= 0.5:
        raise OverflowRiskError(f"transform rounding error may reach {bound:.3g} at kernel length {m}")


def _next_pow2(x: int) -> int:
    return 1 << max(0, (x - 1).bit_length())


def _fft_correlate(a_rows: np.ndarray, b_rows: np.ndarray) -> np.ndarray:
    """Correlate row i of ``a_rows`` (or its only row) against row i of
    ``b_rows``, rounded to integers.

    Blocks of length 2m-1 with stride m each take one transform of size
    >= 2m-1, so wrap-around never touches the m outputs a block keeps.
    """
    n = a_rows.shape[1]
    rows, m = b_rows.shape
    n_out = n - m + 1
    size = _next_pow2(2 * m - 1)
    nblocks = -(-n_out // m)
    padded = np.zeros((a_rows.shape[0], (nblocks - 1) * m + 2 * m - 1), dtype=np.float64)
    padded[:, :n] = a_rows
    blocks = sliding_window_view(padded, 2 * m - 1, axis=1)[:, ::m, :]
    fa = np.fft.rfft(blocks, size, axis=2)
    fb = np.fft.rfft(b_rows[:, ::-1], size, axis=1)
    conv = np.fft.irfft(fa * fb[:, None, :], size, axis=2)
    vals = conv[:, :, m - 1 : 2 * m - 1]
    return np.rint(vals.reshape(rows, nblocks * m)[:, :n_out]).astype(np.int64)


def correlate(a, b) -> np.ndarray:
    """Sliding dot product: R[j] = sum_i a[j+i] * b[i], exact integers.

    ``a`` has length n, ``b`` length m <= n; the result has length n-m+1.
    Computed block-wise with a fast transform and rounded to the nearest
    integer.  Raises :class:`OverflowRiskError` when a value reaches
    ``VALUE_LIMIT`` or the transform's rounding error bound reaches 1/2
    (callers then use :func:`correlate_direct`).
    """
    a_arr = _as_int_array(a, "a")
    b_arr = _as_int_array(b, "b")
    n, m = a_arr.size, b_arr.size
    if m < 1:
        raise ValueError("kernel must be non-empty")
    if m > n:
        raise ValueError(f"kernel length {m} exceeds sequence length {n}")
    _check_value_bound(int(a_arr.max()), int(b_arr.max()), m)
    return _fft_correlate(a_arr[None, :], b_arr[None, :])[0]


def correlate_direct(a, b) -> list[int]:
    """Direct O(n*m) summation with Python integers; exact for any magnitude."""
    a_list = [int(v) for v in a]
    b_list = [int(v) for v in b]
    n, m = len(a_list), len(b_list)
    if m < 1:
        raise ValueError("kernel must be non-empty")
    if m > n:
        raise ValueError(f"kernel length {m} exceeds sequence length {n}")
    return [sum(a_list[j + i] * b_list[i] for i in range(m)) for j in range(n - m + 1)]


def _text_array(text: TextString) -> np.ndarray:
    """The text's constant ids as an array; byte-sized ids convert at C speed."""
    try:
        return np.frombuffer(bytes(text.codes), dtype=np.uint8)
    except ValueError:  # an id above 255
        return np.asarray(text.codes, dtype=np.int64)


def _constant_mismatch_counts(pattern: PatternString, tcodes: np.ndarray) -> np.ndarray:
    """Per window, how many constant positions of the pattern disagree."""
    n_out = tcodes.size - len(pattern) + 1
    constants = pattern.constants
    if not constants:
        return np.zeros(n_out, dtype=np.int64)
    pcodes = np.asarray(pattern.codes, dtype=np.int64)
    cids = np.asarray([c.id for c in constants], dtype=np.int64)
    pattern_is = (pcodes[None, :] == cids[:, None]).astype(np.float64)
    text_not = (tcodes[None, :] != cids[:, None]).astype(np.float64)
    return _fft_correlate(text_not, pattern_is).sum(axis=0)


def wildcard_mask(pattern: PatternString, text: TextString) -> np.ndarray:
    """Boolean mask over windows: True iff every constant position agrees.

    Variable positions act as don't-cares.  Entry i-1 describes the window
    starting at 1-based position i.  Uses one indicator correlation per
    distinct pattern constant.
    """
    if len(pattern) > len(text):
        raise ValueError("pattern longer than text")
    return _constant_mismatch_counts(pattern, _text_array(text)) == 0


def _variable_tables(pattern: PatternString, tcodes: np.ndarray):
    """Per pattern variable, in registration order: where all text symbols
    under its occurrences agree, plus their window sums and counts.

    The text is first re-encoded as dense ids 1..|distinct ids|.  Falls back
    to direct summation when the squared text fails the exactness guard;
    the dense text is never larger, so it passes whenever its squares do.
    """
    variables = list(pattern.variables)
    vcodes = np.asarray([v.code for v in variables], dtype=np.int64)
    rows = (np.asarray(pattern.codes, dtype=np.int64)[None, :] == vcodes[:, None]).astype(np.float64)
    counts = rows.sum(axis=1).astype(np.int64)[:, None]
    dense = np.unique(tcodes, return_inverse=True)[1].astype(np.int64) + 1
    squares = dense * dense
    try:
        _check_value_bound(int(squares.max()), 1, len(pattern))
        sums, square_sums = _fft_correlate(dense[None, :], rows), _fft_correlate(squares[None, :], rows)
    except OverflowRiskError as exc:
        logger.warning("falling back to direct summation: %s", exc)
        kernels = rows.astype(np.int64).tolist()
        sums = np.array([correlate_direct(dense.tolist(), k) for k in kernels], dtype=object)
        square_sums = np.array([correlate_direct(squares.tolist(), k) for k in kernels], dtype=object)
    # Squared-sum identity: k * sum(a_i^2) == (sum a_i)^2 iff all a_i equal.
    return variables, np.asarray(counts * square_sums == sums * sums, dtype=bool), sums, counts


def variable_consistent(pattern: PatternString, text: TextString, x: Symbol) -> np.ndarray:
    """Boolean mask over windows: True iff all text symbols under ``x`` agree.

    Uses the squared-sum identity on two correlations against the 0/1
    occurrence row of ``x``.
    """
    if x not in pattern.occurrence_counts:
        raise ValueError(f"{x} does not occur in the pattern")
    if len(pattern) > len(text):
        raise ValueError("pattern longer than text")
    variables, consistent, _, _ = _variable_tables(pattern, _text_array(text))
    return consistent[variables.index(x)]


def conv_match_all(pattern: PatternString, text: TextString, mode: str = "fvc") -> MatchReport:
    """Find all matching windows with the correlation backend."""
    injective = is_injective_mode(mode)
    n_out = len(text) - len(pattern) + 1
    if n_out <= 0:
        return MatchReport([])
    tcodes = _text_array(text)
    ok = _constant_mismatch_counts(pattern, tcodes) == 0
    if pattern.variables:
        variables, consistent, sums, counts = _variable_tables(pattern, tcodes)
        ok &= consistent.all(axis=0)
        if injective and len(variables) > 1:
            # Window values are exact on consistent windows only, which is
            # all that survives the mask above.
            values = sums // counts
            for i in range(len(variables)):
                for j in range(i + 1, len(variables)):
                    ok &= np.asarray(values[i] != values[j], dtype=bool)
    return MatchReport([int(i) + 1 for i in np.flatnonzero(ok)])
