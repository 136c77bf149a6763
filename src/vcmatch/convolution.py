"""Correlation-based backend.

A window matches iff (1) every constant position of the pattern agrees with
the text and (2) for each variable, all text symbols aligned under its
occurrences are equal.  In injective (pvc) mode the per-variable window
values must additionally be pairwise distinct.  :func:`conv_match_all`
decides this decomposition on one of two paths, picked per search by
estimated cost:

* the *direct* path works on slices of the text: one compare per distinct
  constant finds where the text holds it, and each constant position ANDs
  that hit mask in; a repeated variable compares its slice with the text
  under the variable's first occurrence and ANDs the result in, a first
  occurrence costs nothing, and under pvc each pair of first occurrences
  costs one more compare and AND.  It compares ids, so it is exact for
  any ids, and it wins for all but long patterns over few windows;
* the *FFT* path reduces both checks to sliding cross-correlations: one
  0/1 indicator correlation per distinct pattern constant, and per variable
  the squared-sum identity ``k * sum(a_i^2) == (sum(a_i))^2  iff  all a_i
  equal`` (Clifford & Clifford, IPL 2007), which needs two correlations
  (text and squared text against the variable's occurrence indicator).

Correlations run block-wise over a fast transform and are rounded back to
exact integers; inputs whose rounding error bound reaches 1/2 raise
:class:`OverflowRiskError`, and :func:`conv_match_all` then takes the
direct path.
"""

from __future__ import annotations

import itertools
import logging
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import PatternString, TextString, is_injective_mode
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

# Path costs in nanoseconds, for _estimated_costs.  Direct: per slice
# operation of _direct_ok (a compare or an AND), a call cost plus a cost per
# window.  FFT: a call cost plus a cost per row (one per distinct constant,
# two per variable), window-plus-m and transform level.  The direct pair was
# fitted by least squares on relative error to the fastest of 27-120 timed
# calls of both paths over six passes, at m = 1..2048 and 16..16,384
# windows, fvc and pvc, 1-6 variables and 1-5 constants, on periodic texts
# where no window dies early (2-vCPU x86 host, Python 3.11, numpy 2.4).
# For m >= 64 the 10th-90th percentiles of estimate over time are
# 0.99-1.20, and picking by the fit cost 0.9% more than always picking the
# faster path.
# Microseconds, direct / FFT, pvc patterns over 3 variables and 3
# constants:
#
#       m | 16 windows | 1,024 windows | 16,384 windows
#      16 |    19  159 |       22  308 |        36 2523
#      64 |    61  186 |       74  344 |       126 2672
#     256 |   231  244 |      264  362 |       469 2772
#     512 |   461  313 |      542  419 |       894 2594
#    1024 |   885  453 |     1094  534 |      1902 3653
#    2048 |  1743  871 |     2186  939 |      3627 3834
DIRECT_COMPARE_NS = 650.0
DIRECT_WINDOW_NS = 0.040
FFT_CALL_NS = 106_000.0
FFT_ROW_NS = 2.5
# Windows per FFT text slice.  On a 1 MiB text (m = 32..4,096, pvc, 3
# variables) 2**16 traced a 14 MiB peak against 164-196 MiB for the whole
# text at once, and ran faster than 2**12, 2**14 or the whole text.
FFT_CHUNK_WINDOWS = 1 << 16


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
    """The text's constant ids, viewed in place without a copy; the view
    is read-only, and the searches only read it."""
    return np.frombuffer(text.codes, dtype=np.uint8)


def _constant_mismatch_counts(pattern: PatternString, tcodes: np.ndarray) -> np.ndarray:
    """Per window, how many constant positions of the pattern disagree."""
    n_out = tcodes.size - len(pattern) + 1
    constants = pattern.constants
    if not constants:
        return np.zeros(n_out, dtype=np.int64)
    pcodes = np.asarray(pattern.codes, dtype=np.int64)
    cids = np.asarray(constants, dtype=np.int64)
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
    """Per pattern variable, by ascending id: where all text symbols
    under its occurrences agree, plus their window sums and counts.

    The text is first re-encoded as dense ids 1..|distinct ids|.  Raises
    :class:`OverflowRiskError` when the squared text fails the exactness
    guard; the dense text is never larger, so it passes whenever its
    squares do.
    """
    vcodes = -1 - np.asarray(pattern.variables, dtype=np.int64)
    rows = (np.asarray(pattern.codes, dtype=np.int64)[None, :] == vcodes[:, None]).astype(np.float64)
    counts = rows.sum(axis=1).astype(np.int64)[:, None]
    dense = np.unique(tcodes, return_inverse=True)[1].astype(np.int64) + 1
    squares = dense * dense
    _check_value_bound(int(squares.max()), 1, len(pattern))
    sums, square_sums = _fft_correlate(dense[None, :], rows), _fft_correlate(squares[None, :], rows)
    # Squared-sum identity: k * sum(a_i^2) == (sum a_i)^2 iff all a_i equal.
    return counts * square_sums == sums * sums, sums, counts


def variable_consistent(pattern: PatternString, text: TextString, x: int) -> np.ndarray:
    """Boolean mask over windows: True iff all text symbols under the
    variable with id ``x`` agree.

    Uses the squared-sum identity on two correlations against the 0/1
    occurrence row of ``x``; raises :class:`OverflowRiskError` when the
    text has too many distinct symbols for exact rounding.
    """
    if x not in pattern.variables:
        raise ValueError(f"variable {x} does not occur in the pattern")
    if len(pattern) > len(text):
        raise ValueError("pattern longer than text")
    consistent = _variable_tables(pattern, _text_array(text))[0]
    return consistent[pattern.variables.index(x)]


def _estimated_costs(m: int, n_out: int, operations: int, rows: int) -> tuple[float, float]:
    """Estimated nanoseconds of the direct and the FFT path for a pattern of
    length ``m`` over ``n_out`` windows, with ``operations`` slice
    operations on the direct path and ``rows`` correlation rows."""
    direct = operations * (DIRECT_COMPARE_NS + DIRECT_WINDOW_NS * n_out)
    levels = _next_pow2(2 * m - 1).bit_length()
    fft = FFT_CALL_NS + FFT_ROW_NS * rows * (n_out + m) * levels
    return direct, fft


def _direct_ok(pattern: PatternString, tcodes: np.ndarray, n_out: int, injective: bool) -> np.ndarray:
    """Per window, the decomposition as one slice compare per pattern position."""
    ok = np.ones(n_out, dtype=bool)
    hits: dict[int, np.ndarray] = {}  # constant id -> where the text holds it
    first: dict[int, np.ndarray] = {}  # variable code -> text under its first occurrence
    for off, code in enumerate(pattern.codes):
        if code >= 0:
            hit = hits.get(code)
            if hit is None:
                hit = hits[code] = tcodes == code
            ok &= hit[off : off + n_out]
        elif code in first:
            ok &= tcodes[off : off + n_out] == first[code]
        else:
            first[code] = tcodes[off : off + n_out]
        # Random text leaves no window standing after a few positions.  A
        # bool argmax stops at the first True, so this probe is cheap.
        if off % 8 == 7 and not ok[ok.argmax()]:
            return ok
    if injective:
        for a, b in itertools.combinations(first.values(), 2):
            ok &= a != b
    return ok


def _fft_ok(pattern: PatternString, tcodes: np.ndarray, injective: bool) -> np.ndarray:
    """Per window, the decomposition through blocked FFT correlations."""
    ok = _constant_mismatch_counts(pattern, tcodes) == 0
    if pattern.variables:
        consistent, sums, counts = _variable_tables(pattern, tcodes)
        ok &= consistent.all(axis=0)
        if injective:
            # Window values are exact on consistent windows only, which is
            # all that survives the mask above.
            values = sums // counts
            for a, b in itertools.combinations(values, 2):
                ok &= a != b
    return ok


def conv_match_all(pattern: PatternString, text: TextString, mode: str = "fvc") -> MatchReport:
    """Find all matching windows with the correlation backend.

    Takes the direct or the FFT path, whichever :func:`_estimated_costs`
    rates cheaper, and the direct path whenever the text has too many
    distinct symbols for the FFT path to round exactly.
    """
    injective = is_injective_mode(mode)
    m = len(pattern)
    n_out = len(text) - m + 1
    if n_out <= 0:
        return MatchReport([])
    tcodes = _text_array(text)
    num_variables = len(pattern.variables)
    num_constants = len(set(pattern.codes)) - num_variables
    pairs = math.comb(num_variables, 2) if injective else 0
    variable_positions = sum(1 for code in pattern.codes if code < 0)
    # _direct_ok ANDs at each constant position, compares and ANDs at each
    # repeated variable position and pair, and compares the text with each
    # distinct constant; a first occurrence costs nothing.
    repeats = variable_positions - num_variables
    operations = m - variable_positions + 2 * (repeats + pairs) + num_constants
    direct, fft = _estimated_costs(m, n_out, operations, num_constants + 2 * num_variables)
    path = "direct" if direct <= fft else "fft"
    if num_variables:
        try:  # dense ids never exceed the table's constant count
            _check_value_bound(text.table.num_constants**2, 1, m)
        except OverflowRiskError as exc:
            logger.warning("falling back to direct summation: %s", exc)
            path = "fallback"
    logger.debug("%s path: m=%d, %d windows, direct ~%.0f ns, fft ~%.0f ns", path, m, n_out, direct, fft)
    if path == "fft":
        # Text slices holding FFT_CHUNK_WINDOWS windows (or m, if more),
        # overlapping by m-1, bound the transform stack.
        step = max(FFT_CHUNK_WINDOWS, m)
        slices = (tcodes[start : start + step + m - 1] for start in range(0, n_out, step))
        ok = np.concatenate([_fft_ok(pattern, part, injective) for part in slices])
    else:
        ok = _direct_ok(pattern, tcodes, n_out, injective)
    return MatchReport((np.flatnonzero(ok) + 1).tolist())
