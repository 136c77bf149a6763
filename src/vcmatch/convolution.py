"""Correlation-based backend.

A window matches iff (1) every constant position of the pattern agrees with
the text and (2) for each variable, all text symbols aligned under its
occurrences are equal.  In injective (pvc) mode the per-variable window
values must additionally be pairwise distinct.  :func:`conv_match_all`
decides this decomposition on one of two paths, picked per search by
estimated cost; both run on one text slice at a time (:func:`_slices`), as
do the public masks, since a window depends on the text under it alone:

* the *direct* path: one compare per distinct constant finds where the
  slice holds it, and each constant position ANDs that hit mask in; a
  repeated variable compares its column with the one under the variable's
  first occurrence and ANDs the result in, a first occurrence costs
  nothing, and under pvc each pair of first occurrences costs one more
  compare and AND.  It compares ids, so it is exact for any ids, and it
  wins for all but long patterns over few windows;
* the *FFT* path reads both checks off two sliding cross-correlations,
  whatever the number of distinct constants: the text codes t against the
  pattern's constant codes p (0 at variables) and each variable's 0/1
  occurrence row, and t**2 against the 0/1 constant positions and the
  same rows.  The constants agree iff the sum of squared differences over
  constant positions, ``sum t^2 - 2 sum tp + sum p^2``, is 0, and a
  variable's k symbols a_i agree iff ``k * sum(a_i^2) == (sum(a_i))^2``
  (both Clifford & Clifford, IPL 2007).  Text codes are bytes, so these
  sums round exactly for all but enormous patterns.

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

# Path costs in nanoseconds, for _estimated_costs.  Direct: per column
# operation of _direct_ok (a compare or an AND), a call cost plus a cost per
# window.  FFT: a call cost plus a cost per row (two for the constants, two
# per variable), window-plus-m and transform level.  The direct pair was
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
# Windows per text slice, on every path.  On 1 MiB, against the whole text
# at once: FFT (m = 32..4,096, pvc) traced 14 MiB, not 164-196, and ran
# fastest at 2**16; direct, whose arrays take (distinct constants + 2) x
# 64 KiB, traced 12.7 MiB, not 199, on a pattern over 197 constants.
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


def _slices(text: TextString, m: int):
    """Yield each text slice's first window (0-based) and its ids, viewed in
    place, read-only: ``FFT_CHUNK_WINDOWS`` windows (or m, if more), the
    last one fewer, overlapping the next slice by m-1."""
    codes, step = text.codes, max(FFT_CHUNK_WINDOWS, m)
    for start in range(0, len(codes) - m + 1, step):
        # Positional count and offset: keywords cost frombuffer about 0.5 us.
        yield start, np.frombuffer(codes, np.uint8, min(step + m - 1, len(codes) - start), start)


def _fft_tables(pattern: PatternString, tcodes: np.ndarray):
    """Per window: whether every constant position agrees, and per pattern
    variable, by ascending id, whether all text symbols under its
    occurrences agree, plus their window sums and counts.

    Two correlations: the text codes t against the pattern's constant
    codes p (0 at variables) and each variable's 0/1 occurrence row, and
    t**2 against the 0/1 constant positions and the same variable rows.
    Raises :class:`OverflowRiskError` when either fails the exactness guard.
    """
    pcodes = np.asarray(pattern.codes, dtype=np.int64)
    constant = pcodes >= 0
    occurs = pcodes[None, :] == -1 - np.asarray(pattern.variables, dtype=np.int64)[:, None]
    p = np.where(constant, pcodes, 0)
    t = tcodes.astype(np.int64)
    # max(t, p)**2 bounds both t**2 against 0/1 and t against p.
    _check_value_bound(max(int(t.max()), int(p.max())) ** 2, 1, len(pattern))
    sums = _fft_correlate(t[None, :], np.vstack([p, occurs]))
    square_sums = _fft_correlate((t * t)[None, :], np.vstack([constant, occurs]))
    # Sum over constant positions of (t - p)^2 = sum t^2 - 2 sum tp + sum p^2.
    agree = square_sums[0] - 2 * sums[0] + int(p @ p) == 0
    counts = occurs.sum(axis=1)[:, None]
    # Squared-sum identity: k * sum(a_i^2) == (sum a_i)^2 iff all a_i equal.
    consistent = counts * square_sums[1:] == sums[1:] * sums[1:]
    return agree, consistent, sums[1:], counts


def wildcard_mask(pattern: PatternString, text: TextString) -> np.ndarray:
    """Boolean mask over windows: True iff every constant position agrees.

    Variable positions act as don't-cares.  Entry i-1 describes the window
    starting at 1-based position i.  Reads the sum of squared differences
    over constant positions off two correlations per text slice; raises
    :class:`OverflowRiskError` only for patterns of about 108 million
    symbols or more.
    """
    return _joined_rows(pattern, text, lambda tables: tables[0])


def variable_consistent(pattern: PatternString, text: TextString, x: int) -> np.ndarray:
    """Boolean mask over windows: True iff all text symbols under the
    variable with id ``x`` agree.

    Uses the squared-sum identity on the correlations of the text codes
    and their squares against the 0/1 occurrence row of ``x``, the two
    that :func:`wildcard_mask` also reads.
    """
    if x not in pattern.variables:
        raise ValueError(f"variable {x} does not occur in the pattern")
    row = pattern.variables.index(x)
    return _joined_rows(pattern, text, lambda tables: tables[1][row])


def _joined_rows(pattern: PatternString, text: TextString, pick) -> np.ndarray:
    """The row that ``pick`` takes from each text slice's :func:`_fft_tables`,
    joined over the slices."""
    if len(pattern) > len(text):
        raise ValueError("pattern longer than text")
    return np.concatenate([pick(_fft_tables(pattern, part)) for _, part in _slices(text, len(pattern))])


def _estimated_costs(m: int, n_out: int, operations: int, rows: int) -> tuple[float, float]:
    """Estimated nanoseconds of the direct and the FFT path for a pattern of
    length ``m`` over ``n_out`` windows, with ``operations`` column
    operations on the direct path and ``rows`` correlation rows."""
    direct = operations * (DIRECT_COMPARE_NS + DIRECT_WINDOW_NS * n_out)
    levels = _next_pow2(2 * m - 1).bit_length()
    fft = FFT_CALL_NS + FFT_ROW_NS * rows * (n_out + m) * levels
    return direct, fft


def _direct_ok(pattern: PatternString, tcodes: np.ndarray, injective: bool) -> np.ndarray:
    """Per window of the text slice ``tcodes``, the decomposition by columns."""
    n_out = tcodes.size - len(pattern) + 1
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
    ok, consistent, sums, counts = _fft_tables(pattern, tcodes)
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
    rates cheaper, and the direct path whenever the exactness guard refuses
    the FFT path's correlations, which takes a pattern of about 108
    million symbols or more.  The path runs on one text slice at a time.
    """
    injective = is_injective_mode(mode)
    m = len(pattern)
    n_out = len(text) - m + 1
    if n_out <= 0:
        return MatchReport([])
    num_variables = len(pattern.variables)
    num_constants = len(set(pattern.codes)) - num_variables
    pairs = math.comb(num_variables, 2) if injective else 0
    variable_positions = sum(1 for code in pattern.codes if code < 0)
    # _direct_ok ANDs at each constant position, compares and ANDs at each
    # repeated variable position and pair, and compares the text with each
    # distinct constant; a first occurrence costs nothing.
    repeats = variable_positions - num_variables
    operations = m - variable_positions + 2 * (repeats + pairs) + num_constants
    direct, fft = _estimated_costs(m, n_out, operations, 2 + 2 * num_variables)
    path = "direct" if direct <= fft else "fft"
    try:  # text and pattern constant ids stay below the table's count
        _check_value_bound((text.table.num_constants - 1) ** 2, 1, m)
    except OverflowRiskError as exc:
        logger.warning("falling back to direct summation: %s", exc)
        path = "fallback"
    evaluate = _fft_ok if path == "fft" else _direct_ok
    hits = []  # per slice, the 1-based starts of its matching windows
    for start, part in _slices(text, m):
        # ndarray.nonzero: np.flatnonzero costs a tiny search about 2 us more.
        hits.append(evaluate(pattern, part, injective).nonzero()[0] + (start + 1))
    line = "%s path: m=%d, %d windows, direct ~%.0f ns, fft ~%.0f ns, %d slices"
    logger.debug(line, path, m, n_out, direct, fft, len(hits))
    # One tolist: per-slice lists cost x1.1 where every window matched, and
    # np.concatenate costs a one-slice search about 1 us.
    return MatchReport((hits[0] if len(hits) == 1 else np.concatenate(hits)).tolist())
