"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of the seed.  Where the cost of a
search depends on the pattern more than on the text (the naive scan, the
kmp failure rows), the pattern is fixed and the seed varies the text, so
that every seed asks for the same amount of work and run-to-run spread
measures the machine, not the draw.

The timed run searches a long text as slices that overlap by m-1, so each
window lies in exactly one slice: a timed request then lasts tens of
milliseconds, close to the calibration loop run around it (calibrate.py).
The traced run searches the whole text.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass

WORKLOADS = ("random-narrow", "periodic-long", "cli-wide", "crosscheck-tiny")


@dataclass(frozen=True)
class Case:
    """One search: pattern bytes, text bytes, mode, and 1-based starts that
    the generator planted and every backend must report."""

    pattern: bytes
    text: bytes
    mode: str
    planted: tuple[int, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple[Case, ...]  # the timed run's operations
    trace_cases: tuple[Case, ...]  # the traced run's operations
    witnesses: bool  # search with witness bindings attached
    via_cli: bool  # the backends run as `vcmatch find` child processes
    crosscheck_cases: int = 0  # run_crosscheck traffic of the same shape, for the crosscheck layer


def sliced(case: Case, size: int) -> tuple[Case, ...]:
    """Slices of ``case.text`` holding ``size`` window starts each."""
    m = len(case.pattern)
    out = []
    for first in range(0, len(case.text) - m + 1, size):
        planted = tuple(p - first for p in case.planted if first < p <= first + size)
        out.append(Case(case.pattern, case.text[first : first + size + m - 1], case.mode, planted))
    return tuple(out)


def _narrow_pair(seed: int, n: int = 65536, m: int = 64) -> tuple[str, str]:
    # Same draw order as vcmatch.bench.make_inputs(n, m, seed=seed) with its
    # defaults (3 variables, 3 constants), so seed 1 is the ROADMAP baseline.
    rng = random.Random(seed)
    pattern = "".join(rng.choice("ABC") if rng.random() < 0.4 else rng.choice("abc") for _ in range(m))
    text = "".join(rng.choice("abc") for _ in range(n))
    return pattern, text


def random_narrow(seed: int) -> Workload:
    """fvc, m=64 over 3 variables and 3 constants, 64 KiB of 3-letter text.

    The pattern is the seed-1 draw for every seed: the naive scan's cost
    swings by 2x between patterns of the same shape.
    """
    pattern, _ = _narrow_pair(1)
    _, text = _narrow_pair(seed)
    case = Case(pattern.encode(), text.encode(), "fvc")
    return Workload("random-narrow", sliced(case, 4096), (case,), False, False)


PERIODIC_UNIT = b"aABC"
PERIODIC_REPEATS = 128
# Run lengths in periods, in one shuffled order for every seed: 16,384
# chars and exactly 992 matches.  The order decides how the matches fall
# into the timed slices, and so the slowest slice that find_p99_us reads;
# the seed picks only the bindings.  16 KiB rather than 32 KiB: a pass
# then takes 1.5 s instead of 2.3 s, and more passes per run steady the
# medians over the passes.
PERIODIC_RUNS = tuple(1 + 8 * i for i in range(32)) + (96,)
PERIODIC_LAYOUT_SEED = 1
PERIODIC_POOL = "bcdefghijklmnopqrstuvwxyz0123456789"


def periodic_long(seed: int) -> Workload:
    """pvc, pattern (aABC)*128, text of runs (a x y z)*L with fresh distinct x, y, z."""
    runs = list(PERIODIC_RUNS)
    random.Random(PERIODIC_LAYOUT_SEED).shuffle(runs)
    rng = random.Random(seed)
    m = len(PERIODIC_UNIT) * PERIODIC_REPEATS
    parts: list[str] = []
    planted: list[int] = []
    offset = 0
    previous = None
    for periods in runs:
        triple = previous
        while triple == previous:
            triple = tuple(rng.sample(PERIODIC_POOL, 3))
        previous = triple
        parts.append(("a" + "".join(triple)) * periods)
        length = 4 * periods
        planted.extend(offset + 1 + 4 * t for t in range(max(0, (length - m) // 4 + 1)))
        offset += length
    case = Case(PERIODIC_UNIT * PERIODIC_REPEATS, "".join(parts).encode(), "pvc", tuple(planted))
    return Workload("periodic-long", sliced(case, 1024), (case,), True, False)


WIDE_ALPHABET = string.ascii_lowercase + string.digits + ".,-"  # 39 symbols
# m=32 with 6 variables and 5 distinct constants from the text alphabet.
WIDE_PATTERN = b"qA7zBqCC.kAD7qEzFk.AqC7zFqDkB.Eq"
# 64 KiB rather than 1 MiB: each CLI process is one timed try, and many
# short tries per backend are steadier than a few long ones.
WIDE_TEXT_BYTES = 1 << 16
WIDE_COPIES = 118


def cli_wide(seed: int) -> Workload:
    """fvc, 64 KiB over 39 symbols with 118 planted copies of a fixed m=32 pattern."""
    rng = random.Random(seed)
    m = len(WIDE_PATTERN)
    text = rng.choices(WIDE_ALPHABET.encode(), k=WIDE_TEXT_BYTES)
    slot = WIDE_TEXT_BYTES // WIDE_COPIES
    variables = sorted({b for b in WIDE_PATTERN if chr(b).isupper()})
    planted = []
    for copy in range(WIDE_COPIES):
        start = copy * slot + rng.randrange(slot - m + 1)
        binding = {v: rng.choice(WIDE_ALPHABET.encode()) for v in variables}
        text[start : start + m] = bytes(binding.get(b, b) for b in WIDE_PATTERN)
        planted.append(start + 1)
    cases = (Case(WIDE_PATTERN, bytes(text), "fvc", tuple(planted)),)
    return Workload("cli-wide", cases, cases, True, True)


# 2,000 rather than 4,000: a pass then takes about 1.4 s, so a run makes
# twice the passes; each pass's p99 still has 20 samples beyond it.
CROSSCHECK_CASES = 2000


def tiny_case(rng: random.Random, max_m: int = 10, max_n: int = 50) -> tuple[bytes, bytes, dict[str, str], int]:
    """One case drawn like vcmatch.crosscheck.generate_case with its defaults.

    Variables are bound in sorted order (generate_case iterates a set, whose
    order changes with the hash seed).  Returns the planted binding and the
    1-based planted start, or 0 when nothing was planted.
    """
    m = rng.randint(1, max_m)
    n = rng.randint(1, max_n)
    pattern = "".join(rng.choice("ABC") if rng.random() < 0.4 else rng.choice("abc") for _ in range(m))
    text = [rng.choice("abc") for _ in range(n)]
    binding: dict[str, str] = {}
    start = 0
    if m <= n and rng.random() < 0.5:
        binding = {v: rng.choice("abc") for v in sorted(set(pattern) & set("ABC"))}
        start = rng.randint(0, n - m) + 1
        for offset, ch in enumerate(pattern):
            text[start - 1 + offset] = binding.get(ch, ch)
    return pattern.encode(), "".join(text).encode(), binding, start


def crosscheck_tiny(seed: int) -> Workload:
    """2,000 tiny cases, alternately fvc and pvc: 20 latency samples beyond p99."""
    rng = random.Random(seed)
    cases = []
    for index in range(CROSSCHECK_CASES):
        pattern, text, binding, start = tiny_case(rng)
        mode = ("fvc", "pvc")[index % 2]
        injective = len(set(binding.values())) == len(binding)
        planted = (start,) if start and (mode == "fvc" or injective) else ()
        cases.append(Case(pattern, text, mode, planted))
    return Workload("crosscheck-tiny", tuple(cases), tuple(cases), False, False, CROSSCHECK_CASES)


GENERATORS = {
    "random-narrow": random_narrow,
    "periodic-long": periodic_long,
    "cli-wide": cli_wide,
    "crosscheck-tiny": crosscheck_tiny,
}


def make_workload(name: str, seed: int) -> Workload:
    return GENERATORS[name](seed)
