"""Randomized agreement harness: every backend must report identical positions,
and every witness must equal the one the oracle's ``window_match`` builds.

The generator plants instantiated pattern copies into roughly half of the
texts so positive windows are common, and the adversarial profile draws
from a tiny variable pool to force repeated variables.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field
from typing import Optional

from .core import MODES, encode_text
from .matchers import ALGORITHMS, make_matcher
from .naive import window_match


def generate_case(
    rng: random.Random,
    max_m: int = 10,
    max_n: int = 50,
    num_variables: int = 3,
    num_constants: int = 3,
    repeat_bias: bool = False,
) -> tuple[bytes, bytes]:
    """One random (pattern, text) pair over letter alphabets.

    Variables come from uppercase letters, constants from lowercase.  With
    ``repeat_bias`` the pattern leans on one or two variables used many
    times, the regime where shift bookkeeping is most error-prone.
    """
    variables = string.ascii_uppercase[:num_variables]
    constants = string.ascii_lowercase[:num_constants]
    m = rng.randint(1, max_m)
    n = rng.randint(1, max_n)
    if repeat_bias:
        pool = "".join(rng.sample(variables, k=min(len(variables), rng.randint(1, 2))))
        var_prob = 0.6
    else:
        pool = variables
        var_prob = 0.4
    pattern = "".join(
        rng.choice(pool) if rng.random() < var_prob else rng.choice(constants)
        for _ in range(m)
    )
    text = [rng.choice(constants) for _ in range(n)]
    if m <= n and rng.random() < 0.5:
        # Plant one instantiated copy of the pattern to guarantee candidates.
        # Variables draw in sorted order, so a seed gives the same case under
        # every hash seed.
        binding = {v: rng.choice(constants) for v in sorted(set(pattern) & set(variables))}
        start = rng.randint(0, n - m)
        for offset, ch in enumerate(pattern):
            text[start + offset] = binding.get(ch, ch)
    return pattern.encode(), "".join(text).encode()


@dataclass
class Disagreement:
    case_index: int
    pattern: bytes
    text: bytes
    mode: str
    reports: dict[str, list[int]]
    # Per backend, the positions whose witness differs from window_match's.
    bad_witnesses: dict[str, list[int]] = field(default_factory=dict)


def run_crosscheck(
    cases: int,
    seed: int = 1,
    max_m: int = 10,
    max_n: int = 50,
    num_variables: int = 3,
    num_constants: int = 3,
    adversarial: bool = False,
    chunk_width: int = 64,
) -> tuple[int, Optional[Disagreement]]:
    """Run all backends in both modes on ``cases`` random instances.

    A case agrees when every backend reports naive's positions with a
    witness per position equal to ``window_match``'s.  Returns the number
    of fully agreeing cases and the first disagreement, if any.
    Deterministic under a fixed seed.
    """
    rng = random.Random(seed)
    agree = 0
    for index in range(cases):
        praw, traw = generate_case(
            rng,
            max_m=max_m,
            max_n=max_n,
            num_variables=num_variables,
            num_constants=num_constants,
            repeat_bias=adversarial,
        )
        for mode in MODES:
            reports, bad_witnesses = {}, {}
            for algo in ALGORITHMS:
                matcher = make_matcher(algo, mode=mode, chunk_width=chunk_width).fit(praw)
                report = matcher.find(traw, with_witnesses=True)
                reports[algo] = report.positions
                text = encode_text(traw, matcher.symbol_table_)
                bad = [
                    pos
                    for pos, pi in report.witnesses.items()
                    if window_match(matcher.pattern_, text, pos, matcher.injective_)[1] != pi
                ]
                if bad:
                    bad_witnesses[algo] = bad
            baseline = reports["naive"]
            if bad_witnesses or any(reports[algo] != baseline for algo in ALGORITHMS):
                return agree, Disagreement(index, praw, traw, mode, reports, bad_witnesses)
        agree += 1
    return agree, None
