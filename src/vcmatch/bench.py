"""Timing grid for the backends, reported as CSV rows.

Preprocessing (fit) and query (predict) are timed separately; one warm-up
run per combination is excluded and the minimum over the remaining repeats
is reported.  Every query reuses one fitted matcher, so query times include
a warm kmp failure cache, and a kmp scan starts in any DFA the warm-up built.
"""

from __future__ import annotations

import random
import string
import time
from dataclasses import dataclass

from .matchers import make_matcher

CSV_HEADER = "algo,mode,m,n,variables,pattern_constants,preprocess_ns,query_ns"


@dataclass
class BenchRow:
    algo: str
    mode: str
    m: int
    n: int
    num_variables: int
    num_pattern_constants: int
    preprocess_ns: int
    query_ns: int

    def as_csv(self) -> str:
        return (
            f"{self.algo},{self.mode},{self.m},{self.n},{self.num_variables},"
            f"{self.num_pattern_constants},{self.preprocess_ns},{self.query_ns}"
        )


def make_inputs(
    n: int,
    m: int,
    num_variables: int = 3,
    num_constants: int = 3,
    seed: int = 1,
) -> tuple[str, str]:
    """Deterministic pattern/text pair for timing runs."""
    rng = random.Random(seed)
    variables = string.ascii_uppercase[:num_variables]
    constants = string.ascii_lowercase[:num_constants]
    pattern = "".join(
        rng.choice(variables) if rng.random() < 0.4 else rng.choice(constants)
        for _ in range(m)
    )
    text = "".join(rng.choice(constants) for _ in range(n))
    return pattern, text


def _best_ns(fn, repeats: int) -> int:
    fn()  # warm-up, excluded
    times = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - start)
    return min(times)  # ValueError when repeats < 1


def run_bench(
    ns: list[int],
    m: int = 64,
    algos: tuple[str, ...] = ("naive", "conv", "kmp"),
    modes: tuple[str, ...] = ("fvc", "pvc"),
    num_variables: int = 3,
    num_constants: int = 3,
    seed: int = 1,
    repeats: int = 3,
) -> list[BenchRow]:
    rows = []
    for n in ns:
        pattern, text = make_inputs(n, m, num_variables, num_constants, seed)
        for mode in modes:
            for algo in algos:
                matcher = make_matcher(algo, mode=mode)
                pre_ns = _best_ns(lambda: matcher.fit(pattern), repeats)
                query_ns = _best_ns(lambda: matcher.predict(text), repeats)
                rows.append(
                    BenchRow(
                        algo=algo,
                        mode=mode,
                        m=m,
                        n=n,
                        num_variables=len(matcher.pattern_.variables),
                        num_pattern_constants=len(matcher.pattern_.constants),
                        preprocess_ns=pre_ns,
                        query_ns=query_ns,
                    )
                )
    return rows
