"""Backend worker: runs one backend over a workload's cases, one chunk per request.

Usage: python child.py CASES_JSON ALGO  (vcmatch importable, e.g. PYTHONPATH=src)

Each stdin line "START COUNT" asks for cases START..START+COUNT-1.  The
worker fits a fresh matcher for each case whose pattern or mode differs
from the case before it, and for case 0, which starts every pass; it
times ``fit`` and ``find``, and
checks the positions against the case's expected list.  It answers with
one JSON line: per-case fit nanoseconds (0 where the matcher was reused),
per-case find nanoseconds, the failure count, the number of matches, and
``cal_ns``, the calibration loop's times around the chunk (see
calibrate.py).
At end of input it prints ``{"vm_hwm_kib": K}``, its own peak RSS from
``/proc/self/status``, and exits.  That reading starts from this process's
own memory map; ``ru_maxrss`` from ``os.wait4`` would never read below the
parent's peak.
"""

from __future__ import annotations

import gc
import json
import sys
import time
import traceback

import calibrate
from vcmatch.matchers import make_matcher


def run_chunk(algo: str, cases: list[dict], witnesses: bool, fitted: dict) -> dict:
    """Search ``cases``; ``fitted`` carries the last matcher and its (pattern, mode) across requests."""
    fit_ns, find_ns = [], []
    failed = matches = 0
    matcher, key = fitted.get("matcher"), fitted.get("key")
    for case in cases:
        try:
            fit = 0
            if (case["pattern"], case["mode"]) != key:
                key = (case["pattern"], case["mode"])
                start = time.perf_counter_ns()
                matcher = make_matcher(algo, mode=case["mode"]).fit(case["pattern"].encode("latin-1"))
                fit = time.perf_counter_ns() - start
            text = case["text"].encode("latin-1")
            start = time.perf_counter_ns()
            report = matcher.find(text, with_witnesses=witnesses)
            find = time.perf_counter_ns() - start
            ok = report.positions == case["expected"]
            if witnesses:
                ok = ok and report.witnesses is not None and sorted(report.witnesses) == report.positions
            matches += len(report.positions)
        except Exception:  # a raising backend is a failed operation; keep serving
            traceback.print_exc()
            matcher = key = None
            fit, find, ok = 0, 0, False
        fit_ns.append(fit)
        find_ns.append(find)
        failed += not ok
    fitted.update(matcher=matcher, key=key)
    return {"fit_ns": fit_ns, "find_ns": find_ns, "failed": failed, "matches": matches}


def peak_rss_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as handle:
        return next(int(line.split()[1]) for line in handle if line.startswith("VmHWM:"))


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="ascii") as handle:
        doc = json.load(handle)
    algo, cases, witnesses = argv[2], doc["cases"], doc["witnesses"]
    fitted: dict = {}
    for line in sys.stdin:
        first, count = (int(v) for v in line.split())
        if first == 0:
            fitted.clear()
        gc.collect()
        before = calibrate.samples_ns()
        result = run_chunk(algo, cases[first : first + count], witnesses, fitted)
        result["cal_ns"] = before + calibrate.samples_ns()
        print(json.dumps(result), flush=True)
    print(json.dumps({"vm_hwm_kib": peak_rss_kib()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
