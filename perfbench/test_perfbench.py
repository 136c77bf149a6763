"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import calibrate
from spans import SpanRecorder, self_times
from workloads import WORKLOADS, make_workload

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from vcmatch.bench import make_inputs  # noqa: E402
from vcmatch.core import classify_input  # noqa: E402
from vcmatch.naive import naive_all  # noqa: E402


@pytest.mark.parametrize("name", WORKLOADS)
def test_generators_are_deterministic_per_seed(name):
    assert make_workload(name, 7) == make_workload(name, 7)
    assert make_workload(name, 7) != make_workload(name, 8)


def test_random_narrow_seed_1_is_the_make_inputs_baseline():
    pattern, text = make_inputs(65536, 64, seed=1)
    workload = make_workload("random-narrow", 1)
    (case,) = workload.trace_cases
    assert (case.pattern, case.text) == (pattern.encode(), text.encode())
    m = len(case.pattern)
    assert b"".join(s.text[: len(s.text) - m + 1] for s in workload.cases) + case.text[-m + 1 :] == case.text


@pytest.mark.parametrize("name", [name for name in WORKLOADS if make_workload(name, 1).witnesses])
def test_witness_workloads_contain_their_planted_matches(name):
    for seed in (1, 2):
        workload = make_workload(name, seed)
        for cases in (workload.cases, workload.trace_cases):
            found = 0
            for case in cases:
                positions = naive_all(*classify_input(case.pattern, case.text), mode=case.mode).positions
                assert set(case.planted) <= set(positions)
                found += len(positions)
            assert found >= sum(len(case.planted) for case in cases) > 0


def test_crosscheck_tiny_planted_starts_are_matches():
    workload = make_workload("crosscheck-tiny", 3)
    assert len(workload.cases) == workload.crosscheck_cases
    planted = [case for case in workload.cases if case.planted]
    assert len(planted) > len(workload.cases) // 5
    for case in planted[:500]:
        positions = naive_all(*classify_input(case.pattern, case.text), mode=case.mode).positions
        assert set(case.planted) <= set(positions)


def test_launcher_reports_the_command_peak_not_the_spawner_peak():
    """A command spawned directly reads at least this process's peak RSS;
    one started by launcher.py reads its own."""
    ballast = b"x" * (64 << 20)  # noqa: F841  (keeps this process's peak high)
    direct = subprocess.Popen([sys.executable, "-c", "pass"])
    _, _, usage = os.wait4(direct.pid, 0)
    direct.returncode = 0
    assert usage.ru_maxrss >= 64 << 10
    launcher = subprocess.Popen([sys.executable, str(ROOT / "perfbench" / "launcher.py")],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    request = {"argv": [sys.executable, "-c", "pass"], "stdout": os.devnull, "stderr": os.devnull}
    out, _ = launcher.communicate(json.dumps(request) + "\n", timeout=60)
    started, done = (json.loads(line) for line in out.splitlines())
    assert started["pid"] > 0 and done["code"] == 0
    assert done["maxrss_kib"] < 48 << 10
    assert len(done["cal_ns"]) == 2 * calibrate.REPS


def test_calibration_scale_is_reference_over_mean_loop_time():
    ref_ns = calibrate.REF_S * 1e9
    assert calibrate.scale([ref_ns] * 6) == pytest.approx(1.0)
    assert calibrate.scale([ref_ns, 3 * ref_ns]) == pytest.approx(0.5)
    assert calibrate.scale([]) == 1.0
    assert min(calibrate.samples_ns(2)) > 0


def test_worker_fits_once_per_pass_and_calibrates_each_request(tmp_path):
    workload = make_workload("periodic-long", 1)
    cases = [{"pattern": c.pattern.decode(), "text": c.text.decode(), "mode": c.mode,
              "expected": naive_all(*classify_input(c.pattern, c.text), mode=c.mode).positions}
             for c in workload.cases[:4]]
    cases_path = tmp_path / "cases.json"
    cases_path.write_text(json.dumps({"witnesses": False, "crosscheck_cases": 0, "cases": cases}))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"), str(cases_path), "naive"],
                          input="0 2\n2 2\n0 2\n", capture_output=True, text=True, env=env, timeout=120, check=True)
    *replies, peak = (json.loads(line) for line in proc.stdout.splitlines())
    assert [[fit > 0 for fit in reply["fit_ns"]] for reply in replies] == [[True, False], [False, False], [True, False]]
    assert all(len(reply["cal_ns"]) == 2 * calibrate.REPS and reply["failed"] == 0 for reply in replies)
    assert peak["vm_hwm_kib"] > 0


def _span(ident, parent, start, end):
    return {"id": ident, "name": ident, "parent": parent, "start_ns": start, "end_ns": end}


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        _span("root", None, 0, 100),
        _span("a", "root", 10, 40),
        _span("b", "root", 30, 60),  # overlaps a
        _span("c", "root", 90, 120),  # runs past the parent's end
        _span("d", "a", 0, 50),  # starts before its parent
    ]
    selfs = self_times(spans)
    assert selfs == {"root": 100 - 50 - 10, "a": 0, "b": 30, "c": 30, "d": 50}
    assert min(selfs.values()) >= 0


def test_recorded_spans_nest_and_have_non_negative_self_times():
    rec = SpanRecorder("t", parent="outer")
    with rec.span("run"):
        for _ in range(3):
            with rec.span("layer"):
                with rec.span("call"):
                    sum(range(1000))
    assert rec.spans[0]["parent"] == "outer"
    assert all(span["parent"] == rec.spans[0]["id"] for span in rec.spans if span["name"] == "layer")
    assert min(self_times(rec.spans).values()) >= 0


def test_traced_run_reports_every_layer_metric_and_the_baseline_failure_count():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "random-narrow", "--seed", "1", "--seconds", "2",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {metric["name"] for metric in bench["per_layer"]}
    assert result["metrics"]["kmp.failure_calls"]["value"] == 56213
    trace = json.loads((ROOT / ".perfbench" / "traces" / "random-narrow-seed1.json").read_text())
    assert trace["spans"] and min(span["self_ns"] for span in trace["spans"]) >= 0
