"""Benchmark for vcmatch: seeded workloads, one child process per backend, a correctness gate.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The harness generates the workload from the seed, computes the reference
positions with ``naive_all`` and hands the children only the generated
files.  ``--trace 0`` measures the end-to-end metrics: the three backends run
in their own long-lived worker processes (or, on ``cli-wide``, as
``vcmatch find`` processes started by ``launcher.py``), interleaved request
by request, and every timing is reported in reference seconds against the
calibration loop run around its request (calibrate.py).
``--trace 1`` runs the per-layer pass in ``layers.py`` plus the CLI probes
and writes the spans to ``.perfbench/traces/``.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  See README.md for
every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate
from spans import SpanRecorder, self_times
from workloads import WORKLOADS, Case, Workload, make_workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
ALGOS = ("naive", "conv", "kmp")
MiB = 1 << 20

# Cases per request: each request is bracketed by its own calibration (calibrate.py),
# so shorter requests match their reference time more closely.  cli-wide sends one.
CHUNK = {"crosscheck-tiny": 1000, "random-narrow": 8, "periodic-long": 8}
MIN_PASSES = 2
CLI_SHARE = 0.25  # share of the run given to the cli_s probe on in-process workloads
DEADLINE_S = 170  # children still alive by then are killed; a run must end within 180 s


class Reaper:
    """Tracks the children of a run; kills every one still alive at the deadline.

    ``adopted`` holds the pids of commands that ``launcher.py`` is running.
    """

    def __init__(self, deadline_s: float) -> None:
        self.live: list[subprocess.Popen] = []
        self.adopted: set[int] = set()
        self.lock = threading.Lock()
        self.timer = threading.Timer(deadline_s, self.kill_all)
        self.timer.daemon = True
        self.timer.start()

    def spawn(self, argv: list[str], **kwargs) -> subprocess.Popen:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        env["PYTHONHASHSEED"] = "0"
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, **kwargs)
        with self.lock:
            self.live.append(proc)
        return proc

    def wait(self, proc: subprocess.Popen) -> int:
        """Reap ``proc``; return its exit code."""
        code = proc.wait()
        with self.lock:
            self.live.remove(proc)
        return code

    def kill_all(self) -> None:
        with self.lock:
            for pid in self.adopted:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            for proc in self.live:
                proc.kill()

    def close(self) -> None:
        self.timer.cancel()
        self.kill_all()
        for proc in list(self.live):
            self.wait(proc)


class Launcher:
    """``launcher.py``, which starts commands so that ``ru_maxrss`` measures them.

    A command's peak RSS never reads below its spawner's; the launcher's
    is a bare interpreter's, the harness's holds numpy and every input.
    """

    def __init__(self, reaper: Reaper) -> None:
        self.reaper = reaper
        self.proc = reaper.spawn([sys.executable, str(BENCH / "launcher.py")],
                                 stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], stdout: Path, stderr: Path) -> tuple[int, float, float, list[int]]:
        """Run ``argv`` to its end; return its exit code, peak RSS in MiB, wall seconds
        and the calibration loop's nanoseconds around it."""
        self.proc.stdin.write(json.dumps({"argv": argv, "stdout": str(stdout), "stderr": str(stderr)}) + "\n")
        self.proc.stdin.flush()
        pid = json.loads(self.proc.stdout.readline())["pid"]
        with self.reaper.lock:
            self.reaper.adopted.add(pid)
        try:
            done = json.loads(self.proc.stdout.readline())
        finally:
            with self.reaper.lock:
                self.reaper.adopted.discard(pid)
        return done["code"], done["maxrss_kib"] * 1024 / MiB, done["wall_s"], done["cal_ns"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.reaper.wait(self.proc)


class WorkerBackend:
    """One backend in a long-lived ``child.py`` process, fed chunk by chunk."""

    def __init__(self, reaper: Reaper, algo: str, cases_path: Path, work: Path) -> None:
        self.reaper = reaper
        self.log = open(work / f"{algo}.stderr", "wb")
        self.proc = reaper.spawn(
            [sys.executable, str(BENCH / "child.py"), str(cases_path), algo],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self.log,
            text=True,
        )
        self.rss_mib: list[float] = []

    def run(self, first: int, count: int) -> dict:
        self.proc.stdin.write(f"{first} {count}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            return {"fit_ns": [0] * count, "find_ns": [0] * count, "failed": count, "matches": 0, "cal_ns": []}
        return json.loads(line)

    def pin(self, cpu: int) -> None:
        os.sched_setaffinity(self.proc.pid, {cpu})

    def close(self) -> bool:
        """End the worker and record its own peak RSS, which it prints last."""
        self.proc.stdin.close()
        line = self.proc.stdout.readline()
        self.proc.stdout.close()
        code = self.reaper.wait(self.proc)
        self.log.close()
        try:
            self.rss_mib.append(json.loads(line)["vm_hwm_kib"] * 1024 / MiB)
        except (ValueError, KeyError):
            return False
        return code == 0


class CliBackend:
    """One backend as ``vcmatch find --json --witness`` processes, one per case."""

    def __init__(self, launcher: Launcher, algo: str, workload: Workload, expected: list, work: Path) -> None:
        self.launcher, self.algo, self.workload, self.expected, self.work = launcher, algo, workload, expected, work
        self.rss_mib: list[float] = []
        self.walls: list[float] = []
        self.ref_walls: list[float] = []  # in reference seconds (calibrate.py)
        self.self_s: list[float] = []  # wall minus the CLI's own preprocess and query timings
        self.output_bytes: list[int] = []

    def _files(self, index: int) -> tuple[Path, Path]:
        pattern, text = self.work / f"case{index}.pattern", self.work / f"case{index}.text"
        if not pattern.exists():
            case = self.workload.cases[index]
            pattern.write_bytes(case.pattern)
            text.write_bytes(case.text)
        return pattern, text

    def run(self, first: int, count: int) -> dict:
        fit_ns, find_ns, cal_ns, failed, matches = [], [], [], 0, 0
        for index in range(first, first + count):
            case = self.workload.cases[index]
            pattern, text = self._files(index)
            out = self.work / f"cli-{self.algo}.stdout"
            argv = [sys.executable, "-m", "vcmatch.cli", "find", "--json", "--witness", "--algo", self.algo,
                    "--mode", case.mode, "--pattern-file", str(pattern), "--text-file", str(text)]
            code, rss, wall, cal = self.launcher.run(argv, out, self.work / f"cli-{self.algo}.stderr")
            raw = out.read_bytes()
            try:
                doc = json.loads(raw)
                timings = doc["timings"]
                ok = code == 0 and cli_output_ok(doc, case.pattern, case.text, self.expected[index])
                fit, find = timings["preprocess_ns"], timings["query_ns"]
                matches += len(doc["positions"])
            except (ValueError, KeyError, TypeError):
                ok, fit, find = False, 0, 0
            fit_ns.append(fit)
            find_ns.append(find)
            cal_ns.extend(cal)
            failed += not ok
            self.rss_mib.append(rss)
            self.walls.append(wall)
            self.ref_walls.append(wall * calibrate.scale(cal))
            self.self_s.append(wall - (fit + find) / 1e9)
            self.output_bytes.append(len(raw))
        return {"fit_ns": fit_ns, "find_ns": find_ns, "failed": failed, "matches": matches, "cal_ns": cal_ns}

    def pin(self, cpu: int) -> None:
        """Children start with the parent's affinity."""

    def close(self) -> bool:
        return True


def cli_output_ok(doc: dict, pattern: bytes, text: bytes, expected) -> bool:
    """Positions equal the reference and every witness rebuilds its window."""
    if doc["positions"] != expected or sorted(doc["witnesses"], key=int) != [str(p) for p in expected]:
        return False
    m = len(pattern)
    for pos, binding in doc["witnesses"].items():
        table = bytes.maketrans("".join(binding).encode("latin-1"), "".join(binding.values()).encode("latin-1"))
        start = int(pos) - 1
        if pattern.translate(table) != text[start : start + m]:
            return False
    return True


def reference(cases: tuple[Case, ...]) -> list:
    """naive_all positions per case; None where a planted start is missing,
    so that every operation on that case counts as failed."""
    sys.path.insert(0, str(SRC))
    from vcmatch.core import classify_input
    from vcmatch.naive import naive_all

    expected = []
    for case in cases:
        pattern, text = classify_input(case.pattern, case.text)
        positions = naive_all(pattern, text, mode=case.mode).positions
        expected.append(positions if set(case.planted) <= set(positions) else None)
    return expected


def write_cases(path: Path, workload: Workload, cases: tuple[Case, ...], expected: list) -> None:
    """The children's only input: cases, expected positions, workload flags."""
    doc = {
        "witnesses": workload.witnesses,
        "crosscheck_cases": workload.crosscheck_cases,
        "cases": [
            {"pattern": c.pattern.decode("latin-1"), "text": c.text.decode("latin-1"), "mode": c.mode, "expected": e}
            for c, e in zip(cases, expected)
        ],
    }
    path.write_text(json.dumps(doc))


def quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def latency_quantile(per_case: list[list[float]], q: int) -> float:
    """q-th percentile over the cases of each case's median latency over the passes."""
    return quantile([statistics.median(samples) for samples in per_case], q)


def timed_run(workload: Workload, work: Path, reaper: Reaper, launcher: Launcher, seconds: float,
              cpus: list[int]):
    """End-to-end metrics with nothing traced.

    Passes over the cases repeat until the next one would overrun
    ``seconds``.  Within a pass the backends take turns chunk by chunk;
    passes alternate between the allowed CPUs, one CPU at a time.  Each
    request is bracketed by the calibration loop in the process that
    serves it, and its times are turned into reference seconds with the
    mean of those loop times (calibrate.py).  Every timing metric is then
    a median over the passes: ``find_s`` of each pass's find time summed
    over the cases, ``setup_s`` of its fit time summed over the cases and
    backends, and ``cli_s`` of the kmp CLI processes.  ``find_p99_us`` is
    the p99 over the cases of each case's median latency over the passes:
    a pass's own p99 would follow the machine's stalls, since each pass
    has only 20 cases beyond it on ``crosscheck-tiny``.

    A case's latency is its fit plus find, except where the timed cases
    are slices of one text: there a request fits once for all its slices,
    so the latency is the find alone.
    """
    expected = reference(workload.cases)
    cases_path = work / "cases.json"
    write_cases(cases_path, workload, workload.cases, expected)
    ncases = len(workload.cases)
    size = CHUNK.get(workload.name, ncases)
    chunks = [(first, min(size, ncases - first)) for first in range(0, ncases, size)]
    sliced = len(workload.trace_cases) < ncases
    if workload.via_cli:
        backends = {algo: CliBackend(launcher, algo, workload, expected, work) for algo in ALGOS}
        probe = backends["kmp"]
    else:
        backends = {algo: WorkerBackend(reaper, algo, cases_path, work) for algo in ALGOS}
        probe = CliBackend(launcher, "kmp", workload, expected, work)
    # Per pass, in reference seconds; raw_* in measured seconds, for the notes.
    fit_pass = {algo: [] for algo in ALGOS}
    find_pass = {algo: [] for algo in ALGOS}
    raw_fit_pass = {algo: [] for algo in ALGOS}
    raw_find_pass = {algo: [] for algo in ALGOS}
    case_latency_us = {algo: [[] for _ in range(ncases)] for algo in ALGOS}
    matches = {algo: 0 for algo in ALGOS}
    attempted = failed = passes = 0
    probe_s = 0.0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        cpu = cpus[passes % len(cpus)]
        os.sched_setaffinity(0, {cpu})
        for backend in backends.values():
            backend.pin(cpu)
        sums = {key: dict.fromkeys(ALGOS, 0.0) for key in ("fit", "find", "raw_fit", "raw_find")}
        for first, count in chunks:
            for algo, backend in backends.items():
                res = backend.run(first, count)
                scale = calibrate.scale(res["cal_ns"])
                sums["raw_fit"][algo] += sum(res["fit_ns"]) / 1e9
                sums["raw_find"][algo] += sum(res["find_ns"]) / 1e9
                sums["fit"][algo] += sum(res["fit_ns"]) * scale / 1e9
                sums["find"][algo] += sum(res["find_ns"]) * scale / 1e9
                for index, fit, find in zip(range(first, first + count), res["fit_ns"], res["find_ns"]):
                    case_latency_us[algo][index].append((find if sliced else fit + find) * scale / 1e3)
                if passes == 0:
                    matches[algo] += res["matches"]
                attempted += count
                failed += res["failed"]
            if probe is not backends["kmp"] and probe_s <= CLI_SHARE * (time.perf_counter() - start):
                res = probe.run(len(probe.walls) % ncases, 1)
                probe_s += probe.walls[-1]
                attempted += 1
                failed += res["failed"]
        passes += 1
        for algo in ALGOS:
            fit_pass[algo].append(sums["fit"][algo])
            find_pass[algo].append(sums["find"][algo])
            raw_fit_pass[algo].append(sums["raw_fit"][algo])
            raw_find_pass[algo].append(sums["raw_find"][algo])
        now = time.perf_counter()
        if passes >= MIN_PASSES and now - start + (now - pass_start) > seconds:
            break
    for backend in backends.values():
        failed += not backend.close()
    failed += len(set(matches.values())) != 1
    median = statistics.median
    metrics = {}
    for algo in ALGOS:
        metrics[f"find_s.{algo}"] = (median(find_pass[algo]), "s")
    for algo in ALGOS:
        metrics[f"find_p99_us.{algo}"] = (latency_quantile(case_latency_us[algo], 99), "us")
    for algo in ALGOS:
        metrics[f"peak_rss_mib.{algo}"] = (median(backends[algo].rss_mib), "MiB")
    metrics["setup_s"] = (median(map(sum, zip(*fit_pass.values()))), "s")
    metrics["cli_s"] = (median(probe.ref_walls), "s")
    notes = {
        "passes": passes,
        "matches": matches,
        **{f"find_p50_us.{algo}": latency_quantile(case_latency_us[algo], 50) for algo in ALGOS},
        "latency_samples": ncases,
        "uncalibrated": {
            **{f"find_s.{algo}": median(raw_find_pass[algo]) for algo in ALGOS},
            "setup_s": median(map(sum, zip(*raw_fit_pass.values()))),
            "cli_s": median(probe.walls),
        },
        "find_pass_s": find_pass,
        "fit_pass_s": fit_pass,
        "cli_walls_s": probe.walls,
    }
    return metrics, attempted, failed, notes


def cli_probes(workload: Workload, expected: list, work: Path, reaper: Reaper, launcher: Launcher,
               rec: SpanRecorder, seconds: float):
    """cli.* metrics: the import alone, then whole `vcmatch find` runs with kmp."""
    imports, codes = [], []
    with rec.span("cli"):
        for _ in range(3):
            with rec.span("cli.import") as span:
                proc = reaper.spawn([sys.executable, "-c", "import vcmatch.cli"])
                codes.append(reaper.wait(proc))
            imports.append(span.seconds)
        failed = sum(code != 0 for code in codes)
        probe = CliBackend(launcher, "kmp", workload, expected, work)
        start = time.perf_counter()
        while len(probe.walls) < 3 and (not probe.walls or time.perf_counter() - start < seconds):
            with rec.span("cli.find"):
                failed += probe.run(len(probe.walls) % len(workload.cases), 1)["failed"]
    import_s = statistics.median(imports)
    metrics = {
        "cli.import_s": (import_s, "s"),
        "cli.self_s": (statistics.median(probe.self_s) - import_s, "s"),
        "cli.output_bytes": (statistics.median(probe.output_bytes), "bytes"),
    }
    return metrics, len(imports) + len(probe.walls), failed


def traced_run(workload: Workload, work: Path, reaper: Reaper, launcher: Launcher, seconds: float, seed: int,
               trace_path: Path):
    """Per-layer metrics: layers.py in one child over the whole texts, then
    the CLI probes on the timed run's cases."""
    expected = reference(workload.cases)
    cases_path = work / "trace_cases.json"
    same = workload.trace_cases is workload.cases
    write_cases(cases_path, workload, workload.trace_cases, expected if same else reference(workload.trace_cases))
    rec = SpanRecorder(f"{workload.name}/seed{seed}")
    with rec.span("run") as root:
        with rec.span("layers") as layers_span:
            argv = [sys.executable, str(BENCH / "layers.py"), str(cases_path), str(seconds), str(seed),
                    layers_span.id]
            with open(work / "layers.stdout", "wb") as stdout, open(work / "layers.stderr", "wb") as stderr:
                proc = reaper.spawn(argv, stdout=stdout, stderr=stderr)
                code = reaper.wait(proc)
        try:
            doc = json.loads((work / "layers.stdout").read_text())
        except ValueError:
            doc = None
        cli_metrics, cli_attempted, cli_failed = cli_probes(workload, expected, work, reaper, launcher, rec,
                                                             seconds / 4)
    if code != 0 or doc is None:
        sys.stderr.write((work / "layers.stderr").read_text())
        raise SystemExit(f"error: the per-layer pass exited with code {code}")
    spans = doc["spans"] + rec.spans
    for span in spans:
        span["trace"] = rec.trace_id
    selfs = self_times(spans)
    for span in spans:
        span["self_ns"] = selfs[span["id"]]
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps({"trace": rec.trace_id, "spans": spans}, indent=0))
    metrics = {name: tuple(value) for name, value in doc["metrics"].items()}
    metrics.update(cli_metrics)
    notes = {"spans": len(spans), "trace_file": str(trace_path.relative_to(ROOT)),
             "run_self_s": selfs[root.id] / 1e9}
    return metrics, doc["attempted"] + cli_attempted, doc["failed"] + cli_failed, notes


def environment(seed: int, cpus: list[int]) -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "commit": git_commit(),
        "seed": seed,
        "affinity": cpus,
    }


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "vcmatch" / "__init__.py").is_file():
        print(f"error: no vcmatch sources under {SRC}", file=sys.stderr)
        return 2
    # One CPU at a time: children inherit the parent's, so no timed work migrates.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    reaper = Reaper(DEADLINE_S)
    try:
        launcher = Launcher(reaper)
        workload = make_workload(args.workload, args.seed)
        if args.trace:
            trace_path = OUT / "traces" / f"{args.workload}-seed{args.seed}.json"
            metrics, attempted, failed, notes = traced_run(
                workload, work, reaper, launcher, args.seconds, args.seed, trace_path
            )
        else:
            metrics, attempted, failed, notes = timed_run(workload, work, reaper, launcher, args.seconds, cpus)
        launcher.close()
    finally:
        reaper.close()
        shutil.rmtree(work, ignore_errors=True)
    env = environment(args.seed, cpus)
    record = {"workload": args.workload, "trace": args.trace, "env": env, "notes": notes,
              "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(f"env {json.dumps(env)}")
    print(f"notes {json.dumps(notes)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6f} {unit}")
    print(f"{'failed_frac':28s} {failed / attempted:14.6f} ratio  ({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
