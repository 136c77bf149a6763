import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vcmatch
from vcmatch.cli import main
from vcmatch.core import classify_input
from vcmatch.naive import naive_all

NUMPY_AFTER_FIND = """
import sys
import vcmatch, vcmatch.cli
from vcmatch import find_all
argv = ["find", "--pattern", "aAB", "--text-inline", "abcab", "--algo", "{algo}"]
assert vcmatch.cli.main(argv) == 0
find_all("aAB", "abcab", algo="{algo}", mode="pvc")
print("numpy" in sys.modules)
"""

GENERATE_CASES = """
import random
from vcmatch.crosscheck import generate_case
rng = random.Random(3)
print([generate_case(rng, repeat_bias=bool(i % 2)) for i in range(200)])
"""


class TestFind:
    def test_pvc_positions_lines(self, capsys):
        code = main(["find", "--pattern", "ABAb", "--text-inline", "ababbbb",
                     "--mode", "pvc", "--algo", "kmp"])
        assert code == 0
        assert capsys.readouterr().out == "1\n2\n"

    def test_fvc_all_backends_agree(self, capsys):
        code = main(["find", "--pattern", "ABAb", "--text-inline", "ababbbb",
                     "--mode", "fvc", "--algo", "all"])
        assert code == 0
        assert capsys.readouterr().out == "1\n2\n4\n"

    def test_regression_case_empty_output(self, capsys):
        code = main(["find", "--pattern", "AABaaCbC", "--text-inline", "bbaaaabbb",
                     "--mode", "fvc", "--algo", "all"])
        assert code == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("algo", ["naive", "conv", "kmp"])
    def test_each_backend(self, capsys, algo):
        code = main(["find", "--pattern", "ABAb", "--text-inline", "ababbbb",
                     "--mode", "fvc", "--algo", algo])
        assert code == 0
        assert capsys.readouterr().out == "1\n2\n4\n"

    def test_json_document(self, capsys):
        code = main(["find", "--pattern", "ABAb", "--text-inline", "ababbbb",
                     "--mode", "fvc", "--algo", "kmp", "--json", "--witness"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["positions"] == [1, 2, 4]
        assert doc["algo"] == "kmp" and doc["mode"] == "fvc"
        assert doc["m"] == 4 and doc["n"] == 7
        assert set(doc["timings"]) == {"preprocess_ns", "query_ns"}
        assert doc["witnesses"]["4"] == {"A": "b", "B": "b"}

    def test_json_positions_match_line_output(self, capsys):
        args = ["find", "--pattern", "ABAb", "--text-inline", "ababbbb", "--mode", "fvc"]
        main(args)
        lines = [int(v) for v in capsys.readouterr().out.split()]
        main(args + ["--json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["positions"] == lines

    def test_pattern_and_text_files(self, capsys, tmp_path):
        pat = tmp_path / "pattern.txt"
        txt = tmp_path / "text.txt"
        pat.write_bytes(b"ABAb")
        txt.write_bytes(b"ababbbb")
        code = main(["find", "--pattern-file", str(pat), "--text-file", str(txt),
                     "--mode", "pvc"])
        assert code == 0
        assert capsys.readouterr().out == "1\n2\n"

    def test_text_from_stdin(self, capsys, monkeypatch):
        import io
        import sys as _sys

        monkeypatch.setattr(_sys, "stdin", type("S", (), {"buffer": io.BytesIO(b"ababbbb")})())
        code = main(["find", "--pattern", "ABAb", "--text-file", "-", "--mode", "fvc"])
        assert code == 0
        assert capsys.readouterr().out == "1\n2\n4\n"

    @pytest.mark.parametrize("algo", ["kmp", "all"])
    def test_undecodable_inline_bytes_are_searched_raw(self, capsys, algo):
        # argv carries byte 0xff as the surrogate escape "\udcff".
        pattern, text = "a\udcffA", "xa\udcffbza\udcffa\udcff\udcff"
        code = main(["find", "--pattern", pattern, "--text-inline", text, "--algo", algo])
        assert code == 0
        expected = naive_all(*classify_input(b"a\xffA", b"xa\xffbza\xffa\xff\xff")).positions
        assert expected == [2, 6, 8]
        assert capsys.readouterr().out == "".join(f"{p}\n" for p in expected)

    def test_custom_variables_flag(self, capsys):
        code = main(["find", "--pattern", "xax", "--text-inline", "babab",
                     "--variables", "xy", "--mode", "fvc"])
        assert code == 0
        assert capsys.readouterr().out == "1\n3\n"

    def test_non_ascii_variables_flag_exit_2(self, capsys):
        # "é" is two UTF-8 bytes; each must not become a variable of its own.
        code = main(["find", "--pattern", "éb", "--variables", "é", "--text-inline", "xyb",
                     "--json", "--witness"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bytes" in captured.err

    def test_unreadable_file_exit_2(self, capsys, tmp_path):
        code = main(["find", "--pattern", "A", "--text-file", str(tmp_path / "missing"),
                     "--mode", "fvc"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_empty_pattern_exit_2(self, capsys, tmp_path):
        empty = tmp_path / "empty"
        empty.write_bytes(b"")
        code = main(["find", "--pattern-file", str(empty), "--text-inline", "ab"])
        assert code == 2

    def test_backend_disagreement_exit_1(self, capsys, monkeypatch):
        from vcmatch import cli as cli_mod
        from vcmatch.matchers import NaiveMatcher, make_matcher
        from vcmatch.naive import MatchReport

        class Broken(NaiveMatcher):
            def _search(self, text):
                return MatchReport([99])

        def fake_make(algo, **kwargs):
            if algo == "kmp":
                return Broken(mode=kwargs.get("mode", "fvc"))
            return make_matcher(algo, **kwargs)

        monkeypatch.setattr(cli_mod, "make_matcher", fake_make)
        code = main(["find", "--pattern", "ABAb", "--text-inline", "ababbbb",
                     "--mode", "fvc", "--algo", "all"])
        assert code == 1
        err = capsys.readouterr()
        assert "disagree" in err.err
        assert err.out == ""

    def test_bad_flags_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["find", "--pattern", "A"])  # missing text source
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--algos", "foo"],
        ["bench", "--modes", "xyz"],
        ["bench", "--m", "0"],
        ["crosscheck", "--max-m", "0"],
        ["crosscheck", "--max-n", "0"],
        ["crosscheck", "--num-variables", "0"],
        ["crosscheck", "--num-constants", "0"],
        ["crosscheck", "--cases", "-1"],
        ["crosscheck", "--num-variables", "30"],
    ],
)
def test_bad_bench_and_crosscheck_flags_exit_2(argv, capsys):
    # Exit 1 means "backends disagree", so a bad flag must neither crash
    # nor run with a silently altered value.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "error: argument" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--n-grid=-5,0"],
        ["bench", "--n-grid", "0"],
        ["bench", "--n-grid", ","],
        ["bench", "--repeats", "0"],
        ["bench", "--repeats", "-2"],
    ],
)
def test_bench_rejects_nonpositive_sizes_and_repeats(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert "error" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("algo", ["naive", "kmp"])
def test_naive_and_kmp_never_import_numpy(algo):
    src = str(Path(vcmatch.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", NUMPY_AFTER_FIND.format(algo=algo)], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "False"


def test_program_entry_point_finds():
    # main() with no argv (the program path) freezes the import-time objects
    # before it parses sys.argv; every other test passes argv.
    src = str(Path(vcmatch.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "vcmatch.cli", "find", "--pattern", "ABAb",
         "--text-inline", "ababbbb", "--mode", "fvc", "--algo", "all"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert proc.stdout == "1\n2\n4\n"


@pytest.mark.parametrize(
    "text, expected",
    [("ccc", b""), ("abab", b"1\n"), ("ababbbb" * 2, b"1\n2\n4\n8\n9\n11\n")],
)
def test_position_lines_exact_stdout(text, expected):
    # Positions are written as one string: the bytes are those of one
    # print per position, and no match writes nothing at all.
    src = str(Path(vcmatch.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["find", "--pattern", "ABAb", "--text-inline", text, "--mode", "fvc", "--algo", "all"]
    proc = subprocess.run([sys.executable, "-m", "vcmatch.cli", *argv], env=env,
                          capture_output=True, check=True)
    assert proc.stdout == expected


def test_conv_names_still_exported():
    from vcmatch import OverflowRiskError, conv_match_all, correlate  # noqa: F401

    assert list(vcmatch.correlate([1, 2], [1])) == [1, 2]
    with pytest.raises(AttributeError):
        vcmatch.no_such_name


class TestCrosscheck:
    def test_cases_independent_of_hash_seed(self):
        src = str(Path(vcmatch.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-c", GENERATE_CASES], env=env,
                                  capture_output=True, text=True, check=True)
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_thousand_cases_agree(self, capsys):
        code = main(["crosscheck", "--seed", "1", "--cases", "1000"])
        assert code == 0
        assert capsys.readouterr().out == "1000/1000 agree\n"

    def test_zero_cases_trivial_pass(self, capsys):
        code = main(["crosscheck", "--cases", "0"])
        assert code == 0
        assert capsys.readouterr().out == "0/0 agree\n"

    def test_adversarial_profile(self, capsys):
        code = main(["crosscheck", "--seed", "3", "--cases", "50", "--adversarial"])
        assert code == 0
        assert capsys.readouterr().out == "50/50 agree\n"

    def test_deterministic_under_seed(self, capsys):
        main(["crosscheck", "--seed", "5", "--cases", "20"])
        first = capsys.readouterr().out
        main(["crosscheck", "--seed", "5", "--cases", "20"])
        assert capsys.readouterr().out == first

    def test_disagreement_reported_with_exit_1(self, capsys, monkeypatch):
        from vcmatch import cli as cli_mod
        from vcmatch.crosscheck import Disagreement

        failure = Disagreement(3, b"AB", b"ab", "fvc", {"naive": [1], "conv": [1], "kmp": []})
        monkeypatch.setattr(cli_mod, "run_crosscheck", lambda **kw: (3, failure))
        code = main(["crosscheck", "--cases", "10"])
        assert code == 1
        out = capsys.readouterr().out
        assert "3/10 agree" in out and "kmp: []" in out

    def test_witness_disagreement_reported_with_exit_1(self, capsys, monkeypatch):
        from vcmatch import cli as cli_mod
        from vcmatch.crosscheck import Disagreement

        reports = {"naive": [1], "conv": [1], "kmp": [1]}
        failure = Disagreement(0, b"AB", b"ab", "pvc", reports, {"conv": [1]})
        monkeypatch.setattr(cli_mod, "run_crosscheck", lambda **kw: (0, failure))
        assert main(["crosscheck", "--cases", "10"]) == 1
        assert "conv witnesses differ from window_match at: [1]" in capsys.readouterr().out


class TestBench:
    def test_csv_row_contract(self, capsys):
        code = main(["bench", "--n-grid", "256,512,1024", "--m", "8",
                     "--modes", "fvc", "--repeats", "1"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header, rows = lines[0], lines[1:]
        assert header == "algo,mode,m,n,variables,pattern_constants,preprocess_ns,query_ns"
        assert len(rows) >= 9  # three backends x three text lengths
        for row in rows:
            fields = row.split(",")
            assert len(fields) == 8
            assert fields[0] in {"naive", "conv", "kmp"}
            assert int(fields[6]) > 0 and int(fields[7]) > 0

    def test_bad_grid_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--n-grid", "abc"])
        assert exc.value.code == 2
        assert "error: argument" in capsys.readouterr().err

    def test_kmp_strictly_faster_than_naive_on_degenerate_text(self):
        # On uniformly random text the brute-force scan exits each window
        # after a couple of symbols, so the single-pass advantage only shows
        # where windows keep almost matching; a repeated-variable prefix over
        # a constant run forces the brute-force scan to its full O(n*m).
        import time

        from vcmatch.core import classify_input
        from vcmatch.kmp_fvc import FvcKmp
        from vcmatch.naive import naive_all

        P, T = classify_input("A" * 62 + "ab", "a" * (1 << 16))
        engine = FvcKmp(P)

        def best(fn):
            fn()
            start = time.perf_counter_ns()
            fn()
            return time.perf_counter_ns() - start

        naive_ns = best(lambda: naive_all(P, T, "fvc"))
        kmp_ns = best(lambda: engine.find_all(T))
        assert kmp_ns < naive_ns
