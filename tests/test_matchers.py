import random

import pytest

import vcmatch.matchers
import vcmatch.naive
from helpers import image_codes
from vcmatch.core import MODES
from vcmatch.crosscheck import generate_case, run_crosscheck
from vcmatch.matchers import (
    ConvolutionMatcher,
    KmpMatcher,
    NaiveMatcher,
    NotFittedError,
    find_all,
    make_matcher,
)
from vcmatch.naive import window_match

ALL_CLASSES = [NaiveMatcher, ConvolutionMatcher, KmpMatcher]


@pytest.mark.parametrize("cls", ALL_CLASSES)
class TestEstimatorSurface:
    def test_fit_returns_self_and_predict(self, cls):
        matcher = cls(mode="fvc")
        assert matcher.fit("ABAb") is matcher
        assert matcher.predict("ababbbb") == [1, 2, 4]

    def test_pvc_mode(self, cls):
        assert cls(mode="pvc").fit("ABAb").predict("ababbbb") == [1, 2]

    def test_get_params_round_trip(self, cls):
        matcher = cls(mode="pvc")
        params = matcher.get_params()
        assert params["mode"] == "pvc"
        clone = cls(**params)
        assert clone.get_params() == params
        assert clone.fit("ABAb").predict("ababbbb") == [1, 2]

    def test_set_params(self, cls):
        matcher = cls()
        assert matcher.set_params(mode="pvc") is matcher
        assert matcher.get_params()["mode"] == "pvc"
        with pytest.raises(ValueError):
            matcher.set_params(bogus=1)

    def test_not_fitted(self, cls):
        with pytest.raises(NotFittedError):
            cls().predict("abc")

    def test_refit_replaces_pattern(self, cls):
        matcher = cls().fit("ABAb")
        matcher.fit("ab")
        assert matcher.predict("abab") == [1, 3]

    def test_input_validation(self, cls):
        with pytest.raises(ValueError):
            cls().fit("")
        with pytest.raises(TypeError):
            cls().fit(123)
        with pytest.raises(TypeError):
            cls().fit("A").predict(123)
        with pytest.raises(ValueError):
            cls(mode="nope").fit("A")

    def test_custom_variable_charset(self, cls):
        matcher = cls(variables="xy").fit("xay")
        assert matcher.predict("babc") == [1]

    def test_witnesses(self, cls):
        matcher = cls(mode="fvc").fit("ABAb")
        report = matcher.find("ababbbb", with_witnesses=True)
        assert sorted(report.witnesses) == [1, 2, 4]
        for pos, pi in report.witnesses.items():
            image = image_codes(matcher.pattern_, pi.forward, 1, 4)
            window = matcher._encode_text("ababbbb").codes[pos - 1 : pos + 3]
            assert image == list(window)

    def test_empty_text_no_matches(self, cls):
        assert cls().fit("ABAb").predict("") == []


class TestKmpSpecifics:
    def test_chunk_width_param(self):
        for width in (8, 16, 64):
            matcher = KmpMatcher(chunk_width=width).fit("ABAb")
            assert matcher.predict("ababbbb") == [1, 2, 4]

    def test_engine_reused_across_predicts(self):
        matcher = KmpMatcher().fit("ABAb")
        engine = matcher.engine_
        matcher.predict("ababbbb")
        matcher.predict("bbbb")
        assert matcher.engine_ is engine


class TestFactories:
    def test_make_matcher_names(self):
        assert isinstance(make_matcher("naive"), NaiveMatcher)
        assert isinstance(make_matcher("conv"), ConvolutionMatcher)
        assert isinstance(make_matcher("kmp"), KmpMatcher)
        with pytest.raises(ValueError):
            make_matcher("quantum")

    def test_find_all_convenience(self):
        assert find_all("ABAb", "ababbbb", mode="fvc", algo="conv") == [1, 2, 4]
        assert find_all("ABAb", "ababbbb", mode="pvc", algo="naive") == [1, 2]


def witness_corpus():
    """Seeded crosscheck cases plus (aABC)*8 over runs of four letters,
    where most windows match and every variable repeats."""
    rng = random.Random(11)
    cases = [generate_case(rng, max_m=12, max_n=80, repeat_bias=i % 2 == 1) for i in range(150)]
    runs = ("axyz", "ayyz", "abcd", "zzzz")
    cases.append((b"aABC" * 8, "".join(rng.choice(runs) for _ in range(200)).encode()))
    return cases


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("cls", ALL_CLASSES)
class TestWitnessReadOff:
    def test_read_off_equals_window_match(self, cls, mode):
        matched = 0
        for praw, traw in witness_corpus():
            matcher = cls(mode=mode).fit(praw)
            report = matcher.find(traw, with_witnesses=True)
            text = matcher._encode_text(traw)
            assert list(report.witnesses) == report.positions
            for pos, pi in report.witnesses.items():
                assert pi == window_match(matcher.pattern_, text, pos, matcher.injective_)[1]
                assert mode == "fvc" or pi.is_injective
            matched += len(report.positions)
        assert matched > 500  # the corpus exercises the read-off

    def test_find_never_rematches_windows(self, cls, mode, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2])
            if cls is not NaiveMatcher:
                raise AssertionError("window_match called")
            return window_match(*args, **kwargs)

        monkeypatch.setattr(vcmatch.matchers, "window_match", counted, raising=False)
        monkeypatch.setattr(vcmatch.naive, "window_match", counted)
        matcher = cls(mode=mode).fit("ABAb")
        report = matcher.find("ababbbb", with_witnesses=True)
        expected = {"fvc": [1, 2, 4], "pvc": [1, 2]}[mode]
        assert report.positions == expected
        assert sorted(report.witnesses) == expected
        assert report.witnesses[2].as_char_map(matcher.symbol_table_) == {"A": "b", "B": "a"}
        # naive's scan tries each window once; the witnesses add no call.
        assert calls == ([1, 2, 3, 4] if cls is NaiveMatcher else [])


def test_crosscheck_catches_a_wrong_witness(monkeypatch):
    find = KmpMatcher.find

    def corrupted(self, text, with_witnesses=False):
        report = find(self, text, with_witnesses)
        for pi in (report.witnesses or {}).values():
            pi.forward = {vid: cid + 1 for vid, cid in pi.forward.items()}
        return report

    monkeypatch.setattr(KmpMatcher, "find", corrupted)
    agree, failure = run_crosscheck(cases=50, seed=1)
    assert failure is not None and list(failure.bad_witnesses) == ["kmp"]
    assert failure.reports["kmp"] == failure.reports["naive"]


@pytest.mark.parametrize("corrupt", ["positions", "witnesses"])
def test_crosscheck_catches_a_second_search_that_differs(corrupt, monkeypatch):
    find = KmpMatcher.find

    def second_differs(self, text, with_witnesses=False):
        report = find(self, text, with_witnesses)
        if getattr(self, "searched", False):
            if corrupt == "positions":
                report.positions = report.positions[1:]
            for pi in (report.witnesses or {}).values():
                pi.forward = {vid: cid + 1 for vid, cid in pi.forward.items()}
        self.searched = True
        return report

    monkeypatch.setattr(KmpMatcher, "find", second_differs)
    agree, failure = run_crosscheck(cases=50, seed=1)
    assert failure is not None and not failure.bad_witnesses
    assert failure.reports["kmp"] == failure.reports["naive"]
    again = failure.reports["kmp searched again"]
    assert again == (failure.reports["kmp"][1:] if corrupt == "positions" else failure.reports["kmp"])
