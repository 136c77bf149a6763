import pytest

from helpers import image_codes
from vcmatch.matchers import (
    ConvolutionMatcher,
    KmpMatcher,
    NaiveMatcher,
    NotFittedError,
    find_all,
    make_matcher,
)

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
