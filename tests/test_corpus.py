"""Bundled distributions and the text file format."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cipid import (
    ArgumentError,
    JointDistribution,
    ParseError,
    canonical,
    corpus_names,
    load_distribution,
    save_distribution,
)
from cipid.corpus import CORPUS, _parse_probability

PARAMETRIC = ("ADAPTED_XOR", "ADAPTED_XOR_V2", "ADAPTED_REDUCED_OR")


def test_names_and_registry_agree():
    names = corpus_names()
    assert len(names) == 17
    assert set(names) == set(CORPUS)
    for name in names:
        assert CORPUS[name].name == name
        assert CORPUS[name].description


def test_every_entry_builds_and_sums_to_one():
    for name in corpus_names():
        d = canonical(name, 0.3) if name in PARAMETRIC else canonical(name)
        assert math.fsum(d.pmf.values()) == pytest.approx(1.0, abs=1e-9), name
        assert CORPUS[name].default_target in d.var_names


def test_symbols_are_strings():
    for name in corpus_names():
        d = canonical(name, 0.5) if name in PARAMETRIC else canonical(name)
        for outcome in d.pmf:
            assert all(isinstance(s, str) for s in outcome), name


class TestKnownShapes:
    def test_xor(self):
        d = canonical("XOR")
        assert d.var_names == ("T", "Y1", "Y2")
        assert len(d.pmf) == 4
        assert d.prob(("1", "0", "1")) == pytest.approx(0.25)

    def test_rdnunqxor_has_32_outcomes(self):
        d = canonical("RDNUNQXOR")
        assert len(d.pmf) == 32

    def test_monotonicity_cases_carry_an_extra_label(self):
        for name in ("TARGET_MONO_AND", "TARGET_MONO_CI"):
            d = canonical(name)
            assert d.var_names == ("T", "Z", "Y1", "Y2")

    def test_two_target_case(self):
        d = canonical("COPY_XOR_TARGETS")
        assert d.var_names == ("T2", "T1", "Y1", "Y2")
        assert CORPUS["COPY_XOR_TARGETS"].default_target == "T1"

    def test_xorloses_third_predictor_is_the_pair_xor(self):
        d = canonical("XORLOSES")
        for outcome, p in d.pmf.items():
            t, y1, y2, y3 = outcome
            assert int(y3) == int(y1) ^ int(y2)
            assert t == y3

    def test_adapted_xor_interpolates(self):
        lo = canonical("ADAPTED_XOR", 0.0)
        hi = canonical("ADAPTED_XOR", 1.0)
        assert lo != hi


class TestParametricValidation:
    def test_r_required_and_bounded(self):
        with pytest.raises(ArgumentError):
            canonical("ADAPTED_XOR")
        with pytest.raises(ArgumentError):
            canonical("ADAPTED_XOR", -0.1)
        with pytest.raises(ArgumentError):
            canonical("ADAPTED_XOR", 1.5)

    def test_r_rejected_for_fixed_entries(self):
        with pytest.raises(ArgumentError):
            canonical("XOR", 0.5)

    def test_unknown_name(self):
        with pytest.raises(ArgumentError):
            canonical("NOPE")


class TestRoundTrip:
    def test_every_entry_survives(self, tmp_path):
        for name in corpus_names():
            d = canonical(name, 0.3) if name in PARAMETRIC else canonical(name)
            path = tmp_path / f"{name}.dist"
            save_distribution(d, path)
            assert load_distribution(path) == d, name

    def test_awkward_probabilities_survive(self, tmp_path):
        d = JointDistribution(
            ("A", "B"),
            {("0", "x"): 1.0 / 3.0, ("1", "x"): 1.0 / 7.0, ("1", "y"): 1.0 - 1.0 / 3.0 - 1.0 / 7.0},
        )
        path = tmp_path / "odd.dist"
        save_distribution(d, path)
        assert load_distribution(path) == d

    def test_save_rejects_whitespace_symbols(self, tmp_path):
        d = JointDistribution(("A",), {("a b",): 1.0})
        with pytest.raises(ArgumentError):
            save_distribution(d, tmp_path / "bad.dist")

    def test_save_rejects_what_would_load_as_a_comment(self, tmp_path):
        bad_symbol = JointDistribution(("A", "B"), {("#1", "x"): 0.5, ("2", "x"): 0.5})
        bad_name = JointDistribution(("#A", "B"), {("1", "x"): 1.0})
        for d in (bad_symbol, bad_name):
            with pytest.raises(ArgumentError, match="comment"):
                save_distribution(d, tmp_path / "bad.dist")
        # a later column may start with '#'
        d = JointDistribution(("A", "#B"), {("1", "#x"): 0.5, ("2", "x"): 0.5})
        save_distribution(d, tmp_path / "ok.dist")
        assert load_distribution(tmp_path / "ok.dist") == d


    def test_save_rejects_outcomes_that_print_alike(self, tmp_path):
        d = JointDistribution(("A", "B"), {(1, 0): 0.25, ("1", 0): 0.25, (0, 1): 0.5})
        path = tmp_path / "alike.dist"
        with pytest.raises(ArgumentError, match=r"\(1, 0\) and \('1', 0\)"):
            save_distribution(d, path)
        assert not path.exists()


class TestLoadFormat:
    def write(self, tmp_path, text):
        path = tmp_path / "dist.txt"
        path.write_text(text)
        return path

    def test_fractions_comments_and_blanks(self, tmp_path):
        path = self.write(tmp_path, """
# a fair coin with a label
T Y p

0 a 1/4
0 b 1/4
1 a 1/2
""")
        d = load_distribution(path)
        assert d.var_names == ("T", "Y")
        assert d.prob(("1", "a")) == pytest.approx(0.5)

    def test_header_must_end_with_p(self, tmp_path):
        path = self.write(tmp_path, "T Y\n0 a 1.0\n")
        with pytest.raises(ParseError):
            load_distribution(path)

    def test_duplicate_names_rejected(self, tmp_path):
        path = self.write(tmp_path, "T T p\n0 0 1.0\n")
        with pytest.raises(ParseError):
            load_distribution(path)

    def test_row_arity_error_carries_line_number(self, tmp_path):
        path = self.write(tmp_path, "T Y p\n0 a 0.5\n0 0.5\n")
        with pytest.raises(ParseError, match="line 3"):
            load_distribution(path)

    def test_bad_probability_carries_line_number(self, tmp_path):
        for token in ("zero", "nan", "inf", "1e400"):
            path = self.write(tmp_path, f"T Y p\n0 a {token}\n1 a 1\n")
            with pytest.raises(ParseError, match="line 2"):
                load_distribution(path)

    def test_negative_probability_rejected(self, tmp_path):
        path = self.write(tmp_path, "T Y p\n0 a -0.5\n1 a 1.5\n")
        with pytest.raises(ParseError, match="line 2"):
            load_distribution(path)

    def test_duplicate_outcome_rejected(self, tmp_path):
        path = self.write(tmp_path, "T Y p\n0 a 0.5\n0 a 0.5\n")
        with pytest.raises(ParseError, match="line 3"):
            load_distribution(path)

    def test_bytes_that_are_not_utf8_carry_line_number(self, tmp_path):
        path = tmp_path / "dist.txt"
        path.write_bytes(b"T Y1 p\n0 0 0.5\n\xff\xfe 1 0.5\n")
        with pytest.raises(ParseError, match="line 3"):
            load_distribution(path)

    def test_any_newline_and_a_byte_order_mark_are_read(self, tmp_path):
        path = tmp_path / "dist.txt"
        path.write_bytes(b"\xef\xbb\xbfT Y p\r\n0 a 0.5\r1 b 0.5\n")
        d = load_distribution(path)
        assert d.var_names == ("T", "Y")
        assert d.prob(("1", "b")) == 0.5

    def test_empty_file_rejected(self, tmp_path):
        path = self.write(tmp_path, "\n# nothing here\n")
        with pytest.raises(ParseError):
            load_distribution(path)

    def test_rows_required(self, tmp_path):
        path = self.write(tmp_path, "T Y p\n")
        with pytest.raises(ParseError):
            load_distribution(path)

    def test_mass_must_sum_to_one(self, tmp_path):
        path = self.write(tmp_path, "T Y p\n0 a 0.5\n1 b 0.4\n")
        with pytest.raises(ParseError):
            load_distribution(path)


def _exact_first(token, line_no):
    """The reading every token once had: exact, then float() as the fallback."""
    try:
        return float(Fraction(token))
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    try:
        p = float(token)
    except ValueError:
        raise ParseError(f"cannot read probability {token!r}", line_no) from None
    if not math.isfinite(p):
        raise ParseError(f"probability {token!r} is not finite", line_no)
    return p


def _outcome(parse, token):
    try:
        return float.hex(parse(token, 7))
    except ParseError as exc:
        return type(exc), str(exc)


class TestProbabilityTokens:
    def tokens(self):
        rng = np.random.default_rng(11)
        tiny_to_large = rng.random(100) * 10.0 ** rng.integers(-320, 5, 100)
        doubles = np.concatenate([rng.random(300), tiny_to_large])
        yield from (repr(float(x)) for x in doubles)
        for digits in range(1, 26):
            for _ in range(12):
                text = "".join(str(d) for d in rng.integers(0, 10, digits))
                cut = int(rng.integers(0, digits + 1))
                yield text[:cut] + "." + text[cut:]
                yield f"{text}e-{int(rng.integers(0, 30))}"
        for _ in range(300):
            a, b = (int(v) for v in rng.integers(0, 10 ** 12, 2))
            yield f"{a}/{b + 1}"
        yield from ("inf", "nan", "-inf", "1e400", "1e400/1", "1/0", "5e-324", "2.5e-324",
                    "abc", "", "1/3", "-1/3", "1e-400", "1_0", "+.5", "1.", "0x10")

    def test_float_reading_matches_exact_reading(self):
        """Same double, or same error type and message, on every token."""
        for token in self.tokens():
            assert _outcome(_parse_probability, token) == _outcome(_exact_first, token), token

    def test_negative_zero_is_dropped(self, tmp_path):
        path = tmp_path / "dist.txt"
        path.write_text("T Y p\n0 a -0.0\n1 a 1\n")
        d = load_distribution(path)
        assert dict(d.pmf) == {("1", "a"): 1.0}
