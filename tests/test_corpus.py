"""Bundled distributions and the text file format."""

import hashlib
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


# SHA-256 of each entry's variable names, alphabets, default target and
# outcomes in order with float.hex masses; the families at five values of r.
_PINNED = {
    ("XOR", None): "fcfa11214fd9ce2d1a6bf9c4ae0732d9e760d19a87e51feab2389d3667295480",
    ("AND", None): "d7b2729bddb5c5ea1dd4afeb0d7213310ae519ab23911dd50626b4326f245771",
    ("COPY", None): "2b9a3bfd55a8b597008553d5a2a471b9d94279b664f6ee3b232f0043e1656f99",
    ("TWEAKED_COPY", None): "45887aa679aed114073c86125ff07c152500924f3b5038e79fc01cee6b40501b",
    ("BOOM", None): "69b0c116e635963136aa3a9a53c044e395d5baefa1b1457347f76880fe5e9aa1",
    ("ADAPTED_REDUCED_OR", 0.0): "65632d7eb18bc692b677228cd4f0be333b27297ec8e4c41565222ed4e8ceab16",
    ("ADAPTED_REDUCED_OR", 0.25): "aa273ff7a04fbf9dfcdc44559642b2b68bb54f1d8278a3b6f65486a1783470d3",
    ("ADAPTED_REDUCED_OR", 0.5): "6cecf2ff4bbd336e57142905b7ca618902cc64dfd266c26a16a9ca8d9037f649",
    ("ADAPTED_REDUCED_OR", 0.75): "5c35657491120e58abcf58878509ed1744e2d529135e4c49cd276eddf705112a",
    ("ADAPTED_REDUCED_OR", 1.0): "649f38f0294e4d567b39d1e51731a0aae75f5bb6bd6183591282fac41f33c9c7",
    ("TARGET_MONO_AND", None): "cd96b40f66ef0b0a8deb4d86507c931ea7b2c9e78ac143ffbdf93ac9f5befd37",
    ("TARGET_MONO_CI", None): "1c8a3cb7eace7cab1dcdd944a830d9232e7874b25c8801d73d0d5df9cbc9d4c3",
    ("COPY_XOR_TARGETS", None): "2c88b9be0a70fb0341b9b7d0daacee3c721b939be9f8569510868d673399fb42",
    ("ADAPTED_XOR", 0.0): "38ae64a59facfa2520e0bbfa95479c240245c7204ec3642d5193efcf16df031d",
    ("ADAPTED_XOR", 0.25): "0e57d70a7a1a64ea046b924f67a0f8adaafcf2057eb4c907b9f52cfe9e072b0e",
    ("ADAPTED_XOR", 0.5): "09b08db1e096a2f0e7bfabb13c8c8c0b716baa3467e243d6e51c34ffb10558e6",
    ("ADAPTED_XOR", 0.75): "9e61fecf592722b72030d3224998a05e5335f01bd7d2612c1387b5cdda9813eb",
    ("ADAPTED_XOR", 1.0): "c1d9e400cf8b2f59ce349184613674189e500f468fe080cc1aba5ee91b740ff7",
    ("ADAPTED_XOR_V2", 0.0): "b9e8e7f6911c06124557b3fbf169773a0885ac59ce9b27cb1d2bdc416acdeb42",
    ("ADAPTED_XOR_V2", 0.25): "2dc7304d0d71b2ed7b5ca9a8a358e6e127fa0d398e55b343cb05edfb03e1a662",
    ("ADAPTED_XOR_V2", 0.5): "0136f2b85594ea77449718a0e26557412b37f18dda3321d80b887999b1c69b30",
    ("ADAPTED_XOR_V2", 0.75): "0b366ac3051639fd9c103b6a0e260fb8fa57372308f856f99e538f147f3cca7b",
    ("ADAPTED_XOR_V2", 1.0): "43131beade962399258c6ca17cbd78ab77e90a091ef53c3aca0b0040ca372eec",
    ("RDNXOR", None): "378332739298741145c3a3187d6b5c3fe8ef2f8e32f449982e56209d9f627fb6",
    ("RDNUNQXOR", None): "ad5991825b1b398dbcd3ce016c5741432bf9cc85d0a480a5a4f895f1f95fb451",
    ("XORDUPLICATE", None): "1d89b21f6bab17d4081d1b70a377a70df3aac65ef54f9a57637e4dc50ce9bebb",
    ("ANDDUPLICATE", None): "c37303d5e9ed75a8bf56851bf74a4771690c9613c1b55c054d9b2db0839e480f",
    ("XORLOSES", None): "7b55782b0d846d2f6e5acd91840bbe11da2adac66e11967a3204c1cbc7e9584d",
    ("XORMULTICOAL", None): "8792f445707f676c1b28c290e1860294fcbf3c6b38d10e03a82447aad4f3d8de",
}


_CASES = [(name, r) for name, entry in CORPUS.items()
          for r in ((0.0, 0.25, 0.5, 0.75, 1.0) if entry.parametric else (None,))]


@pytest.mark.parametrize("name, r", _CASES, ids=[n if r is None else f"{n}@{r}" for n, r in _CASES])
def test_every_entry_is_pinned(name, r):
    d = canonical(name, r)
    text = repr((d.var_names, d.alphabets, CORPUS[name].default_target,
                 [(outcome, p.hex()) for outcome, p in d.pmf.items()]))
    assert hashlib.sha256(text.encode()).hexdigest() == _PINNED.get((name, r))


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
