import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cfk
import cfk.invariants
from cfk import selftest
from cfk.cli import _build_argparser, main
from cfk.errors import NoConstructorError
from cfk.expr import Torus, parse, to_text

DATA = Path(__file__).parent / "data" / "mirror_cable_2_5_trefoil.cfk"
SRC = Path(__file__).parent.parent / "src"
ALL_PASSED = f"{len(selftest.CHECKS)}/{len(selftest.CHECKS)} checks passed"
K45 = "{torus(2,9) # mirror(cable(2,5,torus(2,3))) @ g4_upper=2}"


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def test_invariants_json_trefoil(capsys):
    rep = run_json(capsys, ["invariants", "torus(2,3)"])
    assert list(rep) == ["expression", "generators", "tau", "nu", "nu_plus",
                         "epsilon", "V", "H", "hfk", "sigma", "g4_lower",
                         "g4_upper", "seifert_genus", "warnings"]
    assert rep["expression"] == "torus(2,3)"
    assert rep["generators"] == 3
    assert (rep["tau"], rep["nu"], rep["nu_plus"], rep["epsilon"]) == (1, 1, 1, 1)
    assert rep["V"] == {"-1": 1, "0": 1, "1": 0}
    assert rep["H"] == {"-1": 0, "0": 1, "1": 1}
    assert rep["hfk"] == [
        {"alexander": 1, "maslov": 0, "rank": 1},
        {"alexander": 0, "maslov": -1, "rank": 1},
        {"alexander": -1, "maslov": -2, "rank": 1},
    ]
    assert (rep["sigma"], rep["g4_lower"], rep["g4_upper"]) == (-2, 1, 1)
    assert rep["seifert_genus"] == 1
    assert rep["warnings"] == []


def test_invariants_vk_range(capsys):
    rep = run_json(capsys, ["invariants", "unknot", "--vk=-2..2"])
    assert rep["V"] == {"-2": 2, "-1": 1, "0": 0, "1": 0, "2": 0}
    assert rep["H"] == {"-2": 0, "-1": 0, "0": 0, "1": 1, "2": 2}


def test_invariants_text_matches_json(capsys):
    rep = run_json(capsys, ["invariants", "torus(2,3)"])
    assert main(["invariants", "torus(2,3)"]) == 0
    out = capsys.readouterr().out
    assert f"tau: {rep['tau']}" in out
    assert f"epsilon: {rep['epsilon']}" in out
    assert "V[0] = 1" in out
    assert "H[1] = 1" in out
    assert "A=  1  M=  0  rank=1" in out
    assert "sigma: -2" in out
    assert "g4_upper: 1" in out


def test_invariants_from_file(capsys):
    rep = run_json(capsys, ["invariants", f'file("{DATA}")'])
    assert rep["generators"] == 5
    assert (rep["tau"], rep["nu"], rep["nu_plus"]) == (-4, -3, 0)
    assert rep["sigma"] is None
    assert main(["invariants", f'file("{DATA}")']) == 0
    assert "sigma: unknown" in capsys.readouterr().out


def test_dinv_json(capsys):
    rep = run_json(capsys, ["dinv", "unknot", "--surgery", "3/2"])
    assert rep == {"expression": "unknot", "surgery": "3/2",
                   "d_invariants": ["1/6", "1/6", "-1/2"]}
    rep = run_json(capsys, ["dinv", "torus(2,3)", "--surgery", "5/4",
                            "--spinc", "2"])
    assert rep == {"expression": "torus(2,3)", "surgery": "5/4", "spinc": 2,
                   "d_invariants": ["-9/5"]}


def test_dinv_text(capsys):
    assert main(["dinv", "unknot", "--surgery", "3/2"]) == 0
    out = capsys.readouterr().out
    assert "surgery: 3/2" in out
    assert "d[0] = 1/6" in out and "d[2] = -1/2" in out
    assert main(["dinv", "torus(2,3)", "--surgery", "5/4", "--spinc", "2"]) == 0
    assert "d[2] = -9/5" in capsys.readouterr().out


def test_genus_json(capsys):
    rep = run_json(capsys, ["genus", "torus(2,9)"])
    assert rep == {
        "expression": "torus(2,9)",
        "tau": 4, "nu": 4, "nu_plus": 4, "nu_plus_mirror": 0,
        "sigma": -8, "seifert_genus": 4, "g4_lower": 4, "g4_upper": 4,
        "notes": [
            "g4 lower bound 4 from nu_plus",
            "signature -8 gives lower bound 4",
            "Seifert genus 4 bounds g4 from above",
        ],
    }


def test_cable_bounds_json(capsys):
    rep = run_json(capsys, ["cable-bounds", K45, "2", "5"])
    assert rep == {
        "expression": "{torus(2,9) # mirror(cable(2,5,torus(2,3))) @ g4_upper=2}",
        "p": 2, "q": 5, "tau": 0, "epsilon": -1, "cable_tau": 3,
        "lower": 6, "upper": 6,
    }
    # epsilon = +1 leaves the cable tau formula inapplicable
    rep = run_json(capsys, ["cable-bounds", "torus(2,3)", "3", "2"])
    assert rep["epsilon"] == 1
    assert rep["cable_tau"] is None
    assert rep["lower"] == 4
    assert main(["cable-bounds", "torus(2,3)", "3", "2"]) == 0
    assert "cable_tau: unknown (epsilon != -1)" in capsys.readouterr().out


def test_cable_bounds_text_prints_unknown_for_missing_bounds(capsys):
    """A missing bound reads "unknown" in text, lower and upper alike, and
    null in JSON."""
    rep = run_json(capsys, ["cable-bounds", "unknot", "1", "1"])
    assert (rep["lower"], rep["upper"]) == (None, None)
    assert main(["cable-bounds", "unknot", "1", "1"]) == 0
    assert capsys.readouterr().out == (
        "expression: unknot\ncable: (1,1)\ntau: 0\nepsilon: 0\n"
        "cable_tau: unknown (epsilon != -1)\n"
        "nu_plus_lower: unknown\nnu_plus_upper: unknown\n")


def test_hfk_json(capsys):
    rep = run_json(capsys, ["hfk", "torus(2,3)"])
    assert list(rep) == ["expression", "hfk", "total_rank", "seifert_genus"]
    assert rep["total_rank"] == 3
    assert rep["seifert_genus"] == 1


def test_validate_ok(capsys):
    assert main(["validate", str(DATA)]) == 0
    out = capsys.readouterr().out
    assert out.strip() == f"{DATA}: OK (5 generators, 4 terms)"
    assert main(["validate", str(DATA), "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep == {"file": str(DATA), "valid": True, "violations": []}


def test_file_commands_make_no_records(tmp_path, capsys, monkeypatch):
    """validate, and every report on file("...") alone or in a sum, runs
    from the columns: reading a complex's records here would raise."""
    path = tmp_path / "k.cfk"
    cfk.write_complex(cfk.build_complex(cfk.parse("torus(2,5) # mirror(torus(2,3))")), path)

    def refuse(C):
        raise AssertionError("records were made")

    for attribute in ("generators", "terms"):
        monkeypatch.setattr(cfk.BifilteredComplex, attribute, property(refuse))
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == f"{path}: OK (15 generators, 22 terms)\n"
    bad = tmp_path / "bad.cfk"
    bad.write_text("cfk v1\ngen a 0 0 1\ngen b 1 0 0\ndif a b\n")
    assert main(["validate", str(bad)]) == 2
    assert capsys.readouterr().out == ("[filtration] U^0:a->b raises filtration: (1,0) from (0,0)\n"
                                       f"{bad}: INVALID (2 generators, 1 terms)\n")
    file_expr = f'file("{path}")'
    for argv in (["hfk", file_expr], ["invariants", file_expr], ["genus", file_expr],
                 ["invariants", f"{file_expr} # torus(2,3)"], ["dinv", file_expr, "--surgery", "5"],
                 ["cable-bounds", file_expr, "2", "1"]):
        assert main(argv) == 0, argv
    assert "generators: 45" in capsys.readouterr().out


@pytest.mark.parametrize("body,kind", [
    ("gen a 0 0 0\ngen a 0 0 0\n", "duplicate-name"),
    ("gen a 0 0 1\ngen b 1 0 0\ndif a b\n", "filtration"),
    ("gen a 0 0 0\ngen b 0 0 0\ndif a b\n", "grading"),
    ("gen a 0 0 2\ngen b 0 0 1\ngen c 0 0 0\ndif a b\ndif b c\n", "d-squared"),
    ("gen a 0 0 0\ngen b 0 0 0\n", "vertical-homology"),
])
def test_validate_reports_each_violation_class(tmp_path, capsys, body, kind):
    path = tmp_path / f"{kind}.cfk"
    path.write_text("cfk v1\n" + body)
    assert main(["validate", str(path)]) == 2
    out = capsys.readouterr().out
    assert f"[{kind}]" in out
    assert "INVALID" in out
    assert main(["validate", str(path), "--json"]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep["valid"] is False
    assert kind in {v["kind"] for v in rep["violations"]}


def test_usage_errors_exit_1(capsys):
    cases = [
        ["frobnicate"],
        [],
        ["invariants", "unknot", "--vk", "1..x"],
        ["invariants", "unknot", "--vk=3..1"],
        ["dinv", "unknot", "--surgery", "x"],
        ["dinv", "unknot", "--surgery", "0/1"],
        ["dinv", "unknot", "--surgery", "4/2"],
        ["dinv", "torus(2,3)", "--surgery", "5/4", "--spinc", "7"],
    ]
    for argv in cases:
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: "), argv


BIG = "1" * 5000  # past int()'s default digit limit


@pytest.mark.parametrize("argv,message", [
    (["invariants", "torus(2,5)", "--vk=-\u0661..\u0661"], "--vk expects MIN..MAX"),
    (["invariants", "torus(2,5)", "--vk=+1..2"], "--vk expects MIN..MAX"),
    (["invariants", "torus(2,5)", "--vk=1..2\n"], "--vk expects MIN..MAX"),
    (["invariants", "torus(2,5)", f"--vk=0..{BIG}"], "--vk expects MIN..MAX"),
    (["dinv", "torus(2,3)", "--surgery", "\u0667"], "--surgery expects P or P/Q"),
    (["dinv", "torus(2,3)", "--surgery", "7\n"], "--surgery expects P or P/Q"),
    (["dinv", "torus(2,3)", "--surgery", BIG], "--surgery expects P or P/Q"),
    (["dinv", "torus(2,3)", "--surgery", "5/4", "--spinc", "\u0662"],
     "argument --spinc: invalid int value: '\u0662'"),
    (["dinv", "torus(2,3)", "--surgery", "5/4", "--spinc", "+2"],
     "argument --spinc: invalid int value: '+2'"),
    (["dinv", "torus(2,3)", "--surgery", "5/4", "--spinc", "1_0"],
     "argument --spinc: invalid int value: '1_0'"),
    (["cable-bounds", "torus(2,3)", "\u0662", "3"], "argument p: invalid int value: '\u0662'"),
    (["cable-bounds", "torus(2,3)", "2", "1_1"], "argument q: invalid int value: '1_1'"),
    (["cable-bounds", "torus(2,3)", "2", BIG], "argument q: invalid int value"),
    (["genus", "torus(\u0662,\u0663)"], "syntax error at position 6: unexpected character"),
    (["genus", "torus(2,+3)"], "syntax error at position 8: unexpected character '+'"),
    (["genus", f"torus(2,{BIG})"], "syntax error at position 8: integer of 5000"),
])
def test_integers_are_ascii_decimal_only(capsys, argv, message):
    assert main(argv) == 1, argv
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}"), err[:200]
    assert err.count("\n") == 1


@pytest.mark.parametrize("p,q", [("2", "4"), ("0", "3"), ("2", "-3")])
def test_bad_cable_parameters_exit_1(capsys, p, q):
    assert main(["cable-bounds", "torus(2,3)", p, q]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cable parameters must be coprime")
    assert err.count("\n") == 1


def test_expression_errors_exit_1(capsys):
    assert main(["invariants", "torus(2,"]) == 1
    assert "syntax error at position 8" in capsys.readouterr().err
    assert main(["invariants", "torus(2,4)"]) == 1
    assert "parameters must be coprime" in capsys.readouterr().err
    assert main(["dinv", "torus(0,1)", "--surgery", "1"]) == 1
    capsys.readouterr()


def test_file_errors_exit_2(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "missing.cfk")]) == 2
    assert "cannot read" in capsys.readouterr().err
    bad = tmp_path / "bad.cfk"
    bad.write_text("cfk v2\n")
    assert main(["validate", str(bad)]) == 2
    assert "missing 'cfk v1' header" in capsys.readouterr().err
    coerced = tmp_path / "coerced.cfk"
    coerced.write_text("cfk v1\ngen a 0 1_0 0\n")
    assert main(["validate", str(coerced)]) == 2
    assert "line 2: gen positions must be integers" in capsys.readouterr().err
    invalid = tmp_path / "invalid.cfk"
    invalid.write_text("cfk v1\ngen a 0 0 0\ngen b 0 0 0\ndif a b\n")
    assert main(["invariants", f'file("{invalid}")']) == 2
    assert "[grading]" in capsys.readouterr().err


def colliding_trefoils(tmp_path):
    """Two valid trefoil files whose product names collide: "x" * "y*z" and
    "x*y" * "z"."""
    for path, (a, b, c) in (("A.cfk", ["x", "x*y", "a"]), ("B.cfk", ["y*z", "z", "b"])):
        (tmp_path / path).write_text(
            f"cfk v1\ngen {a} 0 1 0\ngen {b} 1 1 1\ngen {c} 1 0 0\ndif {b} {a} {c}\n")


def test_sums_whose_names_collide_exit_2(tmp_path, capsys):
    """Two valid trefoil files whose product names collide make a complex
    that repeats a name: every report refuses it with validate's
    violations and exit code 2, as for a bad file."""
    colliding_trefoils(tmp_path)
    for path in ("A.cfk", "B.cfk"):
        assert main(["validate", str(tmp_path / path)]) == 0
    capsys.readouterr()
    text = f'file("{tmp_path / "A.cfk"}") # file("{tmp_path / "B.cfk"}")'
    violations = cfk.validate(cfk.tensor(cfk.read_complex(tmp_path / "A.cfk"),
                                         cfk.read_complex(tmp_path / "B.cfk")))
    assert violations[0].message == "generator name 'x*y*z' declared twice"
    message = "; ".join(f"[{v.kind}] {v.message}" for v in violations)
    for argv in (["invariants", text], ["genus", text], ["hfk", text],
                 ["dinv", text, "--surgery", "5"], ["cable-bounds", text, "2", "1"]):
        for json_flag in ([], ["--json"]):
            assert main(argv + json_flag) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")


def test_a_refusal_names_the_first_ten_violations_and_counts_the_rest(tmp_path, capsys):
    """A four-factor sum whose names collide has 425 violations: the error
    line shows the first ten and counts the rest (it was 31,538 bytes), and
    the ValidationError keeps them all."""
    colliding_trefoils(tmp_path)
    text = f'file("{tmp_path / "A.cfk"}") # file("{tmp_path / "B.cfk"}") # torus(2,9) # torus(2,7)'
    with pytest.raises(cfk.ValidationError) as refused:
        cfk.build_complex(cfk.parse(text))
    violations = refused.value.violations
    assert len(violations) == 425
    shown = "; ".join(f"[{v.kind}] {v.message}" for v in violations[:10])
    assert str(refused.value) == f"{shown}; … and 415 more"
    assert cfk.ValidationError(violations[:10]).args == (shown,)
    assert main(["genus", text]) == 2
    assert capsys.readouterr() == ("", f"error: {shown}; … and 415 more\n")


@pytest.mark.parametrize("sigma, half", [
    (-1152921504606846978, 576460752303423489),  # a float rounds it to ...488
    (-(10 ** 399 + 8), 5 * 10 ** 398 + 4),  # past a float's range
], ids=["19 digits", "400 digits"])
def test_signature_bound_is_exact_for_any_even_sigma(capsys, sigma, half):
    """g4_lower from sigma is |sigma| / 2 in integers: no float rounding
    and no OverflowError, however many digits sigma has."""
    rep = run_json(capsys, ["genus", f"{{torus(2,3) @ sigma={sigma}}}"])
    assert (rep["sigma"], rep["g4_lower"]) == (sigma, half)
    assert f"signature {sigma} gives lower bound {half}" in rep["notes"]
    assert main(["genus", f"{{torus(2,3) @ sigma={sigma}}}"]) == 0
    assert f"g4_lower: {half}\n" in capsys.readouterr().out


def test_file_not_in_utf8_exits_2(tmp_path, capsys):
    """cfk v1 files are UTF-8 whatever the locale: a file that is not
    ends in one line and exit code 2, never a traceback.  The bad byte's
    position is its offset in the file, a byte-order mark counted."""
    bad = tmp_path / "bad.cfk"
    for mark, position in ((b"", 12), (b"\xef\xbb\xbf", 15)):
        bad.write_bytes(mark + b"cfk v1\ngen a\xff 0 0 0\n")
        message = (f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff in "
                   f"position {position}: invalid start byte\n")
        for argv in (["validate", str(bad)], ["hfk", f'file("{bad}")']):
            assert main(argv) == 2
            assert capsys.readouterr() == ("", message)
    good = tmp_path / "good.cfk"
    good.write_bytes("cfk v1\ngen \u00e9 0 0 0\n".encode("utf-8"))
    cfk.write_complex(cfk.read_complex(good), tmp_path / "copy.cfk")
    assert (tmp_path / "copy.cfk").read_bytes() == good.read_bytes()


def test_file_with_byte_order_mark_reads(tmp_path, capsys):
    """A UTF-8 file saved with a leading byte-order mark reads as the same
    text without it, and validates; writing adds none."""
    bom = tmp_path / "bom.cfk"
    bom.write_bytes(b"\xef\xbb\xbf" + DATA.read_bytes())
    assert cfk.dumps(cfk.read_complex(bom)) == cfk.dumps(cfk.read_complex(DATA))
    assert main(["validate", str(bom)]) == 0
    assert capsys.readouterr() == (f"{bom}: OK (5 generators, 4 terms)\n", "")
    cfk.write_complex(cfk.read_complex(bom), tmp_path / "copy.cfk")
    assert (tmp_path / "copy.cfk").read_bytes() == DATA.read_bytes()


def reduced_levels(monkeypatch, capsys, argv):
    """main(argv + ["--json"])'s V and H tables and warnings, and the k of
    every level that cfk.invariants.a_minus built while it ran."""
    levels = []
    a_minus = cfk.invariants.a_minus

    def recording(C, k):
        levels.append(k)
        return a_minus(C, k)

    with monkeypatch.context() as patch:
        patch.setattr(cfk.invariants, "a_minus", recording)
        rep = run_json(capsys, argv)
    return [rep["V"], rep["H"], rep["warnings"]], levels


@pytest.mark.parametrize("knot", ["torus(2,97)", "torus(2,5) # torus(2,3) # torus(2,3) # "
                                  "mirror(cable(2,5,torus(2,3)))"])
@pytest.mark.parametrize("window", [[], ["--vk=-60..60"], ["--vk=-7..3"]])
def test_invariants_fills_the_negative_half_on_built_complexes(monkeypatch, capsys, tmp_path,
                                                                knot, window):
    """A built complex is symmetric, so cfk invariants reduces no negative
    level and fills V(-k) = V(k) + k.  The same complex read from a file is
    not known to be, so there the report reduces every level below nu+ in
    the window, a superset, and gets the same tables."""
    built, filled = reduced_levels(monkeypatch, capsys, ["invariants", knot, *window])
    path = tmp_path / "k.cfk"
    cfk.write_complex(cfk.build_complex(parse(knot)), path)
    text = f'file("{path}")'
    read, reduced = reduced_levels(monkeypatch, capsys, ["invariants", text, *window])
    assert min(filled) == 0 > min(reduced)
    assert set(filled) < set(reduced)
    assert read == built


def test_deep_expressions_exit_1(capsys):
    """Nesting past MAX_DEPTH, by brackets or by a chain of sums, is a
    one-line syntax error, not a RecursionError."""
    brackets = "(" * 500 + "unknot" + ")" * 500
    chain = " # ".join(["unknot"] * 3000)
    for text, position in ((brackets, 100), (chain, 9 * 100 + 7)):
        assert main(["genus", text]) == 1
        assert capsys.readouterr() == ("", f"error: syntax error at position {position}: "
                                           "expression nests deeper than 100 levels\n")


def test_unsupported_constructions_exit_3(capsys):
    assert main(["invariants", "cable(2,1,torus(2,3))"]) == 3
    assert "no CFK constructor" in capsys.readouterr().err
    assert main(["genus", "{unknot @ sigma=3}"]) == 3
    assert "sigma annotation must be an even integer" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["torus(99999999999999999999,2)",
                                  f"torus(2,{sys.maxsize + 2})",
                                  "cable(2,99999999999999999999,torus(2,3))",
                                  "torus(2,3) # mirror(torus(99999999999999999999,2))"])
def test_torus_and_cable_past_sys_maxsize_exit_3(capsys, text):
    """A torus or cable whose (p-1)(q-1) + 1 exceeds sys.maxsize is refused
    while the expression is parsed, before its polynomial is allocated."""
    assert main(["genus", text]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: no CFK constructor available for ")
    assert err.endswith(" Alexander exponents exceed sys.maxsize\n")


@pytest.mark.parametrize("text, span", [
    (f"cable(2,{sys.maxsize},torus(2,3))", sys.maxsize + 4),
    # the companion's genus is 2^60 + 2, so the span is 2^62 + 8 + (2^62 + 6) + 1
    (f"cable(2,{2 ** 62 + 7},cable(2,{2 ** 61 + 1},torus(2,3)))", 2 ** 63 + 15)])
def test_cable_whose_whole_span_passes_sys_maxsize_exits_3(capsys, text, span):
    """Each torus factor alone fits, but the cable's span
    p*2g(K) + (p-1)(q-1) + 1 does not: the cable at the top is refused
    while the expression is parsed, before its semigroup is allocated."""
    assert main(["genus", text]) == 3
    assert capsys.readouterr() == ("", (
        f"error: no CFK constructor available for {text}: "
        f"p*2g(K) + (p-1)(q-1) + 1 = {span} Alexander exponents exceed sys.maxsize\n"))


def test_cable_just_under_sys_maxsize_parses():
    """A cable whose span 4 + (q-1) + 1 is sys.maxsize - 2, and the
    companion of the nested case above, are not refused; only parsed here,
    since building either would allocate about that many entries."""
    for text in (f"cable(2,{sys.maxsize - 6},torus(2,3))", f"cable(2,{2 ** 61 + 1},torus(2,3))"):
        assert to_text(parse(text)) == text


def test_torus_at_sys_maxsize_parses():
    """(p-1)(q-1) + 1 = sys.maxsize is not refused; only parsed here, since
    building it would allocate that many entries."""
    assert parse(f"torus({sys.maxsize},2)") == Torus(sys.maxsize, 2)
    with pytest.raises(NoConstructorError, match="exceed sys.maxsize"):
        parse(f"torus({sys.maxsize + 2},2)")


@pytest.mark.parametrize("text, knot, conductor", [
    (f"mirror(torus(2,{sys.maxsize})) # torus(2,3)", f"torus(2,{sys.maxsize})", sys.maxsize - 1),
    (f"cable(2,{2 ** 61 + 1},torus(2,3))", f"cable(2,{2 ** 61 + 1},torus(2,3))", 2 ** 61 + 4)])
def test_semigroup_past_memory_exits_3(capsys, text, knot, conductor):
    """A knot that parses but whose semigroup below 2g is far above 2^48
    bytes, which no allocation can satisfy, is refused with exit code 3
    and one line naming it, not a MemoryError traceback."""
    assert main(["genus", text]) == 3
    assert capsys.readouterr() == ("", (
        f"error: no CFK constructor available for {knot}: its semigroup below "
        f"2g = {conductor} does not fit in memory\n"))


def test_annotation_scope(capsys):
    """sigma gives the signature of the subtree it wraps, at any depth;
    g4_upper counts only at the root, where the outermost wins."""
    rep = run_json(capsys, ["genus", "torus(2,3) # {torus(3,5) @ sigma=-8}"])
    assert rep["sigma"] == -10
    rep = run_json(capsys, ["genus", "torus(2,3) # {torus(3,5) @ g4_upper=1}"])
    assert (rep["sigma"], rep["g4_upper"]) == (None, 5)
    rep = run_json(capsys, ["genus", "{{torus(3,5) @ g4_upper=1} @ g4_upper=2}"])
    assert rep["g4_upper"] == 2


@pytest.mark.parametrize("annotation", ["g4_upper", "g4_upper=-1"])
@pytest.mark.parametrize("command", [["genus"], ["cable-bounds"]])
def test_bad_g4_upper_annotation_exits_3(capsys, command, annotation):
    argv = command + [f"{{torus(2,5) @ {annotation}}}"]
    if command == ["cable-bounds"]:
        argv += ["2", "5"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: g4_upper annotation must be a nonnegative integer")


def test_main_reuses_one_parser_per_process(capsys):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for argv in (["invariants", "torus(2,3)"], ["genus"],
                 ["genus", "torus(2,5)", "--json"], ["validate", str(DATA)]):
        code = main(argv)
        got = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "cfk.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=120)
        assert (code, got.out, got.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert _build_argparser() is _build_argparser()


def test_version(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    assert capsys.readouterr().out.strip() == "cfk 0.1.0"


def test_selftest_subcommand(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [f"PASS {name}" for name, _check in selftest.CHECKS] + [ALL_PASSED]


def test_selftest_fails_under_optimize_flag():
    # the checks must not be bare asserts, which python -O strips
    code = ("import sys, cfk.selftest as s\n"
            "s.tau = lambda C: 99\n"
            "sys.exit(1 if s.run() else 0)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    first_name = selftest.CHECKS[0][0]  # the first check reads tau
    assert f"FAIL {first_name}: " in proc.stdout
    assert ALL_PASSED not in proc.stdout


def test_all_exported_names_resolve():
    for name in cfk.__all__:
        assert hasattr(cfk, name), name


def test_import_loads_no_selftest_machinery():
    # only `cfk selftest` needs the golden table, the oracle and their
    # standard-library modules; records are NamedTuples, not dataclasses
    unwanted = ["cfk.selftest", "cfk.oracle", "dataclasses", "inspect", "tempfile", "random"]
    code = (f"import sys\nsys.path.insert(0, {str(SRC)!r})\nimport cfk.cli\n"
            f"print(sorted(set({unwanted!r}) & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
