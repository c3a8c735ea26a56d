import time
from pathlib import Path

import pytest

from conftest import cable_staircase, torus_staircase
from cfk.cfkfile import dumps, loads, read_complex, write_complex
from cfk.complexes import BifilteredComplex, DiffTerm, Generator, dual, validate
from cfk.errors import FormatError
from cfk.expr import build_complex, parse

DATA = Path(__file__).parent / "data" / "mirror_cable_2_5_trefoil.cfk"


def test_golden_file_matches_generated_complex():
    C = dual(cable_staircase(prefix="y"))
    assert DATA.read_text() == dumps(C)
    loaded = read_complex(DATA)
    assert loaded == C
    assert loaded.label == str(DATA)


def test_dumps_loads_round_trip():
    for C in [torus_staircase(2, 9), dual(torus_staircase(3, 5)),
              cable_staircase()]:
        text = dumps(C)
        assert loads(text) == C
        assert dumps(loads(text)) == text


def test_dumps_is_canonical():
    C = BifilteredComplex(
        [Generator("b", 0, 0, 1), Generator("a", 2, 2, 4), Generator("c", 0, 2, 2)],
        [DiffTerm("a", "b", 2), DiffTerm("c", "b", 1), DiffTerm("a", "c", 1)])
    assert dumps(C) == (
        "cfk v1\n"
        "gen b 0 0 1\n"
        "gen a 2 2 4\n"
        "gen c 0 2 2\n"
        "dif a U^1.c U^2.b\n"
        "dif c U^1.b\n")
    assert loads(dumps(C)) == C


def test_comments_and_whitespace_are_ignored():
    text = """
    # a mirrored staircase
    cfk v1

    gen x0  0 -1   0   # rightmost corner
    gen x1 -1 -1  -1
    gen x2 -1  0   0
    dif x0 x1         # arrows point into the middle generator
    dif x2 x1
    """
    C = loads(text)
    assert C == dual(torus_staircase(2, 3))


def test_format_errors():
    cases = [
        ("", "missing 'cfk v1' header (found 'empty file')"),
        ("cfk v2\n", "missing 'cfk v1' header (found 'cfk v2')"),
        ("gen a 0 0 0\n", "missing 'cfk v1' header (found 'gen a 0 0 0')"),
        ("cfk v1\nfoo a\n", "line 2: unknown directive 'foo'"),
        ("cfk v1\ngen a 0 0\n", "line 2: gen needs name, i, j, maslov (3 fields given)"),
        ("cfk v1\ngen a 0 0 zero\n", "line 2: gen positions must be integers"),
        ("cfk v1\ngen U^1.x 0 0 0\n", "line 2: name 'U^1.x' collides with term syntax"),
        ("cfk v1\ngen a 0 0 0\ndif a\n", "line 3: dif needs a source and at least one target"),
        ("cfk v1\ngen a 0 0 0\ndif b a\n", "line 3: dif references undeclared generator 'b'"),
        ("cfk v1\ngen a 0 0 0\ndif a b\n", "line 3: dif references undeclared generator 'b'"),
        ("cfk v1\ngen a 0 0 0\ngen b 0 0 1\ndif b U^x.a\n", "line 4: malformed term 'U^x.a'"),
        ("cfk v1\ngen a 0 0 0\ngen b 0 0 1\ndif b a a\n", "line 4: term 'a' repeated for source 'b'"),
        ("cfk v1\ngen a 0 0 0\ngen b 0 0 1\ndif b a\ndif b a\n", "line 5: term 'a' repeated for source 'b'"),
        # only ASCII -?[0-9]+ is an integer: int() alone takes all of these
        ("cfk v1\ngen a 0 1_0 +0\n", "line 2: gen positions must be integers"),
        ("cfk v1\ngen a 0 +1 0\n", "line 2: gen positions must be integers"),
        ("cfk v1\ngen a 0 \u0661 0\n", "line 2: gen positions must be integers"),
        ("cfk v1\ngen a \uff11 0 0\n", "line 2: gen positions must be integers"),
        ("cfk v1\ngen a 0 0 " + "1" * 5000 + "\n", "line 2: gen positions must be integers"),
        ("cfk v1\ngen a 0 0 0\ngen b 0 0 1\ndif b U^\u0661.a\n", "line 4: malformed term 'U^\u0661.a'"),
        ("cfk v1\ngen a 0 0 0\ngen b 0 0 1\ndif b U^+1.a\n", "line 4: malformed term 'U^+1.a'"),
        ("cfk v1\ngen a 0 0 0\ngen b 0 0 1\ndif b U^1_0.a\n", "line 4: malformed term 'U^1_0.a'"),
        ("cfk v1\ngen a 0 0 0\ngen b 0 0 1\ndif b U^.a\n", "line 4: malformed term 'U^.a'"),
        ("cfk v1\ngen a 0 0 0\ngen b 0 0 1\ndif b U^" + "1" * 5000 + ".a\n",
         "line 4: malformed term 'U^" + "1" * 5000 + ".a'"),
        # every name that starts with U^ is reserved, not only U^<digits>.
        ("cfk v1\ngen U^ab 0 0 0\n", "line 2: name 'U^ab' collides with term syntax"),
        ("cfk v1\ngen U^ 0 0 0\n", "line 2: name 'U^' collides with term syntax"),
    ]
    for text, message in cases:
        with pytest.raises(FormatError) as e:
            loads(text)
        assert str(e.value) == message, text


def test_generators_must_be_declared_before_use():
    with pytest.raises(FormatError) as e:
        loads("cfk v1\ndif a b\ngen a 0 0 0\ngen b 0 0 1\n")
    assert "undeclared generator 'a'" in str(e.value)


def test_duplicate_names_load_but_fail_validation():
    C = loads("cfk v1\ngen a 0 0 0\ngen a 0 0 0\n")
    assert len(C.generators) == 2
    assert [v.kind for v in validate(C)] == ["duplicate-name"]


def test_dumps_rejects_names_that_cannot_round_trip():
    cases = [
        ("a#b", "may not contain '#'"),
        ("U^ab", "collides with term syntax"),
        ("U^1.x", "collides with term syntax"),
        ("a b", "must be nonempty and contain no whitespace"),
        ("a\tb", "must be nonempty and contain no whitespace"),
        ("a\u2028b", "must be nonempty and contain no whitespace"),
        (" a", "must be nonempty and contain no whitespace"),
        ("", "must be nonempty and contain no whitespace"),
    ]
    for name, problem in cases:
        bad = BifilteredComplex([Generator("b", 0, 0, 1), Generator(name, 0, 0, 0)],
                                [DiffTerm("b", name, 0)])
        with pytest.raises(FormatError) as e:
            dumps(bad)
        assert str(e.value) == f"cannot write generator {name!r}: name {problem}"


def test_dumps_rejects_terms_that_cannot_round_trip():
    gens = [Generator("b", 0, 0, 1), Generator("a", 0, 0, 0)]
    cases = [
        ([DiffTerm("b", "a", -1)], "cannot write term U^-1 'b'->'a': U power is negative"),
        ([DiffTerm("b", "a", 1), DiffTerm("b", "a", 1)],
         "cannot write term U^1 'b'->'a': term is repeated"),
    ]
    for terms, message in cases:
        with pytest.raises(FormatError) as e:
            dumps(BifilteredComplex(gens, terms))
        assert str(e.value) == message


@pytest.mark.parametrize("name", ["U", "Ua", "U1.x", "u^1.x", "^U", "a^U^b", "x0*y1",
                                  "\u00fc", "a-b", "a.b", "1"])
def test_every_name_dumps_accepts_reads_back(name):
    C = BifilteredComplex([Generator("b", 0, 0, 1), Generator(name, 0, 0, 0)],
                          [DiffTerm("b", name, 0), DiffTerm("b", name, 1)])
    text = dumps(C)
    assert loads(text) == C
    assert dumps(loads(text)) == text


def test_big_file_round_trips_within_budget():
    # 3,375 generators and 14,850 terms, the size of the largest benchmark file
    C = build_complex(parse(
        "torus(2,5) # torus(2,5) # torus(2,3) # torus(2,3) # torus(2,3)"
        " # mirror(cable(2,5,torus(2,3)))"))
    text = dumps(C)
    start = time.monotonic()
    loaded = loads(text)
    assert validate(loaded) == []
    assert dumps(loaded) == text
    assert time.monotonic() - start < 3.0
    assert (len(loaded.generators), len(loaded.terms)) == (3375, 14850)


def test_write_and_read_complex(tmp_path):
    C = torus_staircase(3, 4)
    path = tmp_path / "t34.cfk"
    write_complex(C, path)
    assert read_complex(path) == C
    with pytest.raises(FormatError) as e:
        read_complex(tmp_path / "nope.cfk")
    assert str(e.value).startswith("cannot read")
