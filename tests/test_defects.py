"""The structure record (cfk.complexes.first_defects): which reader reports
which defect when a complex has several, frozen message by message; the
record constructor refusing a term that names no generator; loads seeding
the record; and one vertical slice per complex."""
import re

import pytest

from cfk import complexes, invariants
from cfk.cfkfile import _read_columns, dumps, loads
from cfk.complexes import NO_DEFECTS, BifilteredComplex, DiffTerm as D, Defects
from cfk.complexes import Generator as G, dual, first_defects, tensor, validate
from cfk.expr import build_complex, parse
from cfk.invariants import V, hfk_hat, nu, nu_plus, tau
from cfk.surgery import SurgerySpec, d_invariants

T = BifilteredComplex([G("x0", 0, 1, 0), G("x1", 1, 1, 1), G("x2", 1, 0, 0)],
                      [D("x1", "x0", 0), D("x1", "x2", 0)])
GENS, TERMS = list(T.generators), list(T.terms)
REPEAT, INHOMOGENEOUS = D("x1", "x0", 0), D("x0", "x2", 0)
# Trefoil complexes with one or more defects, as (generators, terms).
COMPLEXES = {
    "inhomogeneous before repeated term": (GENS, TERMS + [INHOMOGENEOUS, REPEAT]),
    "repeated term before inhomogeneous": (GENS, TERMS + [REPEAT, INHOMOGENEOUS]),
    "escaping + repeated term": (GENS + [G("e", -2, -2, 1)], TERMS + [D("e", "x0", 0), REPEAT]),
    "negative power + repeated term": (GENS + [G("f", 0, 0, -3)],
                                       TERMS + [D("x0", "f", -1), D("x1", "x2", 0)]),
    "repeated name + repeated term": (GENS + [G("x2", 0, 0, 0)], TERMS + [REPEAT]),
    "repeated name + pair repeated at another power": (GENS + [G("x2", 0, 0, 0)],
                                                       TERMS + [D("x1", "x0", 1)]),
    "inhomogeneous only": (GENS, TERMS + [INHOMOGENEOUS]),
    "escaping + inhomogeneous": (GENS + [G("e", -2, -2, 1)],
                                 TERMS + [D("e", "x0", 0), INHOMOGENEOUS]),
    # homogeneous y -> z raises only j: no level with k >= A_max = 3 sees it escape
    "j-only raise": (GENS + [G("y", 0, 0, 1), G("z", 0, 3, 0)], TERMS + [D("y", "z", 0)]),
    # homogeneous, and every level's exponent -1 + c_u - c_w is 0
    "U^-1 term": (GENS + [G("u", 0, 0, 1), G("w", -1, -1, -2)], TERMS + [D("u", "w", -1)]),
}
ENTRIES = {
    "validate": lambda C: [(v.kind, v.message) for v in validate(C)],
    "V": lambda C: V(C, 0),
    "tau": tau,
    "hfk_hat": lambda C: sorted(hfk_hat(C).items()),
    "dual": lambda C: len(dual(C).terms),
    "tensor": lambda C: (len(tensor(C, T).terms), len(tensor(T, C).terms)),
    "dumps": dumps,
}

# Each entry's result or error on each complex, recorded before the
# structure record existed, when every reader ran its own checks; since
# then V, tau and HFK-hat refuse a complex whose record shows a repeated
# name or pair with validate's first message.  From "inhomogeneous only"
# on, the rows have no defect that C.defects() records, and V refuses each
# with validate's first message (the complex's verdict), where tau and
# HFK-hat, which read no verdict, still give numbers.
FROZEN = {
    "inhomogeneous before repeated term": {
        "validate": [
            ("filtration", "U^0:x0->x2 raises filtration: (1,0) from (0,1)"),
            ("grading", "U^0:x0->x2 grading mismatch: M=0 source vs M=0-2*0 target"),
            ("duplicate-term", "term U^0:x1->x0 repeated"),
        ],
        "V": "ValueError: U^0:x0->x2 raises filtration: (1,0) from (0,1)",
        "tau": "ValueError: U^0:x0->x2 raises filtration: (1,0) from (0,1)",
        "hfk_hat": "ValueError: U^0:x0->x2 raises filtration: (1,0) from (0,1)",
        "dual": 4,
        "tensor": (18, 18),
        "dumps": "FormatError: cannot write term U^0 'x1'->'x0': term is repeated",
    },
    "repeated term before inhomogeneous": {
        "validate": [
            ("duplicate-term", "term U^0:x1->x0 repeated"),
            ("filtration", "U^0:x0->x2 raises filtration: (1,0) from (0,1)"),
            ("grading", "U^0:x0->x2 grading mismatch: M=0 source vs M=0-2*0 target"),
        ],
        "V": "ValueError: term U^0:x1->x0 repeated",
        "tau": "ValueError: term U^0:x1->x0 repeated",
        "hfk_hat": "ValueError: term U^0:x1->x0 repeated",
        "dual": 4,
        "tensor": (18, 18),
        "dumps": "FormatError: cannot write term U^0 'x1'->'x0': term is repeated",
    },
    "escaping + repeated term": {
        "validate": [
            ("filtration", "U^0:e->x0 raises filtration: (0,1) from (-2,-2)"),
            ("duplicate-term", "term U^0:x1->x0 repeated"),
        ],
        "V": "ValueError: U^0:e->x0 raises filtration: (0,1) from (-2,-2)",
        "tau": "ValueError: U^0:e->x0 raises filtration: (0,1) from (-2,-2)",
        "hfk_hat": "ValueError: U^0:e->x0 raises filtration: (0,1) from (-2,-2)",
        "dual": 4,
        "tensor": (20, 20),
        "dumps": "FormatError: cannot write term U^0 'x1'->'x0': term is repeated",
    },
    "negative power + repeated term": {
        "validate": [
            ("filtration", "negative U power on x0->f"),
            ("duplicate-term", "term U^0:x1->x2 repeated"),
        ],
        "V": "ValueError: negative U power on x0->f",
        "tau": "ValueError: negative U power on x0->f",
        "hfk_hat": "ValueError: negative U power on x0->f",
        "dual": 4,
        "tensor": (20, 20),
        "dumps": "FormatError: cannot write term U^-1 'x0'->'f': U power is negative",
    },
    "repeated name + repeated term": {
        "validate": [
            ("duplicate-name", "generator name 'x2' declared twice"),
            ("duplicate-term", "term U^0:x1->x0 repeated"),
        ],
        "V": "ValueError: generator name 'x2' declared twice",
        "tau": "ValueError: generator name 'x2' declared twice",
        "hfk_hat": "ValueError: generator name 'x2' declared twice",
        "dual": 3,
        "tensor": (17, 17),
        "dumps": "FormatError: cannot write term U^0 'x1'->'x0': term is repeated",
    },
    "repeated name + pair repeated at another power": {
        "validate": [
            ("duplicate-name", "generator name 'x2' declared twice"),
            ("grading", "U^1:x1->x0 grading mismatch: M=1 source vs M=0-2*1 target"),
        ],
        "V": "ValueError: generator name 'x2' declared twice",
        "tau": "ValueError: generator name 'x2' declared twice",
        "hfk_hat": "ValueError: generator name 'x2' declared twice",
        "dual": 3,
        "tensor": (17, 17),
        "dumps": ("cfk v1\ngen x0 0 1 0\ngen x1 1 1 1\ngen x2 1 0 0\ngen x2 0 0 0\ndif x1 "
                  "x0 x2 U^1.x0\n"),
    },
    "inhomogeneous only": {
        "validate": [
            ("filtration", "U^0:x0->x2 raises filtration: (1,0) from (0,1)"),
            ("grading", "U^0:x0->x2 grading mismatch: M=0 source vs M=0-2*0 target"),
        ],
        "V": "ValueError: U^0:x0->x2 raises filtration: (1,0) from (0,1)",
        "tau": 1,
        "hfk_hat": [((-1, -2), 1), ((0, -1), 1), ((1, 0), 1)],
        "dual": 3,
        "tensor": (15, 15),
        "dumps": "cfk v1\ngen x0 0 1 0\ngen x1 1 1 1\ngen x2 1 0 0\ndif x0 x2\ndif x1 x0 x2\n",
    },
    "escaping + inhomogeneous": {
        "validate": [
            ("filtration", "U^0:e->x0 raises filtration: (0,1) from (-2,-2)"),
            ("filtration", "U^0:x0->x2 raises filtration: (1,0) from (0,1)"),
            ("grading", "U^0:x0->x2 grading mismatch: M=0 source vs M=0-2*0 target"),
        ],
        "V": "ValueError: U^0:e->x0 raises filtration: (0,1) from (-2,-2)",
        "tau": 1,
        "hfk_hat": [((-1, -2), 1), ((0, -1), 1), ((0, 5), 1), ((1, 0), 1)],
        "dual": 4,
        "tensor": (20, 20),
        "dumps": ("cfk v1\ngen x0 0 1 0\ngen x1 1 1 1\ngen x2 1 0 0\ngen e -2 -2 1\ndif e x0\n"
                  "dif x0 x2\ndif x1 x0 x2\n"),
    },
    "j-only raise": {
        "validate": [("filtration", "U^0:y->z raises filtration: (0,3) from (0,0)")],
        "V": "ValueError: U^0:y->z raises filtration: (0,3) from (0,0)",
        "tau": 1,
        "hfk_hat": [((-1, -2), 1), ((0, -1), 1), ((0, 1), 1), ((1, 0), 1), ((3, 0), 1)],
        "dual": 3,
        "tensor": (19, 19),
        "dumps": ("cfk v1\ngen x0 0 1 0\ngen x1 1 1 1\ngen x2 1 0 0\ngen y 0 0 1\ngen z 0 3 0\n"
                  "dif x1 x0 x2\ndif y z\n"),
    },
    "U^-1 term": {
        "validate": [("filtration", "negative U power on u->w")],
        "V": "ValueError: negative U power on u->w",
        "tau": 1,
        "hfk_hat": [((-1, -2), 1), ((0, -1), 1), ((1, 0), 1)],
        "dual": 3,
        "tensor": (19, 19),
        "dumps": "FormatError: cannot write term U^-1 'u'->'w': U power is negative",
    },
}


def outcome(entry, C):
    try:
        return entry(C)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def test_frozen_precedence_of_several_defects():
    assert list(FROZEN) == list(COMPLEXES)
    for label, spec in COMPLEXES.items():
        shared = BifilteredComplex(*spec)  # every reader in turn, one record
        for name, entry in ENTRIES.items():
            want = FROZEN[label][name]
            assert outcome(entry, BifilteredComplex(*spec)) == want, (label, name)
            assert outcome(entry, shared) == want, (label, name)


def test_every_reader_refusal_is_validates_first_message():
    """V, tau and HFK-hat refuse in validate's words: each ValueError they
    raise on a frozen row is validate's first message.  All three refuse
    the six rows whose record shows a repeat; V alone the other four."""
    refused = []
    for label, spec in COMPLEXES.items():
        first = validate(BifilteredComplex(*spec))[0].message
        for name in ("V", "tau", "hfk_hat"):
            try:
                ENTRIES[name](BifilteredComplex(*spec))
            except ValueError as exc:
                assert str(exc) == first, (label, name)
                refused.append(name)
    assert len(refused) == 6 * 3 + 4


@pytest.mark.parametrize("generators, terms, message", [
    (GENS, TERMS + [D("x1", "ghost", 0)],
     "term U^0 'x1'->'ghost' references unknown generator 'ghost'"),
    (GENS, TERMS + [D("ghost", "x0", 2)],
     "term U^2 'ghost'->'x0' references unknown generator 'ghost'"),
    (GENS, [D("x1", "x0", 0), D("spook", "ghost", 1), D("x1", "ghost", 0)],
     "term U^1 'spook'->'ghost' references unknown generator 'spook'"),
    (GENS + [G("x0", 7, 7, 0)], TERMS + [INHOMOGENEOUS, REPEAT, D("x0", "q", 0),
                                         D("ghost", "x2", 0)],
     "term U^0 'x0'->'q' references unknown generator 'q'"),
], ids=["target", "source", "first term in order, its source first", "after other defects"])
def test_the_record_constructor_refuses_a_term_naming_no_generator(generators, terms,
                                                                    message):
    """No complex holds a term end that is not one of its generators: the
    first such term, in term order, is refused when the complex is made."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        BifilteredComplex(generators, terms)


@pytest.mark.parametrize("label", ["j-only raise", "U^-1 term"])
def test_v_refuses_what_validate_refuses_at_every_level(label):
    """Both complexes pass every level-local test some k allows (the j-only
    raise escapes no level with k >= A_max, the U^-1 term none at all);
    the ladder refuses them at every k, through nu+ and d-invariants too."""
    message = FROZEN[label]["validate"][0][1]
    C = BifilteredComplex(*COMPLEXES[label])
    lo, hi = C.index().alexander_range
    entries = [lambda C, k=k: V(C, k) for k in range(lo - 2, hi + 3)]
    for entry in entries + [nu_plus, lambda C: d_invariants(C, SurgerySpec(5, 1))]:
        assert outcome(entry, C) == f"ValueError: {message}"
        assert outcome(entry, BifilteredComplex(*COMPLEXES[label])) == f"ValueError: {message}"


def test_first_defects_gives_the_first_position_of_each_kind():
    assert first_defects([], [], []) == NO_DEFECTS
    assert first_defects(["a", "b"], [1, 1], [0, 0]) == Defects(None, 1)
    assert first_defects(["a", "b", "c", "b", "a"], [0, 1, 2, 0, 4, 0],
                         [1, 0, 3, 2, 0, 1]) == Defects(3, 5)
    # every (source, target) pair over two generators, none repeated
    assert first_defects(["a", "b"], [0, 1, 1, 0], [1, 0, 1, 0]) == NO_DEFECTS


PAPER_KNOT = "torus(2,9) # mirror(cable(2,5,torus(2,3)))"


@pytest.fixture(scope="module")
def text():
    return dumps(build_complex(parse(PAPER_KNOT)))


def test_loads_seeds_the_record_and_no_reader_runs_the_bulk_pass(text, monkeypatch):
    assert _read_columns(text) is not None
    C = loads(text)
    assert C._defects == NO_DEFECTS

    def bulk_pass(*args):
        raise AssertionError("first_defects ran on a complex that loads seeded")

    monkeypatch.setattr(complexes, "first_defects", bulk_pass)
    assert validate(C) == []
    assert (tau(C), nu(C), nu_plus(C), V(C, 0)) == (0, 1, 2, 1)
    assert hfk_hat(C) and dumps(C) == text


def test_the_record_is_found_once_per_complex(text, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(1)
        return first_defects(*args)

    monkeypatch.setattr(complexes, "first_defects", counted)
    built = loads(text)
    C = BifilteredComplex(built.generators, built.terms)  # from records: not seeded
    assert C._defects is None
    assert validate(C) == []
    for read in (tau, nu, hfk_hat, lambda C: V(C, 0), dumps, dual, lambda C: tensor(C, C)):
        read(C)
    assert calls == [1]


LADDER = {
    "nu_plus": nu_plus,
    "V": lambda C: [V(C, k) for k in range(C.index().alexander_range[0] - 2,
                                           C.index().alexander_range[1] + 3)],
    "d_invariants": lambda C: d_invariants(C, SurgerySpec(20, 1)),
}


@pytest.mark.parametrize("expression", [PAPER_KNOT, f"mirror({PAPER_KNOT})",
                                        f"{PAPER_KNOT} # torus(2,3)"])
def test_built_complexes_never_run_the_positional_stage(expression, monkeypatch):
    """staircase, dual and tensor seed the verdict, so the V ladder of a
    built complex reads it and checks nothing."""
    expected = {name: read(build_complex(parse(expression))) for name, read in LADDER.items()}

    def positional_stage(C):
        raise AssertionError("the positional stage ran on a built complex")

    monkeypatch.setattr(complexes, "_positional_stage", positional_stage)
    C = build_complex(parse(expression))
    assert {name: read(C) for name, read in LADDER.items()} == expected


def test_file_and_loaded_complexes_run_the_positional_stage_once(text, tmp_path, monkeypatch):
    path = tmp_path / "k.cfk"
    path.write_text(text)
    ran = []
    positional_stage = complexes._positional_stage

    def counted(C):
        ran.append(C)
        return positional_stage(C)

    monkeypatch.setattr(complexes, "_positional_stage", counted)
    loaded = loads(text)
    filed = build_complex(parse(f'file("{path}")'))  # validated on the way in
    mirrored = build_complex(parse(f'mirror(file("{path}")) # torus(2,3)'))
    for C in (loaded, filed, mirrored):
        for read in LADDER.values():
            read(C)
    assert validate(loaded) == [] and validate(filed) == []
    # once for each file(...) as it is read, and once for loaded on its first V
    assert len(ran) == 3 and ran[-1] is loaded and ran[0] is filed


def test_a_tensor_of_valid_factors_can_repeat_a_name():
    """Both factors pass validate, so the tensor's verdict is seeded valid;
    its names still repeat ("x*y" + "z" against "x" + "y*z"), and validate
    reports that by name, as for a complex built from records."""
    def trefoil(names):
        rename = dict(zip(["x0", "x1", "x2"], names))
        return BifilteredComplex([G(rename[g.name], *g[1:]) for g in GENS],
                                 [D(rename[s], rename[t], n) for s, t, n in TERMS])

    A, B = trefoil(["x", "x*y", "a"]), trefoil(["y*z", "z", "b"])
    assert validate(A) == validate(B) == []
    C = tensor(A, B)
    found = [(v.kind, v.message) for v in validate(C)]
    assert found[0] == ("duplicate-name", "generator name 'x*y*z' declared twice")
    records = BifilteredComplex(C.generators, C.terms)
    assert found == [(v.kind, v.message) for v in validate(records)]
    assert outcome(lambda C: V(C, 0), C) == f"ValueError: {found[0][1]}"


def test_one_vertical_slice_per_complex(text, monkeypatch):
    vertical = []
    shifted_slice = complexes.shifted_slice

    def counted(index, shift):
        if shift is index.i:
            vertical.append(1)
        return shifted_slice(index, shift)

    for module in (complexes, invariants):
        monkeypatch.setattr(module, "shifted_slice", counted)
    C = loads(text)
    assert validate(C) == [] and (tau(C), nu(C)) == (0, 1) and hfk_hat(C)
    assert vertical == [1]
