"""The repeat flag (BifilteredComplex.repeats): which reader reports
which defect when a complex has several, frozen message by message; the
record constructor refusing a term that names no generator; loads,
staircase, dual and tensor seeding the flag and the verdict; one mirror
per complex; one term table per complex; and the V family refusing
complexes that validate refuses only for their vertical homology."""
import functools
import gc
import random
import re
import sys
import weakref

import pytest

import test_references
from cfk import complexes, expr
from cfk.cfkfile import _read_columns, dumps, loads
from cfk.complexes import BifilteredComplex, DiffTerm as D
from cfk.cli import main
from cfk.complexes import Generator as G, dual, tensor, validate, verdict
from cfk.expr import build_complex, parse
from cfk.invariants import H, V, epsilon, hfk_hat, nu, nu_plus, tau
from cfk.surgery import SurgerySpec, cable_nu_plus_bounds, d_invariants

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
    "nu": nu,
    "epsilon": epsilon,
    "hfk_hat": lambda C: sorted(hfk_hat(C).items()),
    "dual": lambda C: len(dual(C).terms),
    "tensor": lambda C: (len(tensor(C, T).terms), len(tensor(T, C).terms)),
    "dumps": dumps,
}

# Each entry's result or error on each complex, recorded when every reader
# ran its own checks; since then V, tau, nu, epsilon and HFK-hat refuse a
# complex that repeats a name or a pair with validate's first message.
# From "inhomogeneous only" on, the rows repeat nothing (C.repeats() is
# False), and V refuses each with validate's first message (the complex's
# verdict), where tau, nu, epsilon and HFK-hat, which read no verdict,
# still give numbers.  The nu and epsilon cells were recorded later, while
# tau and nu still read whole U = 0 slices.
FROZEN = {
    "inhomogeneous before repeated term": {
        "validate": [
            ("filtration", "U^0:x0->x2 raises filtration: (1,0) from (0,1)"),
            ("grading", "U^0:x0->x2 grading mismatch: M=0 source vs M=0-2*0 target"),
            ("duplicate-term", "term U^0:x1->x0 repeated"),
        ],
        "V": "ValueError: U^0:x0->x2 raises filtration: (1,0) from (0,1)",
        "tau": "ValueError: U^0:x0->x2 raises filtration: (1,0) from (0,1)",
        "nu": "ValueError: U^0:x0->x2 raises filtration: (1,0) from (0,1)",
        "epsilon": "ValueError: U^0:x0->x2 raises filtration: (1,0) from (0,1)",
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
        "nu": "ValueError: term U^0:x1->x0 repeated",
        "epsilon": "ValueError: term U^0:x1->x0 repeated",
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
        "nu": "ValueError: U^0:e->x0 raises filtration: (0,1) from (-2,-2)",
        "epsilon": "ValueError: U^0:e->x0 raises filtration: (0,1) from (-2,-2)",
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
        "nu": "ValueError: negative U power on x0->f",
        "epsilon": "ValueError: negative U power on x0->f",
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
        "nu": "ValueError: generator name 'x2' declared twice",
        "epsilon": "ValueError: generator name 'x2' declared twice",
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
        "nu": "ValueError: generator name 'x2' declared twice",
        "epsilon": "ValueError: generator name 'x2' declared twice",
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
        "nu": 1,
        "epsilon": 1,
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
        "nu": 1,
        "epsilon": 1,
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
        "nu": 1,
        "epsilon": 0,
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
        "nu": 1,
        "epsilon": 1,
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
        shared = BifilteredComplex(*spec)  # every reader in turn, one flag and verdict
        for name, entry in ENTRIES.items():
            want = FROZEN[label][name]
            assert outcome(entry, BifilteredComplex(*spec)) == want, (label, name)
            assert outcome(entry, shared) == want, (label, name)


def test_every_reader_refusal_is_validates_first_message():
    """V, tau, nu, epsilon and HFK-hat refuse in validate's words: each
    ValueError they raise on a frozen row is validate's first message.  All
    five refuse the six rows that repeat a name or a pair; V alone the
    other four."""
    refused = []
    for label, spec in COMPLEXES.items():
        first = validate(BifilteredComplex(*spec))[0].message
        for name in ("V", "tau", "nu", "epsilon", "hfk_hat"):
            try:
                ENTRIES[name](BifilteredComplex(*spec))
            except ValueError as exc:
                assert str(exc) == first, (label, name)
                refused.append(name)
    assert len(refused) == 6 * 5 + 4


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


def test_repeats_finds_a_repeated_name_or_pair():
    def columns(names, sources, targets):
        zeros = [0] * len(names)
        return BifilteredComplex.from_columns(names, zeros, zeros, zeros, [0] * len(sources),
                                              sources, targets)

    assert not columns([], [], []).repeats()
    assert columns(["a", "b"], [1, 1], [0, 0]).repeats()
    assert columns(["a", "b", "a"], [0], [1]).repeats()
    assert columns(["a", "b", "c", "b", "a"], [0, 1, 2, 0, 4, 0],
                   [1, 0, 3, 2, 0, 1]).repeats()
    # every (source, target) pair over two generators, none repeated
    assert not columns(["a", "b"], [0, 1, 1, 0], [1, 0, 1, 0]).repeats()


@pytest.fixture
def passes(monkeypatch):
    """The complexes whose repeats() looks at the index, in call order:
    those no build seeded, on their first call."""
    found = []
    repeats = BifilteredComplex.repeats

    def counted(C):
        if C._repeats is None:
            found.append(C)
        return repeats(C)

    monkeypatch.setattr(BifilteredComplex, "repeats", counted)
    return found


PAPER_KNOT = "torus(2,9) # mirror(cable(2,5,torus(2,3)))"


@pytest.fixture(scope="module")
def text():
    return dumps(build_complex(parse(PAPER_KNOT)))


def test_loads_seeds_the_record_and_no_reader_runs_the_bulk_pass(text, passes):
    assert _read_columns(text) is not None
    C = loads(text)
    assert C._repeats is False
    assert validate(C) == []
    assert (tau(C), nu(C), nu_plus(C), V(C, 0)) == (0, 1, 2, 1)
    assert hfk_hat(C) and dumps(C) == text
    assert passes == []


def test_the_record_is_found_once_per_complex(text, passes):
    built = loads(text)
    C = BifilteredComplex(built.generators, built.terms)  # from records: not seeded
    assert C._repeats is None
    assert validate(C) == []
    for read in (tau, nu, hfk_hat, lambda C: V(C, 0), dumps, dual, lambda C: tensor(C, C)):
        read(C)
    assert passes == [C]


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
    built complex reads it and checks nothing: neither of validate's
    stages runs."""
    expected = {name: read(build_complex(parse(expression))) for name, read in LADDER.items()}

    def stage(C):
        raise AssertionError("a stage of validate ran on a built complex")

    monkeypatch.setattr(complexes, "_positional_stage", stage)
    monkeypatch.setattr(complexes, "_vertical_stage", stage)
    C = build_complex(parse(expression))
    assert {name: read(C) for name, read in LADDER.items()} == expected


def test_file_and_loaded_complexes_run_the_positional_stage_once(text, tmp_path, monkeypatch):
    path = tmp_path / "k.cfk"
    path.write_text(text)
    ran = {"_positional_stage": [], "_vertical_stage": []}

    def counted(name):
        stage = getattr(complexes, name)
        return lambda C: ran[name].append(C) or stage(C)

    for name in ran:
        monkeypatch.setattr(complexes, name, counted(name))
    loaded = loads(text)
    filed = build_complex(parse(f'file("{path}")'))  # validated on the way in
    mirrored = build_complex(parse(f'mirror(file("{path}")) # torus(2,3)'))
    for C in (loaded, filed, mirrored):
        for read in LADDER.values():
            read(C)
    assert validate(loaded) == [] and validate(filed) == []
    # each stage once for each file(...) as it is read, and once for
    # loaded on its first V
    for stages in ran.values():
        assert len(stages) == 3 and stages[-1] is loaded and stages[0] is filed


def test_a_tensor_of_valid_factors_can_repeat_a_name():
    """Both factors pass validate, but the tensor's names repeat ("x*y" +
    "z" against "x" + "y*z"): its repeat flag shows it, its verdict is
    not seeded, and validate reports the repeat by name, as for a complex
    built from records."""
    def trefoil(names):
        rename = dict(zip(["x0", "x1", "x2"], names))
        return BifilteredComplex([G(rename[g.name], *g[1:]) for g in GENS],
                                 [D(rename[s], rename[t], n) for s, t, n in TERMS])

    A, B = trefoil(["x", "x*y", "a"]), trefoil(["y*z", "z", "b"])
    assert validate(A) == validate(B) == []
    C = tensor(A, B)
    assert C._repeats is True and C._verdict is None
    found = [(v.kind, v.message) for v in validate(C)]
    assert found[0] == ("duplicate-name", "generator name 'x*y*z' declared twice")
    records = BifilteredComplex(C.generators, C.terms)
    assert found == [(v.kind, v.message) for v in validate(records)]
    assert outcome(lambda C: V(C, 0), C) == f"ValueError: {found[0][1]}"


def test_one_term_table_per_complex(text, monkeypatch):
    """validate's vertical stage, HFK-hat, tau and nu build their slice
    columns from one table of the complex's term positions by source,
    built once; past validate's positional stage, nothing else reads the
    term lists whole."""
    readers = []

    class Watched(list):
        def __iter__(self):
            readers.append(sys._getframe(1).f_code.co_name)
            return super().__iter__()

    built = []
    terms_by_source = complexes._terms_by_source.__wrapped__

    @functools.wraps(terms_by_source)
    def counted(C):
        built.append(C)
        return terms_by_source(C)

    monkeypatch.setattr(complexes, "_terms_by_source", complexes.memoized(counted))
    C = loads(text)
    x = C.index()
    C._index = x._replace(powers=Watched(x.powers), sources=Watched(x.sources),
                          targets=Watched(x.targets))
    assert validate(C) == [] and hfk_hat(C) and (tau(C), nu(C)) == (0, 1)
    assert built == [C]
    assert set(readers) == {"_positional_stage", "_terms_by_source"}
    assert readers.count("_terms_by_source") == 1


def test_a_defective_complex_runs_the_positional_stage_once(text, monkeypatch):
    """The verdict is kept for every complex, so seven V calls on a
    record-built complex with a repeated name check it once and refuse
    each time with validate's first message."""
    built = loads(text)
    C = BifilteredComplex(built.generators + built.generators[:1], built.terms)
    ran = []
    positional_stage = complexes._positional_stage

    def counted(C):
        ran.append(C)
        return positional_stage(C)

    monkeypatch.setattr(complexes, "_positional_stage", counted)
    for k in range(-3, 4):
        assert outcome(lambda C: V(C, k), C) == "ValueError: generator name 'x0*x0' declared twice"
    assert len(ran) == 1


def test_each_complex_has_one_mirror_and_it_holds_no_reference_back(text):
    C = loads(text)
    assert dual(C) is dual(C) and C._memo[("dual",)] is dual(C)
    assert dual(dual(C)) is not C
    gone = weakref.ref(C)
    mirror = dual(C)
    gc.disable()
    try:
        del C
        assert gone() is None  # freed by its reference count: no cycle
    finally:
        gc.enable()
    assert tau(mirror) == 0


def test_one_invariants_report_makes_two_mirrors_and_no_defect_pass(capsys, monkeypatch,
                                                                    passes):
    """On the 225-generator paper knot: the mirror in the expression and
    the one the report reads for nu+ and epsilon, and every repeat flag
    seeded by the build."""
    mirrors = []
    from_columns = BifilteredComplex.from_columns.__func__

    def counted_columns(cls, *args, **kwargs):
        C = from_columns(cls, *args, **kwargs)
        if C.label.startswith("dual("):
            mirrors.append(C)
        return C

    monkeypatch.setattr(BifilteredComplex, "from_columns", classmethod(counted_columns))
    assert main(["invariants", "torus(2,5) # torus(2,3) # torus(2,3) # "
                               "mirror(cable(2,5,torus(2,3)))", "--json"]) == 0
    assert '"nu_plus": 2' in capsys.readouterr().out
    assert (len(mirrors), len(passes)) == (2, 0)


def _cfk_trefoil(path, names):
    a, b, c = names
    path.write_text(f"cfk v1\ngen {a} 0 1 0\ngen {b} 1 1 1\ngen {c} 1 0 0\ndif {b} {a} {c}\n")
    return f'file("{path}")'


def _random_expression(rng, leaves, factors):
    """A sum of that many leaves, some mirrored, in a random grouping."""
    if factors == 1:
        leaf = rng.choice(leaves)
        return f"mirror({leaf})" if rng.random() < 0.3 else leaf
    left = rng.randint(1, factors - 1)
    text = (f"({_random_expression(rng, leaves, left)}) # "
            f"({_random_expression(rng, leaves, factors - left)})")
    return f"mirror({text})" if rng.random() < 0.2 else text


def test_seeded_records_match_a_fresh_computation(tmp_path):
    """Every repeat flag and verdict a build seeds (staircase, dual,
    tensor, loads) equals a fresh look at the names and (source, target)
    pairs and validate's answer, both stages, on a copy built from the
    complex's records, which carries no seed: on random sums, mirrors and
    cables with file factors whose names contain "*", so that product
    names collide, on their mirrors, on tensors of defective factors,
    loops among them, and on mirrors and tensors of loaded complexes that
    fail only at the vertical stage, which must not be seeded."""
    fa, fb, fc, fd = (_cfk_trefoil(tmp_path / f"{file}.cfk", names) for file, names in [
        ("A", ["x", "x*y", "a"]), ("B", ["y*z", "z", "b"]),
        ("C", ["x0", "x0*x1", "x2"]), ("D", ["x1*x2", "x2", "d"])])
    # x * y*z = x*y * z, x0 * x1*x2 = x0*x1 * x2, and (x0 * x1) * x1*x2 = (x0*x1 * x1) * x2
    colliding = [f"{fa} # {fb}", f"mirror({fa} # {fb})", f"torus(2,3) # ({fa} # {fb})",
                 f"{fc} # {fd}", f"({fc} # torus(2,3)) # {fd}", f"{fc} # {fd} # mirror({fa})"]
    leaves = ["unknot", "torus(2,3)", "torus(3,4)", "cable(2,5,torus(2,3))",
              "cable(3,7,torus(2,3))", fa, fb, fc, fd]
    rng = random.Random(20)

    def made(C):
        """C with the repeat flag and the verdict it was made with."""
        return C, C._repeats, C._verdict

    def repeated(C):
        """Whether C repeats a name, and whether it repeats a pair."""
        x = C.index()
        return (len(set(x.names)) < len(x.names),
                len(set(zip(x.sources, x.targets))) < len(x.sources))

    built = [made(expr._build(parse(text))) for text in colliding + [
        _random_expression(rng, leaves, rng.randint(1, 3)) for _ in range(60)]]
    loop = BifilteredComplex([G("a", 0, 0, 0)], [D("a", "a", 0)])
    defective = [C for C, *_ in built if C.repeats()]
    assert sum(repeated(C)[0] for C in defective) >= len(colliding)
    defective += [loop] + [BifilteredComplex(*spec) for spec in COMPLEXES.values()]
    cases = built + [made(dual(C)) for C in [C for C, *_ in built] + defective]
    cases += [made(tensor(A, B)) for A in [loop] + defective[-4:]
              for B in (loop, T, built[0][0], defective[0])]
    cases += [made(tensor(built[0][0], A)) for A in defective]
    # Two towers, and the trefoil without its term x1 -> x2; each loaded
    # twice, and the first copy's verdict read before its mirror and
    # products are made.
    vertical = [loads(text) for text in ("cfk v1\ngen a 0 0 0\ngen b 0 0 0\n",
                                         "cfk v1\ngen x0 0 1 0\ngen x1 1 1 1\n"
                                         "gen x2 1 0 0\ndif x1 x0\n") for _ in (0, 1)]
    for C in vertical[::2]:
        assert [v.kind for v in validate(C)] == [complexes.VERTICAL_HOMOLOGY]
    trefoil = expr._build(parse("torus(2,3)"))
    products = [made(dual(C)) for C in vertical]
    products += [made(tensor(A, B)) for C in vertical
                 for A, B in ((C, trefoil), (trefoil, C), (C, C), (dual(C), trefoil))]
    assert all(kept is None for _C, _seeded, kept in products)
    cases += [made(C) for C in vertical] + products
    assert any(repeated(C)[1] for C, *_ in cases)
    for C, seeded, kept in cases:
        fresh = any(repeated(C))
        assert seeded in (None, fresh), C
        assert C.repeats() == fresh
        answer = tuple(validate(BifilteredComplex(C.generators, C.terms)))
        assert kept in (None, answer), C
        assert kept != () or not fresh
        assert verdict(C) == answer and validate(C) == list(answer), C


def test_the_v_family_refuses_complexes_that_fail_only_at_the_vertical_stage():
    """Random complexes, most of them perturbed, that validate refuses only
    for their vertical homology: V at every k in [A_min - 2, A_max + 2], H,
    nu+, the d-invariants and the cable lower bound each raise ValueError
    with validate's message, however few levels they read, on the complex
    and on a copy built from its records.  Every draw that validate passes
    gives numbers throughout."""
    rng = random.Random(11)
    refused = passed = 0
    for _ in range(1500):
        C = test_references.random_complex(rng)
        if rng.random() < 0.8:
            C = test_references.perturb(C, rng)
        violations = validate(C)
        if violations and violations[0].kind != complexes.VERTICAL_HOMOLOGY:
            continue
        lo, hi = C.index().alexander_range
        levels = range(lo - 2, hi + 3)
        entries = ([lambda C, k=k: V(C, k) for k in levels]
                   + [lambda C, k=k: H(C, k) for k in levels]
                   + [nu_plus, lambda C: d_invariants(C, SurgerySpec(1, 1)),
                      lambda C: d_invariants(C, SurgerySpec(5, 2)),
                      lambda C: cable_nu_plus_bounds(C, 2, 1),
                      lambda C: cable_nu_plus_bounds(C, 2, 7)])
        if not violations:
            passed += 1
            for entry in entries:
                entry(C)
            continue
        refused += 1
        assert [v.kind for v in violations] == [complexes.VERTICAL_HOMOLOGY]
        want = f"ValueError: {violations[0].message}"
        for entry in entries:
            assert outcome(entry, C) == want
            assert outcome(entry, BifilteredComplex(C.generators, C.terms)) == want
    assert (refused, passed) == (32, 555)
