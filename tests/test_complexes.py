import pytest

from conftest import cable_staircase, torus_staircase
from cfk.cfkfile import dumps, loads, read_complex, write_complex
from cfk.complexes import (BifilteredComplex, DiffTerm, Generator, dual,
                           staircase, tensor, unknot_complex, validate)
from cfk.errors import ValidationError
from cfk.expr import build_complex, parse
from cfk.invariants import V, epsilon, nu, nu_plus, tau


def positions(C):
    return [(g.i, g.j) for g in C.generators]


def maslovs(C):
    return [g.maslov for g in C.generators]


def term_triples(C):
    return sorted((t.source, t.target, t.upower) for t in C.terms)


def test_unknot_complex():
    U = unknot_complex()
    assert positions(U) == [(0, 0)] and maslovs(U) == [0]
    assert U.terms == ()
    assert validate(U) == []


def test_staircase_frozen_positions():
    assert positions(torus_staircase(2, 3)) == [(0, 1), (1, 1), (1, 0)]
    assert positions(torus_staircase(2, 5)) == [
        (0, 2), (1, 2), (1, 1), (2, 1), (2, 0)]
    assert positions(torus_staircase(2, 9)) == [
        (0, 4), (1, 4), (1, 3), (2, 3), (2, 2), (3, 2), (3, 1), (4, 1), (4, 0)]
    assert positions(torus_staircase(3, 4)) == [
        (0, 3), (1, 3), (1, 1), (3, 1), (3, 0)]
    assert positions(torus_staircase(3, 5)) == [
        (0, 4), (1, 4), (1, 2), (2, 2), (2, 1), (4, 1), (4, 0)]
    assert positions(cable_staircase()) == [
        (0, 4), (1, 4), (1, 1), (4, 1), (4, 0)]


def test_staircase_structure():
    C = torus_staircase(2, 9)
    assert maslovs(C) == [0, 1, 0, 1, 0, 1, 0, 1, 0]
    assert term_triples(C) == [
        ("x1", "x0", 0), ("x1", "x2", 0),
        ("x3", "x2", 0), ("x3", "x4", 0),
        ("x5", "x4", 0), ("x5", "x6", 0),
        ("x7", "x6", 0), ("x7", "x8", 0)]
    # alexander gradings read the polynomial exponents back off
    assert [g.j - g.i for g in C.generators] == [4, 3, 2, 1, 0, -1, -2, -3, -4]
    assert validate(C) == []


def test_staircase_rejects_non_lspace_polynomial():
    assert positions(staircase([1, 0, -1])) == [(0, 1), (1, 1), (1, 0)]
    for exps in [(), (1, -1), (1, 0, 0, -1),  # even length
                 (0, 0, 0), (-1, 0, 1), (2, -1, 0, 1, -2),  # not strictly decreasing
                 (1, 0, -2), (3, 1, 0, -2, -3), (1,)]:  # not symmetric about 0
        with pytest.raises(ValueError, match="not the exponents of an L-space staircase"):
            staircase(exps)


def test_dual_negates_coordinates_and_reverses_arrows():
    D = dual(cable_staircase(prefix="y"))
    assert positions(D) == [(0, -4), (-1, -4), (-1, -1), (-4, -1), (-4, 0)]
    assert maslovs(D) == [0, -1, 0, -1, 0]
    assert term_triples(D) == [
        ("y0", "y1", 0), ("y2", "y1", 0), ("y2", "y3", 0), ("y4", "y3", 0)]
    assert validate(D) == []


def test_dual_is_an_involution():
    for C in [unknot_complex(), torus_staircase(2, 5), cable_staircase()]:
        assert dual(dual(C)) == C


def test_tensor_counts_and_validity(knot_45, knot_225):
    assert len(knot_45.generators) == 45
    assert len(knot_45.terms) == 9 * 4 + 8 * 5  # Leibniz: |G1||T2| + |T1||G2|
    assert validate(knot_45) == []
    assert len(knot_225.generators) == 225
    assert validate(knot_225) == []


def test_tensor_differential_spot_checks(knot_45):
    by_name = {g.name: g for g in knot_45.generators}
    g = by_name["x1*y0"]
    assert (g.i, g.j) == (1, 0)
    outs = sorted((t.target, t.upower) for t in knot_45.terms if t.source == "x1*y0")
    assert outs == [("x0*y0", 0), ("x1*y1", 0), ("x2*y0", 0)]
    g2 = by_name["x0*y1"]
    assert (g2.i, g2.j) == (-1, 0)
    assert [t for t in knot_45.terms if t.source == "x0*y1"] == []


def test_tensor_is_symmetric_up_to_invariants():
    A = torus_staircase(2, 5)
    B = dual(torus_staircase(2, 3, prefix="y"))
    AB, BA = tensor(A, B), tensor(B, A)
    for f in (tau, nu, nu_plus, epsilon):
        assert f(AB) == f(BA)
    for k in range(-3, 4):
        assert V(AB, k) == V(BA, k)


def test_validate_duplicate_and_undeclared_names():
    base = torus_staircase(2, 3)
    dup = BifilteredComplex(
        list(base.generators) + [Generator("x0", 7, 7, 0)], base.terms)
    kinds = [v.kind for v in validate(dup)]
    assert "duplicate-name" in kinds

    # a term naming no generator never reaches validate: making it fails
    with pytest.raises(ValueError, match="references unknown generator 'ghost'"):
        BifilteredComplex(base.generators, list(base.terms) + [DiffTerm("x1", "ghost", 0)])


def test_validate_filtration_and_grading():
    base = torus_staircase(2, 3)
    bad_filt = BifilteredComplex(
        base.generators, list(base.terms) + [DiffTerm("x2", "x1", 0)])
    kinds = [v.kind for v in validate(bad_filt)]
    assert "filtration" in kinds

    # x1 -> U^1 x2 respects filtration but drops maslov by 3, not 1
    bad_grading = BifilteredComplex(
        base.generators, [DiffTerm("x1", "x0", 0), DiffTerm("x1", "x2", 1)])
    kinds = [v.kind for v in validate(bad_grading)]
    assert "grading" in kinds


def test_validate_d_squared():
    C = BifilteredComplex(
        [Generator("a", 0, 0, 2), Generator("b", 0, 0, 1),
         Generator("c", 0, 0, 0), Generator("z", 0, 0, 0)],
        [DiffTerm("a", "b", 0), DiffTerm("b", "c", 0)])
    violations = validate(C)
    assert [v.kind for v in violations] == ["d-squared"]
    assert "d^2(a)" in violations[0].message


def malformed_complexes():
    T23 = torus_staircase(2, 3)
    T29 = torus_staircase(2, 9)
    G, D = Generator, DiffTerm
    # d^2(z) = d + f and d^2(a) = d + f + U k: e is reached twice from each
    several_odd = [G("z", 0, 0, 2), G("a", 0, 0, 2), G("c", 0, 0, 1),
                   G("b", 0, 0, 1), G("h", 1, 1, 3), G("f", 0, 0, 0),
                   G("e", 0, 0, 0), G("d", 0, 0, 0), G("k", 1, 1, 2)]
    return {
        "duplicate name": BifilteredComplex(
            list(T23.generators) + [G("x0", 7, 7, 0), G("x2", 0, 0, 0)], T23.terms),
        "repeated term": BifilteredComplex(
            T23.generators, list(T23.terms) + [D("x1", "x0", 0), D("x1", "x2", 0)]),
        "negative U power": BifilteredComplex(
            T23.generators, list(T23.terms) + [D("x1", "x0", -1)]),
        "filtration": BifilteredComplex(
            T23.generators, list(T23.terms) + [D("x2", "x1", 0), D("x0", "x1", 0)]),
        "grading": BifilteredComplex(
            T23.generators, [D("x1", "x0", 0), D("x1", "x2", 1), D("x2", "x0", 0)]),
        "structural mix": BifilteredComplex(
            [G("a", 0, 0, 1), G("b", 1, 0, 0), G("a", 0, 0, 1)],
            [D("a", "b", 0), D("a", "b", 0), D("b", "a", -2), D("b", "a", 0)]),
        "several odd d^2 paths": BifilteredComplex(several_odd, [
            D("a", "c", 0), D("a", "b", 0), D("a", "h", 1), D("z", "c", 0),
            D("z", "b", 0), D("c", "e", 0), D("c", "f", 0), D("b", "d", 0),
            D("b", "e", 0), D("h", "k", 0)]),
        # d^2(a) = U^2 c + U g: the residue's power is read off the gradings
        "d^2 with U powers": BifilteredComplex(
            [G("a", 0, 0, 0), G("b", 1, 1, 1), G("c", 2, 2, 2), G("f", 0, 0, -1),
             G("g", 1, 1, 0)],
            [D("a", "b", 1), D("b", "c", 1), D("a", "f", 0), D("f", "g", 1)]),
        "vertical homology": BifilteredComplex(
            T29.generators, [t for t in T29.terms if (t.source, t.target) != ("x1", "x2")]),
        "box next to a dot": BifilteredComplex(
            [G("a", 0, 0, 1), G("b", 0, 0, 0), G("c", 0, 0, 0)], [D("a", "b", 0)]),
    }


# (kind, message) lists recorded from validate() before its d^2 check used
# a parity set, and "d^2 with U powers" from the name-keyed reference in
# references.py; kinds and messages must stay exactly these, in this order.
FROZEN_VIOLATIONS = {
    "duplicate name": [
        ("duplicate-name", "generator name 'x0' declared twice"),
        ("duplicate-name", "generator name 'x2' declared twice"),
        ("filtration", "U^0:x1->x0 raises filtration: (7,7) from (1,1)"),
    ],
    "repeated term": [
        ("duplicate-term", "term U^0:x1->x0 repeated"),
        ("duplicate-term", "term U^0:x1->x2 repeated"),
    ],
    "negative U power": [
        ("filtration", "negative U power on x1->x0"),
    ],
    "filtration": [
        ("filtration", "U^0:x2->x1 raises filtration: (1,1) from (1,0)"),
        ("grading", "U^0:x2->x1 grading mismatch: M=0 source vs M=1-2*0 target"),
        ("filtration", "U^0:x0->x1 raises filtration: (1,1) from (0,1)"),
        ("grading", "U^0:x0->x1 grading mismatch: M=0 source vs M=1-2*0 target"),
    ],
    "grading": [
        ("grading", "U^1:x1->x2 grading mismatch: M=1 source vs M=0-2*1 target"),
        ("filtration", "U^0:x2->x0 raises filtration: (0,1) from (1,0)"),
        ("grading", "U^0:x2->x0 grading mismatch: M=0 source vs M=0-2*0 target"),
    ],
    "structural mix": [
        ("duplicate-name", "generator name 'a' declared twice"),
        ("filtration", "U^0:a->b raises filtration: (1,0) from (0,0)"),
        ("duplicate-term", "term U^0:a->b repeated"),
        ("filtration", "negative U power on b->a"),
        ("grading", "U^0:b->a grading mismatch: M=0 source vs M=1-2*0 target"),
    ],
    "several odd d^2 paths": [
        ("d-squared", "d^2(z) contains U^0*d"),
        ("d-squared", "d^2(z) contains U^0*f"),
        ("d-squared", "d^2(a) contains U^0*d"),
        ("d-squared", "d^2(a) contains U^0*f"),
        ("d-squared", "d^2(a) contains U^1*k"),
    ],
    "d^2 with U powers": [
        ("d-squared", "d^2(a) contains U^2*c"),
        ("d-squared", "d^2(a) contains U^1*g"),
    ],
    "vertical homology": [
        ("vertical-homology",
         "vertical homology has total dimension 3 at gradings [-2, -1, 0] (want "
         "dimension 1 at grading 0)"),
    ],
    "box next to a dot": [],
}


def test_frozen_validate_table():
    complexes = malformed_complexes()
    assert list(complexes) == list(FROZEN_VIOLATIONS)
    for label, C in complexes.items():
        got = [(v.kind, v.message) for v in validate(C)]
        assert got == FROZEN_VIOLATIONS[label], label


def test_validate_vertical_homology():
    base = torus_staircase(2, 9)
    # dropping one vertical arrow leaves three surviving classes
    kept = [t for t in base.terms if (t.source, t.target) != ("x1", "x2")]
    C = BifilteredComplex(base.generators, kept)
    violations = validate(C)
    assert [v.kind for v in violations] == ["vertical-homology"]
    assert "dimension 3" in violations[0].message
    # a box at the origin next to a free dot: the box is acyclic
    box = BifilteredComplex(
        [Generator("a", 0, 0, 1), Generator("b", 0, 0, 0),
         Generator("c", 0, 0, 0)],
        [DiffTerm("a", "b", 0)])
    assert validate(box) == []


def test_require_valid_raises():
    C = BifilteredComplex([Generator("a", 0, 0, 0), Generator("b", 0, 0, 0)], [])
    from cfk.complexes import require_valid
    with pytest.raises(ValidationError):
        require_valid(C)


def test_complex_equality_ignores_label_and_term_order(trefoil):
    reordered = BifilteredComplex(trefoil.generators,
                                  list(reversed(trefoil.terms)),
                                  label="renamed")
    assert reordered == trefoil


def test_builds_seed_symmetry_and_readers_leave_it_unknown(tmp_path):
    """staircase, dual and tensor seed C.symmetric, next to the verdict; a
    complex read from a file or built from records or columns is not
    known to be symmetric, nor is a sum or mirror that involves one."""
    T = torus_staircase(2, 5)
    path = tmp_path / "k.cfk"
    write_complex(T, path)
    seeded = [T, dual(T), tensor(T, dual(T))] + [build_complex(parse(text)) for text in (
        "unknot", "mirror(torus(2,3))", "torus(2,9) # mirror(cable(2,5,torus(2,3)))",
        "mirror(torus(2,3) # torus(2,5)) # torus(3,4)")]
    loaded = loads(dumps(T))
    unknown = [loaded, dual(loaded), tensor(T, loaded), BifilteredComplex(T.generators, T.terms),
               BifilteredComplex.from_columns(*T.index()[:7]), read_complex(path)]
    unknown += [build_complex(parse(text.format(f=f'file("{path}")'))) for text in (
        "{f}", "mirror({f})", "torus(2,3) # {f}", "{f} # mirror({f})")]
    assert [C.symmetric for C in seeded] == [True] * len(seeded)
    assert [C.symmetric for C in unknown] == [False] * len(unknown)
