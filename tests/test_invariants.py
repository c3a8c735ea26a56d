import gc
import heapq
import json
import random
import re
import time
import tracemalloc
from types import SimpleNamespace

import pytest

import references
import test_references
from conftest import cable_staircase, random_sums, torus_staircase
from cfk import invariants, selftest
from cfk.cli import main
from cfk.cfkfile import dumps, loads
from cfk.complexes import (BifilteredComplex, DiffTerm, Generator, dual, tensor, unknot_complex,
                           validate)
from cfk.errors import KnotTypeError
from cfk.expr import build_complex, parse
from cfk.invariants import (FreeUComplex, H, V, a_minus, epsilon, hfk_hat,
                            homology_over_U, nu, nu_plus, seifert_genus, tau)
from cfk.surgery import SurgerySpec, d_invariants, lens_d


def test_a_minus_trefoil_shifts(trefoil):
    X = a_minus(trefoil, 0)
    # every generator needs one U to get under max(i, j) = 0
    assert X.basis == (("x0", -2), ("x1", -1), ("x2", -2))
    assert X.terms == (("x1", "x0", 0), ("x1", "x2", 0))
    X1 = a_minus(trefoil, 1)
    assert X1.basis == (("x0", 0), ("x1", -1), ("x2", -2))
    assert X1.terms == (("x1", "x0", 1), ("x1", "x2", 0))


def origin_level(basis, terms):
    """a_minus(C, 0) of a complex with every generator at (0, 0), so each
    basis entry's grading is its Maslov grading and each term's exponent is
    its U power."""
    return a_minus(BifilteredComplex([Generator(name, 0, 0, m) for name, m in basis],
                                     [DiffTerm(*term) for term in terms]), 0)


def test_homology_over_u_examples(trefoil):
    # unknot: the single tower survives untouched
    assert homology_over_U(a_minus(unknot_complex(), 0)) == (0,)
    # one box: a -> U b is pure torsion, so nothing is free
    assert homology_over_U(free_level((("a", 1), ("b", 2)), (("a", "b", 1),))) == ()
    # trefoil at k = 0: both arrows have exponent 0, so one pair cancels
    # and one free generator remains in grading -2
    assert homology_over_U(a_minus(trefoil, 0)) == (-2,)
    # at k = 1 the tower top moves up to 0
    assert homology_over_U(a_minus(trefoil, 1)) == (0,)


def free_level(basis, terms):
    """A FreeUComplex over a complex built from columns, with no check of
    any kind and no verdict read: a level with d^2 = 0 that no a_minus
    makes, since its complex need not be knot-type."""
    names, grading = [name for name, _m in basis], [m for _name, m in basis]
    position = {name: p for p, name in enumerate(names)}
    origin = [0] * len(names)
    C = BifilteredComplex.from_columns(names, origin, origin, grading, [e for *_ends, e in terms],
                                       [position[s] for s, _t, _e in terms],
                                       [position[t] for _s, t, _e in terms])
    level = FreeUComplex(C, grading)
    assert level.terms == terms  # each exponent is the one the gradings pin
    return level


def test_homology_over_u_rejects_inhomogeneous():
    # a_minus reads the complex's verdict first, so validate's message comes out
    message = "U^0:a->b grading mismatch: M=0 source vs M=0-2*0 target"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        homology_over_U(origin_level((("a", 0), ("b", 0)), (("a", "b", 0),)))


# The first two ids name the defect, the others the message, which is
# validate's first.
@pytest.mark.parametrize("basis, terms, message", [
    pytest.param((("a", 0), ("a", 1)), (),
                 "generator name 'a' declared twice", id="x0-duplicate basis name 'a'"),
    pytest.param((("a", 1), ("b", 0)), (("a", "b", 0), ("a", "b", 0)),
                 "term U^0:a->b repeated", id="x1-duplicate term a->b"),
    # d(d a) = d
    pytest.param((("a", 2), ("b", 1), ("c", 1), ("d", 0)),
                 (("a", "b", 0), ("a", "c", 0), ("b", "d", 0)),
                 "d^2(a) contains U^0*d", id="x4-d^2(a) contains U^0*d"),
    # chains of U^0 terms; from positions, clearing would skip the column
    # that carries the defect
    pytest.param((("a", 2), ("b", 1), ("c", 0)), (("a", "b", 0), ("b", "c", 0)),
                 "d^2(a) contains U^0*c", id="x5-d^2(a) contains U^0*c"),
    pytest.param((("a", 1), ("b", 0), ("x", 2)), (("x", "a", 0), ("a", "b", 0)),
                 "d^2(x) contains U^0*b", id="x6-d^2(x) contains U^0*b"),
])
def test_homology_over_u_rejects_bad_input(basis, terms, message):
    """a_minus reads the complex's verdict, so a level of a complex that
    validate refuses raises validate's message."""
    with pytest.raises(ValueError) as raised:
        homology_over_U(origin_level(basis, terms))
    assert (type(raised.value), str(raised.value)) == (ValueError, message)


def hat_slice(C, k):
    """The U = 0 slice of A^-_k, as nu builds it: g moved to U^{c_g} g,
    c_g = max(i_g, j_g - k)."""
    x = C.index()
    return references.shifted_slice(x, [max(i, j - k) for i, j in zip(x.i, x.j)])


def vertical_slice(C):
    """The vertical slice: g moved to U^{i_g} g."""
    return references.shifted_slice(C.index(), C.index().i)


@pytest.mark.parametrize("ghost", ["source", "target"])
@pytest.mark.parametrize("entry", [
    lambda C: a_minus(C, 0), lambda C: hat_slice(C, 0), vertical_slice,
    lambda C: V(C, 0), tau, nu, hfk_hat,
], ids=["a_minus", "hat_a", "vertical_complex", "V", "tau", "nu", "hfk_hat"])
def test_term_with_unknown_generator_is_named(entry, ghost):
    """A term naming no generator is refused, and named, when the complex
    is made, so no entry ever reads one; without it, the entry reads the
    one-generator complex."""
    term = DiffTerm("ghost", "a", 0) if ghost == "source" else DiffTerm("a", "ghost", 0)
    message = (f"term U^0 {term.source!r}->{term.target!r} "
               "references unknown generator 'ghost'")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        entry(BifilteredComplex([Generator("a", 0, 0, 0)], [term]))
    entry(BifilteredComplex([Generator("a", 0, 0, 0)], []))


# Each id names the defect; the message is validate's first.
@pytest.mark.parametrize("defect, message", [
    pytest.param("name", "generator name 'x0' declared twice",
                 id="name-duplicate basis name 'x0'"),
    pytest.param("term", "term U^0:x1->x0 repeated", id="term-duplicate term x1->x0"),
])
@pytest.mark.parametrize("entry", [
    lambda C: a_minus(C, 0), lambda C: V(C, 0), nu_plus, tau, nu, epsilon, hfk_hat,
    seifert_genus,
], ids=["a_minus", "V", "nu_plus", "tau", "nu", "epsilon", "hfk_hat", "seifert_genus"])
def test_repeated_name_or_term_is_refused(entry, defect, message):
    # Unrefused, the redeclared x0 yields tau 0 and a wrong HFK-hat table,
    # and V fails on an escaping term instead.
    T = torus_staircase(2, 3)
    if defect == "name":
        C = BifilteredComplex(list(T.generators) + [Generator("x0", 7, 7, 0)], T.terms)
    else:
        C = BifilteredComplex(T.generators, list(T.terms) + [DiffTerm("x1", "x0", 0)])
    assert validate(C)[0].message == message
    for _ in range(2):  # a refusal leaves nothing in the memo
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            entry(C)


def test_missing_generator_is_reported_before_an_escaping_term():
    # the index of C is built when C is made, so the ghost comes first
    with pytest.raises(ValueError, match="references unknown generator 'ghost'"):
        V(BifilteredComplex([Generator("a", 0, 0, 0), Generator("b", 1, 1, 1)],
                            [DiffTerm("a", "b", 0), DiffTerm("b", "ghost", 0)]), 0)


def test_level_independent_checks_do_not_stick_after_a_failure(knot_45):
    # without its first term K45 is clean pair by pair; only d^2 = 0 fails
    C = BifilteredComplex(knot_45.generators, knot_45.terms[1:])
    message = "d^2(x1*y0) contains U^0*x0*y1"
    for k in (0, 0, 1, 9, -9):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            V(C, k)
    assert [v.message for v in validate(C)] == [message]


def reference_homology_over_U(x):
    """Free gradings, highest first, by a graded Smith reduction that
    cancels a globally minimal (exponent, source, target) entry at a time,
    pivots taken from a lazy-deletion heap; an algorithm apart from the
    persistence pairing."""
    grading_of: dict[str, int] = {}
    for name, m in x.basis:
        if name in grading_of:
            raise ValueError(f"duplicate basis name {name!r}")
        grading_of[name] = m
    names = sorted(grading_of)
    index = {name: i for i, name in enumerate(names)}
    grading = [grading_of[name] for name in names]
    n = len(names)
    nn = n * n
    rows: list[set[int]] = [set() for _ in range(n)]  # target -> sources
    cols: list[set[int]] = [set() for _ in range(n)]  # source -> targets
    heap: list[int] = []  # (exponent * n + source) * n + target
    for s_name, t_name, e in x.terms:
        s, t = index[s_name], index[t_name]
        if s in rows[t]:
            raise ValueError(f"duplicate term {s_name}->{t_name}")
        if e < 0 or grading[s] - 1 != grading[t] - 2 * e:
            raise ValueError(
                f"term U^{e}:{s_name}->{t_name} is not homogeneous of degree -1")
        rows[t].add(s)
        cols[s].add(t)
        heap.append(e * nn + s * n + t)
    heapq.heapify(heap)

    def toggle(t: int, s: int) -> None:
        row = rows[t]
        if s in row:
            row.discard(s)
            cols[s].discard(t)
        else:
            # parity / sign sanity on every created entry
            num = grading[t] - grading[s] + 1
            if num < 0 or num % 2:
                raise AssertionError("entry exponent left the grading lattice")
            row.add(s)
            cols[s].add(t)
            heapq.heappush(heap, (num // 2) * nn + s * n + t)

    alive = [True] * n
    while heap:
        a, b = divmod(heapq.heappop(heap) % nn, n)
        if a not in rows[b]:
            continue  # stale: the entry cancelled out after it was pushed
        # Clear the other entries of row b: sources s pick up a U^{f-e} a
        # summand, which also feeds row a through the inverse basis change.
        for s in rows[b] - {a}:
            for t2 in cols[a]:
                toggle(t2, s)
            for x2 in rows[s]:
                toggle(a, x2)
        # Absorb the other targets of a into b' = b + sum U^{d-e} t; the
        # complex property forces d(b') = 0, i.e. column b empties out.
        for t in cols[a] - {b}:
            for w in cols[t]:
                toggle(w, b)
            toggle(t, a)
        if cols[b]:
            raise ValueError("column of the cancelled target is nonzero; "
                             "input differential does not square to zero")
        if rows[a]:
            raise ValueError("row of the cancelled source is nonzero; "
                             "input differential does not square to zero")
        if rows[b] != {a} or cols[a] != {b}:
            raise AssertionError("pivot pair lost its own entry")
        rows[b].clear()
        cols[a].clear()
        alive[a] = alive[b] = False

    return tuple(sorted((m for m, live in zip(grading, alive) if live), reverse=True))


def random_kernel_inputs(rng, count):
    """(C, k) for k in [-3, 3] and C a tensor product of up to three
    staircases and mirrors, renamed and shuffled; a fifth of them have a
    term dropped, which usually breaks d^2 = 0."""
    pieces = [lambda p: torus_staircase(2, 3, p), lambda p: torus_staircase(2, 5, p),
              lambda p: torus_staircase(3, 4, p), lambda p: cable_staircase(p)]
    for _ in range(count):
        C = None
        for prefix in "xyz"[:rng.randint(1, 3)]:
            piece = rng.choice(pieces)(prefix)
            piece = dual(piece) if rng.random() < 0.5 else piece
            C = piece if C is None else tensor(C, piece)
        labels = [f"g{i}" for i in range(len(C.generators))]
        rng.shuffle(labels)
        rename = {g.name: label for g, label in zip(C.generators, labels)}
        gens = [Generator(rename[name], i, j, m) for name, i, j, m in C.generators]
        terms = [(rename[s], rename[t], n) for s, t, n in C.terms]
        rng.shuffle(gens)
        rng.shuffle(terms)
        if rng.random() < 0.2:
            terms.pop(rng.randrange(len(terms)))
        C = BifilteredComplex(gens, [DiffTerm(*term) for term in terms])
        for k in range(-3, 4):
            yield C, k


def test_kernel_matches_reference_on_random_tensor_products():
    """V refuses every level of a complex that validate refuses, with
    validate's first message, and d^2 = 0 fails on each level whose eager
    reference reduction refuses.  On every other level the kernel agrees
    with the reference: through a_minus on a knot-type complex, and on the
    level built from positions on one that fails only its vertical
    homology."""
    broken = vertical = 0
    for C, k in random_kernel_inputs(random.Random(6021), 60):
        basis, terms = references.a_minus(C, k)
        violations = validate(C)
        try:
            expected = reference_homology_over_U(SimpleNamespace(basis=basis, terms=terms))
        except ValueError:
            broken += 1
            assert violations[0].message.startswith("d^2("), violations[0].message
        else:
            vertical += bool(violations)
            level = free_level(basis, terms) if violations else a_minus(C, k)
            assert homology_over_U(level) == expected, (basis, terms)
        if violations:
            with pytest.raises(ValueError) as raised:
                V(C, k)
            assert (type(raised.value), str(raised.value)) == (ValueError, violations[0].message)
    assert broken > 10 and vertical > 10


def test_a_minus_records_match_the_eager_reference(knot_45, knot_225):
    levels = list(random_kernel_inputs(random.Random(6021), 60))
    for C in (knot_45, knot_225):
        lo, hi = alexander_range(C)
        levels += [(C, k) for k in range(lo - 2, hi + 3)]
    refused = 0
    for C, k in levels:
        violations = validate(C)
        if violations:
            # the reference builds any level; a_minus refuses the complex
            refused += 1
            with pytest.raises(ValueError, match=f"^{re.escape(violations[0].message)}$"):
                a_minus(C, k)
            continue
        x = a_minus(C, k)
        assert (x.basis, x.terms) == references.a_minus(C, k), (C, k)
    assert 0 < refused < len(levels) / 2


def test_escaping_term_is_named():
    # a -> b lowers the grading by one but raises both filtration slots:
    # V gives validate's message, the eager reference its escape message
    C = BifilteredComplex([Generator("a", 0, 0, 1), Generator("b", 1, 1, 0),
                           Generator("c", 0, 0, 0)], [DiffTerm("a", "b", 0)])
    messages = {V: "U^0:a->b raises filtration: (1,1) from (0,0)",
                references.a_minus: ("term a->b escapes the subcomplex; input complex violates "
                                     "its filtration invariants")}
    assert [v.message for v in validate(C)] == [messages[V]]
    for k in (-2, 0, 2):
        for level, message in messages.items():
            with pytest.raises(ValueError) as raised:
                level(C, k)
            assert (type(raised.value), str(raised.value)) == (ValueError, message)


@pytest.mark.parametrize("entry", [
    nu_plus,
    lambda C: [V(C, k) for k in range(alexander_range(C)[0], alexander_range(C)[1] + 1)],
    lambda C: d_invariants(C, SurgerySpec(20, 1)),
], ids=["nu_plus", "V", "d_invariants"])
def test_levels_make_no_named_records(monkeypatch, entry):
    """The V ladder reads each level's gradings and term positions only:
    no level zips its named basis or terms."""
    def built():
        return tensor(torus_staircase(2, 9), dual(cable_staircase(prefix="y")))

    text = dumps(built())
    levels, reads = [], []

    def recording_a_minus(C, k):
        levels.append(k)
        return a_minus(C, k)

    def counting_getattribute(x, name):
        if name in ("basis", "terms"):
            reads.append(name)
        return object.__getattribute__(x, name)

    expected = entry(built())
    monkeypatch.setattr(invariants, "a_minus", recording_a_minus)
    monkeypatch.setattr(FreeUComplex, "__getattribute__", counting_getattribute)
    results = [entry(built()), entry(loads(text))]
    monkeypatch.undo()
    assert results == [expected, expected]
    assert levels and reads == []


# Free gradings of a_minus(C, k), recorded from the string-keyed kernel
# that scanned every entry per pivot: (complex, mirrored, k, free).
FROZEN_SUMMARIES = [
    ('K45', False, -3, (-6,)),
    ('K45', False, -2, (-4,)),
    ('K45', False, -1, (-4,)),
    ('K45', False, 0, (-2,)),
    ('K45', False, 1, (-2,)),
    ('K45', False, 2, (0,)),
    ('K45', False, 3, (0,)),
    ('K45', True, -3, (-6,)),
    ('K45', True, -2, (-4,)),
    ('K45', True, -1, (-2,)),
    ('K45', True, 0, (0,)),
    ('K45', True, 1, (0,)),
    ('K45', True, 2, (0,)),
    ('K45', True, 3, (0,)),
    ('K225', False, -3, (-6,)),
    ('K225', False, -2, (-4,)),
    ('K225', False, -1, (-4,)),
    ('K225', False, 0, (-2,)),
    ('K225', False, 1, (-2,)),
    ('K225', False, 2, (0,)),
    ('K225', False, 3, (0,)),
    ('K225', True, -3, (-6,)),
    ('K225', True, -2, (-4,)),
    ('K225', True, -1, (-2,)),
    ('K225', True, 0, (0,)),
    ('K225', True, 1, (0,)),
    ('K225', True, 2, (0,)),
    ('K225', True, 3, (0,)),
]


def test_frozen_summaries(knot_45, knot_225):
    knots = {"K45": knot_45, "K225": knot_225}
    for name, mirrored, k, free in FROZEN_SUMMARIES:
        C = dual(knots[name]) if mirrored else knots[name]
        assert homology_over_U(a_minus(C, k)) == free, (name, mirrored, k)


def test_v_and_h_frozen_values(trefoil):
    assert V(trefoil, 0) == 1
    assert V(trefoil, 1) == 0
    assert V(trefoil, -1) == 1
    assert H(trefoil, 1) == 1
    assert H(trefoil, 0) == 1
    for k in range(-5, 6):
        assert V(unknot_complex(), k) == max(0, -k)
        assert H(unknot_complex(), k) == max(0, k)


def test_v_requires_knot_type():
    # two parallel towers: validate rejects this, and V refuses in its words
    C = BifilteredComplex([Generator("a", 0, 0, 0), Generator("b", 0, 0, 0)], [])
    message = ("vertical homology has total dimension 2 at gradings [0] "
               "(want dimension 1 at grading 0)")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        V(C, 0)
    # one tower at grading -2: V_k = 1 would never vanish, and nu+ refuses it
    C = BifilteredComplex([Generator("a", 0, 0, -2)], [])
    message = ("vertical homology has total dimension 1 at gradings [-2] "
               "(want dimension 1 at grading 0)")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        nu_plus(C)


@pytest.mark.parametrize("generators, count", [
    ([Generator("a", 0, 0, -2)], "no grading-zero generator"),
    ([Generator("a", 0, 0, 0), Generator("b", 0, 0, 0)], "2 grading-zero generators"),
])
def test_tau_and_nu_require_one_vertical_class(generators, count):
    """Zero classes or two towers in vertical grading zero: validate would
    reject these, and tau and nu refuse them too."""
    for invariant in (tau, nu):
        C = BifilteredComplex(generators, [])
        with pytest.raises(KnotTypeError, match=f"vertical homology has {count}; "):
            invariant(C)


def test_nu_plus_values(trefoil):
    assert nu_plus(unknot_complex()) == 0
    assert nu_plus(trefoil) == 1
    assert nu_plus(dual(trefoil)) == 0


def test_nu_plus_probes_no_more_levels_than_a_forward_scan(
        monkeypatch, trefoil, knot_45, knot_225):
    probed = []

    def counting_V(C, k):
        probed.append(k)
        return V(C, k)

    monkeypatch.setattr(invariants, "V", counting_V)
    knots = [trefoil, knot_45, knot_225, torus_staircase(2, 9),
             torus_staircase(2, 21), torus_staircase(3, 7), cable_staircase()]
    for C in knots + [dual(C) for C in knots]:
        probed.clear()
        n = nu_plus(C)
        forward = next(k for k in range(n + 2) if V(C, k) == 0)
        assert n == forward
        assert sorted(set(probed)) == probed and probed[-1] == n
        assert len(probed) <= n + 1
    # V_k = ceil((10 - k) / 2) on T(2,21): the steps land on 0, 5, 8, 9, 10
    probed.clear()
    assert nu_plus(torus_staircase(2, 21)) == 10
    assert probed == [0, 5, 8, 9, 10]


def test_nu_plus_of_high_genus_sum_is_fast():
    start = time.monotonic()
    C = build_complex(parse("torus(2,401) # mirror(torus(2,3))"))
    assert nu_plus(C) == 199
    assert time.monotonic() - start < 5.0


def test_each_complex_reduces_each_level_once(monkeypatch):
    calls = []

    def counting_kernel(x):
        calls.append(x)
        return homology_over_U(x)

    monkeypatch.setattr(invariants, "homology_over_U", counting_kernel)
    C = tensor(torus_staircase(2, 9), dual(cable_staircase(prefix="y")))
    assert [V(C, k) for k in (0, 1, 2, 0, 1)] == [1, 1, 0, 1, 1]
    assert [H(C, k) for k in (0, -1, -2)] == [1, 1, 0]
    assert nu_plus(C) == 2
    assert len(calls) == 3
    assert V(dual(C), 0) == 0  # a new complex object starts a new memo
    assert len(calls) == 4


def direct_V(C, k):
    """V_k read from a reduction of A^-_k itself."""
    (d,) = homology_over_U(a_minus(C, k))
    return -d // 2


def alexander_range(C):
    alexanders = [g.j - g.i for g in C.generators]
    return min(alexanders), max(alexanders)


def test_v_outside_the_alexander_range_reads_the_boundary_level():
    for text in selftest._SUITE:
        for C in (build_complex(parse(text)), dual(build_complex(parse(text)))):
            lo, hi = alexander_range(C)
            for k in range(lo - 5, hi + 6):
                assert V(C, k) == direct_V(C, k), (text, C.label, k)


def test_surgery_reduces_no_level_outside_the_alexander_range(monkeypatch):
    calls = []

    def counting_kernel(x):
        calls.append(x)
        return homology_over_U(x)

    C = tensor(torus_staircase(2, 9), dual(cable_staircase(prefix="y")))
    lo, hi = alexander_range(C)
    spec = SurgerySpec(200, 1)
    expected = [lens_d(200, 1, i) - 2 * max(direct_V(C, i), direct_V(C, 200 - i))
                for i in range(200)]
    monkeypatch.setattr(invariants, "homology_over_U", counting_kernel)
    assert d_invariants(C, spec) == expected
    assert len(calls) <= hi - lo + 1


def counted_levels(monkeypatch):
    """The list that gets (C.label, k) for each level that homology_over_U
    reduces, from here on."""
    built, levels = {}, []

    def recording(C, k):
        x = a_minus(C, k)
        built[id(x)] = (C.label, k)
        return x

    def counting_kernel(x):
        levels.append(built[id(x)])
        return homology_over_U(x)

    monkeypatch.setattr(invariants, "a_minus", recording)
    monkeypatch.setattr(invariants, "homology_over_U", counting_kernel)
    return levels


@pytest.mark.parametrize("text, p, q", [
    ("torus(2,97)", 48, 1), ("torus(2,97)", 97, 2), ("torus(2,97)", 61, 4),
    ("torus(2,97)", 199, 1), ("torus(2,9) # mirror(cable(2,5,torus(2,3)))", 17, 1),
    ("torus(2,9) # mirror(cable(2,5,torus(2,3)))", 17, 3), ("torus(2,3)", 5, 4)])
def test_d_invariants_reduce_at_most_half_as_many_levels_as_slots(monkeypatch, text, p, q):
    """Slot i reads only V at min(floor(i/q), -floor((i-p)/q)), which is at
    most (p/q + 1)/2: at most floor(p/(2q)) + 2 levels in all."""
    C = build_complex(parse(text))
    levels = counted_levels(monkeypatch)
    assert len(d_invariants(C, SurgerySpec(p, q))) == p
    assert 0 < len(levels) <= p // (2 * q) + 2, levels


@pytest.mark.parametrize("text", ["mirror(torus(2,7))", "torus(2,5) # mirror(torus(2,5))",
                                  "torus(2,7)", "torus(2,9) # mirror(cable(2,5,torus(2,3)))"])
@pytest.mark.parametrize("window", [[], ["--vk=-9..12"]])
def test_invariants_report_reduces_no_level_past_nu_plus(monkeypatch, capsys, text, window):
    """V_k = 0 for k >= nu+, so the report reduces no level of C above
    nu+, which nu_plus itself probes: with nu+ = 0, none at k >= 1."""
    levels = counted_levels(monkeypatch)
    assert main(["invariants", text, *window, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    reduced = {k for label, k in levels if label == text}
    assert reduced and max(reduced) == report["nu_plus"], (sorted(reduced), report["nu_plus"])


def test_v_is_nonnegative_and_drops_by_at_most_one_per_step():
    """V_k >= 0 and V_k - 1 <= V_{k+1} <= V_k at every k in
    [A_min - 2, A_max + 2], on both sides of the golden expressions and of
    random sums with mixed signs (K # -K and J # K # -K among them), and on
    shuffled U-shifted sums: the facts by which surgery_d reads one level
    per slot and the invariants report stops reducing at nu+."""
    rng = random.Random(3141)
    complexes = [build_complex(parse(text))
                 for text in selftest._SUITE + random_sums(rng, 30)]
    complexes += [test_references.random_complex(rng) for _ in range(20)]
    for C in complexes + [dual(C) for C in complexes]:
        lo, hi = alexander_range(C)
        ladder = [V(C, k) for k in range(lo - 2, hi + 4)]
        assert min(ladder) >= 0, (C, ladder)
        assert all(v - 1 <= w <= v for v, w in zip(ladder, ladder[1:])), (C, lo, ladder)


def test_v_memo_stays_within_the_alexander_range():
    """d-invariants at p = 20,000 ask for V_k at 20,000 values of k; the
    complex's memo keeps one entry per reduced level and its one table,
    and nothing else (an entry per k held 2.3 MB)."""
    C = torus_staircase(2, 3)
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        assert len(d_invariants(C, SurgerySpec(20_000, 1))) == 20_000
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    lo, hi = alexander_range(C)
    levels = [key[1:] for key in C._memo if key[0] == "_free_gradings"]
    assert levels and all(lo <= k <= hi for (k,) in levels), levels
    expected = {("_table",)} | {("_free_gradings", k) for (k,) in levels}
    assert set(C._memo) == expected, list(C._memo)
    assert held < 100_000, held


def test_hfk_hat_hands_out_a_copy(trefoil):
    C = torus_staircase(2, 3)
    table = hfk_hat(C)
    table[(5, 5)] = 9
    assert hfk_hat(C) == hfk_hat(trefoil) == {(1, 0): 1, (0, -1): 1, (-1, -2): 1}
    assert seifert_genus(C) == 1


def test_vertical_and_hat_complexes(trefoil):
    # the vertical slice and the U = 0 slices of A^-_k, by generator position
    grading, sources, targets = vertical_slice(torus_staircase(2, 9))
    assert len(grading) == 9
    # only the downward (i-preserving) arrows survive: x1->x2, x3->x4, ...
    assert sorted(zip(sources, targets)) == [(1, 2), (3, 4), (5, 6), (7, 8)]
    # both trefoil arrows (x1->x0, x1->x2) have induced exponent 0 at k = 0
    assert sorted(zip(*hat_slice(trefoil, 0)[1:])) == [(1, 0), (1, 2)]
    assert sorted(zip(*hat_slice(trefoil, 1)[1:])) == [(1, 2)]


def test_tau_nu_epsilon_small_cases(trefoil):
    U = unknot_complex()
    assert (tau(U), nu(U), epsilon(U)) == (0, 0, 0)
    assert (tau(trefoil), nu(trefoil), epsilon(trefoil)) == (1, 1, 1)
    m = dual(trefoil)
    assert (tau(m), nu(m), epsilon(m)) == (-1, 0, -1)
    c = cable_staircase()
    assert tau(c) == 4 and tau(dual(c)) == -4


def test_tau_additivity_on_staircases():
    pieces = [torus_staircase(2, 3), torus_staircase(2, 5, prefix="y"),
              dual(torus_staircase(3, 4, prefix="z"))]
    taus = [tau(p) for p in pieces]
    assert taus == [1, 2, -3]
    K = tensor(tensor(pieces[0], pieces[1]), pieces[2])
    assert tau(K) == sum(taus)
    assert tau(dual(K)) == -sum(taus)


def test_hfk_hat_tables(trefoil):
    assert hfk_hat(unknot_complex()) == {(0, 0): 1}
    assert hfk_hat(trefoil) == {(1, 0): 1, (0, -1): 1, (-1, -2): 1}
    t29 = hfk_hat(torus_staircase(2, 9))
    assert sorted(t29) == [(a, a - 4) for a in range(-4, 5)]
    assert set(t29.values()) == {1}


def test_hfk_hat_cancels_a_pair_that_keeps_the_alexander_grading(trefoil):
    """A staircase and its sums have no term that keeps both i and the
    Alexander grading, so their HFK-hat reduces nothing.  The unknot with
    an acyclic pair u -> w at (0, 0) is valid and has one: HFK-hat
    cancels it, alone and in a sum with the trefoil."""
    P = BifilteredComplex([Generator("x", 0, 0, 0), Generator("u", 0, 0, 1),
                           Generator("w", 0, 0, 0)], [DiffTerm("u", "w", 0)])
    assert validate(P) == [] and hfk_hat(P) == {(0, 0): 1}
    K = tensor(trefoil, P)
    assert validate(K) == [] and (tau(K), nu(K)) == (tau(trefoil), nu(trefoil))
    assert hfk_hat(K) == hfk_hat(trefoil) == references.hfk_hat(K) == references.slice_hfk_hat(K)


def test_seifert_genus(trefoil):
    assert seifert_genus(unknot_complex()) == 0
    assert seifert_genus(trefoil) == 1
    assert seifert_genus(torus_staircase(3, 5)) == 4


def test_invariants_ignore_term_order(knot_45):
    rng = random.Random(7)
    terms = list(knot_45.terms)
    rng.shuffle(terms)
    shuffled = BifilteredComplex(knot_45.generators, terms)
    assert (tau(shuffled), nu(shuffled), nu_plus(shuffled)) == (0, 1, 2)
    for k in range(-2, 3):
        assert V(shuffled, k) == V(knot_45, k)
    assert homology_over_U(a_minus(shuffled, 0)) == homology_over_U(
        a_minus(knot_45, 0))
