"""The position-based validate, tau, nu and HFK-hat against the name-keyed
references in references.py."""
import random
import tracemalloc

import references
from conftest import cable_staircase, torus_staircase
from cfk.complexes import BifilteredComplex, DiffTerm, Generator, dual, tensor, validate
from cfk.expr import build_complex, parse
from cfk.invariants import hfk_hat, nu, tau

PIECES = [lambda p: torus_staircase(2, 3, p), lambda p: torus_staircase(2, 5, p),
          lambda p: torus_staircase(3, 4, p), lambda p: cable_staircase(p)]


def random_complex(rng):
    """A tensor product of up to three staircases and mirrors, renamed and
    shuffled, with each generator g replaced by U^c g: c in [0, 2] on a
    generator no term enters and c in [-2, 0] on one no term leaves.  That
    is a change of basis over F2[U, U^-1], so the complex stays valid with
    the same invariants, and its terms get U powers up to 4."""
    C = None
    for prefix in "xyz"[:rng.randint(1, 3)]:
        piece = rng.choice(PIECES)(prefix)
        piece = dual(piece) if rng.random() < 0.5 else piece
        C = piece if C is None else tensor(C, piece)
    labels = [f"g{i}" for i in range(len(C.generators))]
    rng.shuffle(labels)
    rename = {g.name: label for g, label in zip(C.generators, labels)}
    sources = {s for s, _t, _n in C.terms}
    targets = {t for _s, t, _n in C.terms}
    shift = {name: rng.randint(0 if name in sources else -2, 0 if name in targets else 2)
             for name, _i, _j, _m in C.generators}
    gens = [Generator(rename[name], i - shift[name], j - shift[name], m - 2 * shift[name])
            for name, i, j, m in C.generators]
    terms = [DiffTerm(rename[s], rename[t], n + shift[s] - shift[t]) for s, t, n in C.terms]
    rng.shuffle(gens)
    rng.shuffle(terms)
    return BifilteredComplex(gens, terms)


def perturb(C, rng):
    """C with one random defect of the kinds validate reports."""
    gens, terms = list(C.generators), list(C.terms)
    kind = rng.choice(["drop", "repeat", "ghost", "negative", "grading", "redeclare"])
    if kind == "drop":
        terms.pop(rng.randrange(len(terms)))
    elif kind == "repeat":
        terms.insert(rng.randrange(len(terms) + 1), rng.choice(terms))
    elif kind == "ghost":
        name = rng.choice(gens).name
        ghost = DiffTerm("ghost", name, 0) if rng.random() < 0.5 else DiffTerm(name, "ghost", 0)
        terms.insert(rng.randrange(len(terms) + 1), ghost)
    elif kind == "negative":
        p = rng.randrange(len(terms))
        terms[p] = terms[p]._replace(upower=-1 - terms[p].upower)
    elif kind == "grading":
        p = rng.randrange(len(gens))
        gens[p] = gens[p]._replace(maslov=gens[p].maslov + rng.choice([-2, -1, 1, 2]))
    else:
        name, i, j, m = rng.choice(gens)
        gens.insert(rng.randrange(len(gens) + 1),
                    Generator(name, i + rng.randint(-1, 1), j + rng.randint(-1, 1), m))
    return BifilteredComplex(gens, terms)


def violations(check, C):
    return [(v.kind, v.message) for v in check(C)]


def test_validate_matches_the_reference_on_perturbed_complexes():
    rng = random.Random(9143)
    seen = set()
    for _ in range(500):
        C = random_complex(rng)
        for _defects in range(rng.randint(0, 2)):
            if C.terms:
                C = perturb(C, rng)
        expected = violations(references.validate, C)
        assert violations(validate, C) == expected, C
        seen.update((kind, "U^0*" not in message) for kind, message in expected)
    # every structural kind came up, and d^2 residues with and without a U power
    assert seen >= {(kind, True) for kind in ("duplicate-name", "undeclared-name",
                                              "duplicate-term", "filtration", "grading")}
    assert seen >= {("d-squared", False), ("d-squared", True)}


def test_tau_nu_and_hfk_hat_match_the_reference_on_random_sums():
    rng = random.Random(5527)
    for _ in range(150):
        C = random_complex(rng)
        assert validate(C) == []
        assert tau(C) == references.tau(C), C
        assert nu(C) == references.nu(C), C
        assert hfk_hat(C) == references.hfk_hat(C), C


def test_validate_peak_memory_is_no_more_than_the_reference():
    K = "torus(2,9) # mirror(cable(2,5,torus(2,3)))"
    C = build_complex(parse(f"{K} # {K} # torus(2,5)"))
    assert len(C.generators) == 10_125
    peaks = {}
    for check in (references.validate, validate):
        fresh = BifilteredComplex(C.generators, C.terms)  # no index built yet
        tracemalloc.start()
        try:
            assert check(fresh) == []
            peaks[check] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[validate] <= peaks[references.validate], peaks
