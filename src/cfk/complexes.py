"""Bifiltered chain complexes over F2 with a formal U variable.

A complex is a finite generator list, each generator carrying a filtration
position (i, j) and a Maslov grading, together with differential terms
U^n: source -> target.  U drops both filtration slots by one and the grading
by two, which forces M(source) - 1 = M(target) - 2n on every term.  The
knot-type condition (vertical homology one-dimensional, in grading zero)
is part of validation because every invariant downstream assumes it.

Generator and DiffTerm are NamedTuples, not dataclasses: a file of a few
thousand generators makes tens of thousands of them on each load, and a
tuple is about three times cheaper to build and to hash.  Attribute access
on a NamedTuple is slower than on a dataclass, so the loops that walk every
generator or term unpack the records (``for name, i, j, m in
C.generators``) instead of reading their fields.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import f2
from .errors import ValidationError
from .laurent import LaurentPoly, is_lspace_form

# Violation kinds reported by validate().
DUPLICATE_NAME = "duplicate-name"
UNDECLARED_NAME = "undeclared-name"
DUPLICATE_TERM = "duplicate-term"
FILTRATION = "filtration"
GRADING = "grading"
D_SQUARED = "d-squared"
VERTICAL_HOMOLOGY = "vertical-homology"


class Generator(NamedTuple):
    name: str
    i: int
    j: int
    maslov: int

    @property
    def alexander(self) -> int:
        return self.j - self.i


class DiffTerm(NamedTuple):
    """One differential term U^upower: source -> target."""
    source: str
    target: str
    upower: int


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str


class BifilteredComplex:
    def __init__(self, generators, terms, label: str = ""):
        self.generators: tuple[Generator, ...] = tuple(generators)
        self.terms: tuple[DiffTerm, ...] = tuple(terms)
        self.label = label
        self.by_name: dict[str, Generator] = {g.name: g for g in self.generators}
        # Results of cfk.invariants for this complex, keyed by (function, args).
        self._memo: dict[tuple, object] = {}

    @property
    def max_alexander(self) -> int:
        return max((g.alexander for g in self.generators), default=0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BifilteredComplex):
            return NotImplemented
        return (self.generators == other.generators
                and frozenset(self.terms) == frozenset(other.terms))

    def __repr__(self) -> str:
        return (f"BifilteredComplex({len(self.generators)} generators, "
                f"{len(self.terms)} terms, label={self.label!r})")


def validate(C: BifilteredComplex) -> list[Violation]:
    """Structural checks plus the knot-type condition.

    Returns an empty list when C is a valid knot-like complex.  The deeper
    checks (d^2 = 0, vertical homology) only run once the purely structural
    ones pass, since they would crash or lie on malformed input.

    d^2 = 0 is checked over F2 per (end generator, total U power): each
    generator keeps the set of such pairs reached by an odd number of
    two-step paths, toggling a pair in or out per path, and reports what is
    left in sorted order.
    """
    out: list[Violation] = []
    seen: set[str] = set()
    for name, _i, _j, _m in C.generators:
        if name in seen:
            out.append(Violation(DUPLICATE_NAME, f"generator name {name!r} declared twice"))
        seen.add(name)

    gens = C.by_name
    structural_ok = not out
    term_seen: set[DiffTerm] = set()
    for term in C.terms:
        source, target, n = term
        if term in term_seen:
            out.append(Violation(DUPLICATE_TERM, f"term U^{n}:{source}->{target} repeated"))
            structural_ok = False
            continue
        term_seen.add(term)
        if source not in gens or target not in gens:
            missing = source if source not in gens else target
            out.append(Violation(UNDECLARED_NAME, f"term references unknown generator {missing!r}"))
            structural_ok = False
            continue
        _, si, sj, sm = gens[source]
        _, ti, tj, tm = gens[target]
        if n < 0:
            out.append(Violation(FILTRATION, f"negative U power on {source}->{target}"))
            structural_ok = False
            continue
        if ti - n > si or tj - n > sj:
            out.append(Violation(
                FILTRATION,
                f"U^{n}:{source}->{target} raises filtration: "
                f"({ti - n},{tj - n}) from ({si},{sj})"))
        if sm - 1 != tm - 2 * n:
            out.append(Violation(
                GRADING,
                f"U^{n}:{source}->{target} grading mismatch: "
                f"M={sm} source vs M={tm}-2*{n} target"))

    if out or not structural_ok:
        return out

    # outgoing holds (target, power) pairs; after a first step of power 0
    # such a pair is already the path's (end, power).
    outgoing: dict[str, list[tuple[str, int]]] = {}
    for source, target, n in C.terms:
        outgoing.setdefault(source, []).append((target, n))
    for name, _i, _j, _m in C.generators:
        odd: set[tuple[str, int]] = set()
        for mid, n1 in outgoing.get(name, ()):
            for path in outgoing.get(mid, ()):
                if n1:
                    path = (path[0], path[1] + n1)
                if path in odd:
                    odd.remove(path)
                else:
                    odd.add(path)
        if odd:
            for end, power in sorted(odd):
                out.append(Violation(D_SQUARED, f"d^2({name}) contains U^{power}*{end}"))
    if out:
        return out

    # Vertical homology: the i-preserving slice at i = 0.  Each generator g
    # contributes U^{i_g} g in grading M(g) - 2 i_g; a term survives the
    # slice exactly when its translated U power i_s - i_t + n is zero.
    level: dict[str, int] = {}
    grading: dict[str, int] = {}
    for name, i, _j, m in C.generators:
        level[name] = i
        grading[name] = m - 2 * i
    dims = f2.graded_homology_dims(
        grading, ((source, target) for source, target, n in C.terms
                  if n + level[source] - level[target] == 0))
    if dims != {0: 1}:
        total = sum(dims.values())
        out.append(Violation(
            VERTICAL_HOMOLOGY,
            f"vertical homology has total dimension {total} at gradings "
            f"{sorted(dims)} (want dimension 1 at grading 0)"))
    return out


def require_valid(C: BifilteredComplex) -> BifilteredComplex:
    violations = validate(C)
    if violations:
        raise ValidationError(violations)
    return C


def staircase(delta: LaurentPoly, prefix: str = "x", label: str | None = None) -> BifilteredComplex:
    """Staircase complex of an L-space-form Alexander polynomial.

    With exponents a_0 > ... > a_{2m}, generator 0 sits at (0, a_0) and the
    walk alternates rightward steps (odd generators, arrow sources) and
    downward steps; every arrow has U power zero and the Maslov grading
    alternates 0, 1 starting from M = 0 at the top left.
    """
    ok, exps = is_lspace_form(delta)
    if not ok:
        raise ValueError(f"polynomial is not in L-space staircase form: {delta!r}")
    if label is None:
        label = f"staircase({delta!r})"
    gens: list[Generator] = []
    i, j, m = 0, exps[0], 0
    gens.append(Generator(f"{prefix}0", i, j, m))
    for idx in range(1, len(exps)):
        step = exps[idx - 1] - exps[idx]
        if idx % 2 == 1:
            i += step
            m += 1
        else:
            j -= step
            m -= 1
        gens.append(Generator(f"{prefix}{idx}", i, j, m))
    terms = []
    for idx in range(1, len(exps), 2):
        terms.append(DiffTerm(f"{prefix}{idx}", f"{prefix}{idx - 1}", 0))
        terms.append(DiffTerm(f"{prefix}{idx}", f"{prefix}{idx + 1}", 0))
    return BifilteredComplex(gens, terms, label)


def unknot_complex(prefix: str = "x") -> BifilteredComplex:
    return staircase(LaurentPoly.one(), prefix=prefix, label="unknot")


def dual(C: BifilteredComplex) -> BifilteredComplex:
    """Mirror complex: positions and gradings negated, arrows reversed."""
    gens = [Generator(name, -i, -j, -m) for name, i, j, m in C.generators]
    terms = [DiffTerm(t, s, n) for s, t, n in C.terms]
    return BifilteredComplex(gens, terms, f"dual({C.label})")


def tensor(C1: BifilteredComplex, C2: BifilteredComplex) -> BifilteredComplex:
    """Tensor product over F2[U] with the Leibniz differential.

    Generator g*h sits at the componentwise sum of positions and gradings;
    ordering is by factor index pairs, so the result is deterministic.
    """
    gens = [
        Generator(f"{a}*{b}", i1 + i2, j1 + j2, m1 + m2)
        for a, i1, j1, m1 in C1.generators
        for b, i2, j2, m2 in C2.generators
    ]
    names1 = [g.name for g in C1.generators]
    names2 = [h.name for h in C2.generators]
    terms = [DiffTerm(f"{s}*{b}", f"{t}*{b}", n) for s, t, n in C1.terms for b in names2]
    terms += [DiffTerm(f"{a}*{s}", f"{a}*{t}", n) for a in names1 for s, t, n in C2.terms]
    return BifilteredComplex(gens, terms, f"tensor({C1.label}, {C2.label})")
