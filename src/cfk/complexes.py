"""Bifiltered chain complexes over F2 with a formal U variable.

A complex is a finite generator list, each generator carrying a filtration
position (i, j) and a Maslov grading, together with differential terms
U^n: source -> target.  U drops both filtration slots by one and the grading
by two, which forces M(source) - 1 = M(target) - 2n on every term.  The
knot-type condition (vertical homology one-dimensional, in grading zero)
is part of validation because every invariant downstream assumes it.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Generator:
    name: str
    i: int
    j: int
    maslov: int

    @property
    def alexander(self) -> int:
        return self.j - self.i


@dataclass(frozen=True)
class DiffTerm:
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
    """
    out: list[Violation] = []
    seen: set[str] = set()
    for g in C.generators:
        if g.name in seen:
            out.append(Violation(DUPLICATE_NAME, f"generator name {g.name!r} declared twice"))
        seen.add(g.name)

    gens = {g.name: g for g in C.generators}
    structural_ok = not out
    term_seen: set[DiffTerm] = set()
    for t in C.terms:
        if t in term_seen:
            out.append(Violation(DUPLICATE_TERM,
                                 f"term U^{t.upower}:{t.source}->{t.target} repeated"))
            structural_ok = False
            continue
        term_seen.add(t)
        if t.source not in gens or t.target not in gens:
            missing = t.source if t.source not in gens else t.target
            out.append(Violation(UNDECLARED_NAME, f"term references unknown generator {missing!r}"))
            structural_ok = False
            continue
        s, g = gens[t.source], gens[t.target]
        if t.upower < 0:
            out.append(Violation(FILTRATION,
                                 f"negative U power on {t.source}->{t.target}"))
            structural_ok = False
            continue
        if g.i - t.upower > s.i or g.j - t.upower > s.j:
            out.append(Violation(
                FILTRATION,
                f"U^{t.upower}:{t.source}->{t.target} raises filtration: "
                f"({g.i - t.upower},{g.j - t.upower}) from ({s.i},{s.j})"))
        if s.maslov - 1 != g.maslov - 2 * t.upower:
            out.append(Violation(
                GRADING,
                f"U^{t.upower}:{t.source}->{t.target} grading mismatch: "
                f"M={s.maslov} source vs M={g.maslov}-2*{t.upower} target"))

    if out or not structural_ok:
        return out

    # d^2 = 0, coefficientwise over F2 per (end generator, total U power).
    outgoing: dict[str, list[DiffTerm]] = {}
    for t in C.terms:
        outgoing.setdefault(t.source, []).append(t)
    for g in C.generators:
        paths: Counter = Counter()
        for t1 in outgoing.get(g.name, ()):
            for t2 in outgoing.get(t1.target, ()):
                paths[(t2.target, t1.upower + t2.upower)] += 1
        for (end, power), count in sorted(paths.items()):
            if count % 2:
                out.append(Violation(
                    D_SQUARED,
                    f"d^2({g.name}) contains U^{power}*{end}"))
    if out:
        return out

    # Vertical homology: the i-preserving slice at i = 0.  Each generator g
    # contributes U^{i_g} g in grading M(g) - 2 i_g; a term survives the
    # slice exactly when its translated U power i_s - i_t + n is zero.
    dims = f2.graded_homology_dims(
        {g.name: g.maslov - 2 * g.i for g in C.generators},
        ((t.source, t.target) for t in C.terms
         if t.upower + gens[t.source].i - gens[t.target].i == 0))
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
    gens = [Generator(g.name, -g.i, -g.j, -g.maslov) for g in C.generators]
    terms = [DiffTerm(t.target, t.source, t.upower) for t in C.terms]
    return BifilteredComplex(gens, terms, f"dual({C.label})")


def tensor(C1: BifilteredComplex, C2: BifilteredComplex) -> BifilteredComplex:
    """Tensor product over F2[U] with the Leibniz differential.

    Generator g*h sits at the componentwise sum of positions and gradings;
    ordering is by factor index pairs, so the result is deterministic.
    """
    gens = [
        Generator(f"{g.name}*{h.name}", g.i + h.i, g.j + h.j, g.maslov + h.maslov)
        for g in C1.generators
        for h in C2.generators
    ]
    terms = []
    for t in C1.terms:
        for h in C2.generators:
            terms.append(DiffTerm(f"{t.source}*{h.name}", f"{t.target}*{h.name}", t.upower))
    for g in C1.generators:
        for t in C2.terms:
            terms.append(DiffTerm(f"{g.name}*{t.source}", f"{g.name}*{t.target}", t.upower))
    return BifilteredComplex(gens, terms, f"tensor({C1.label}, {C2.label})")
