"""Bifiltered chain complexes over F2 with a formal U variable.

A complex is a finite generator list, each generator carrying a filtration
position (i, j) and a Maslov grading, together with differential terms
U^n: source -> target.  U drops both filtration slots by one and the grading
by two, which forces M(source) - 1 = M(target) - 2n on every term.  The
knot-type condition (vertical homology one-dimensional, in grading zero)
is part of validation because every invariant downstream assumes it.

A complex is stored as its index (``C.index()``): the generator names and
(i, j, M) columns, every term's U power, each term's source and target as
a generator position, and the Alexander range.  ``staircase``, ``dual``,
``tensor`` and cfk.cfkfile's ``loads`` build those columns directly
(``BifilteredComplex.from_columns``), so the only per-generator objects
they make are the names.  ``validate``, every invariant in cfk.invariants
and ``dumps`` work from the positions.

``C.generators`` and ``C.terms`` are tuples of Generator and DiffTerm
NamedTuples.  A complex built from columns makes them from the columns the
first time one is read; a complex built from records
(``BifilteredComplex(generators, terms)``) keeps them and builds its index
when it is made.  There, a term whose source or target names no generator
raises ValueError, for the first such term in term order, so every
complex's terms name its own generators.  A repeated name stands for its
last declaration.

``first_defects`` decides once per complex whether its index is sound:
``C.defects()`` keeps the position of the first repeated name and of the
first repeated (source, target) pair, or None for each.  Where the build
already knows it, the build seeds it: ``loads`` and ``staircase`` as
NO_DEFECTS, ``dual`` as its source's record, and ``tensor`` of two clean
factors by a search of the product's names alone (see ``tensor``).  A
complex with either defect always has a positional violation (a repeated
name, a term repeated at one U power or, at two powers, a grading
mismatch): ``validate`` reports it, and every invariant refuses it with
validate's first message.  ``dumps`` refuses
only what would not read back.  ``validate`` and ``dumps`` check a
complex, defective or not, in one pass over its term positions, and
build a set of names or terms only when the record holds a repeat.  A
complex built from columns can hold one name at two positions (a tensor
with a factor that repeats a name); ``validate`` reads such an end as the
name's last declaration, as the record constructor does.  The vertical
slice is likewise built once per complex (``vertical_slice``), for
validate, tau and HFK-hat.

``validate`` runs in two stages: the positional stage (the structural
checks by position, then d^2 = 0 by per-end int sets), then the vertical
homology.  It reports each failure as a Violation, a NamedTuple of a kind
and a message.  The positional stage's result is the complex's verdict
(``verdict(C)``), kept next to its structure record for every complex.
``staircase`` seeds it as valid, ``dual`` inherits a valid one, and
``tensor`` seeds it as valid when both factors' verdicts are and the
product's record is clean; ``loads`` and the record constructor leave it
to the first call.  The V ladder in cfk.invariants reads it before it
builds a level, so a built complex is never checked, and any other is
checked once.  ``dual(C)`` is kept in C's memo, so C has one mirror.
"""
from __future__ import annotations

import functools
import operator
from collections.abc import Hashable, Iterable, Sequence
from itertools import compress, count, repeat
from typing import NamedTuple

from . import f2
from .errors import ValidationError
from .laurent import LaurentPoly, is_lspace_form

# Violation kinds reported by validate().
DUPLICATE_NAME = "duplicate-name"
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


class Violation(NamedTuple):
    kind: str
    message: str


class Index(NamedTuple):
    """A complex by generator position: the generators' columns, every
    term's U power, each term's source and target position, and the least
    and greatest Alexander grading j - i (0 and 0 without generators)."""
    names: Sequence[str]
    i: Sequence[int]
    j: Sequence[int]
    maslov: Sequence[int]
    powers: Sequence[int]
    sources: list[int]
    targets: list[int]
    alexander_range: tuple[int, int]


class Defects(NamedTuple):
    """The positions of the first repeated generator name and of the first
    repeated (source, target) pair."""
    repeated_name: int | None
    repeated_pair: int | None


NO_DEFECTS = Defects(None, None)


def first_defects(names: Sequence[str], sources: Sequence[int],
                  targets: Sequence[int]) -> Defects:
    """The Defects (None where none) of an index's names and term positions:
    a set size per kind, and a search only if it shows a repeat."""
    width = len(names)  # one int per pair

    def pairs() -> Iterable[int]:
        return map(operator.add, map(operator.mul, sources, repeat(width)), targets)

    return Defects(_repeated_name(names),
                   _first_repeat(pairs()) if len(set(pairs())) < len(sources) else None)


def _repeated_name(names: Sequence[str]) -> int | None:
    """The position of the first repeated name, or None: a set size, and a
    search only if it shows a repeat."""
    return _first_repeat(names) if len(set(names)) < len(names) else None


def _first_repeat(items: Iterable[Hashable]) -> int:
    """The position of the first item equal to an earlier one (there is one)."""
    seen: set[Hashable] = set()  # set.add returns None: each new item is added and passed
    return next(p for p, item in enumerate(items) if item in seen or seen.add(item))


class BifilteredComplex:
    def __init__(self, generators, terms, label: str = ""):
        """A complex from Generator and DiffTerm records.  The first term
        whose source or target names no generator raises ValueError."""
        generators, terms = tuple(generators), tuple(terms)
        names, i, j, maslov = tuple(zip(*generators)) or ((),) * 4
        source_names, target_names, powers = tuple(zip(*terms)) or ((),) * 3
        position = dict(zip(names, range(len(names))))
        sources = list(map(position.get, source_names))
        targets = list(map(position.get, target_names))
        if None in sources or None in targets:
            source, target, n = next(term for term, s, t in zip(terms, sources, targets)
                                     if s is None or t is None)
            missing = target if source in position else source
            raise ValueError(
                f"term U^{n} {source!r}->{target!r} references unknown generator {missing!r}")
        self._setup(names, i, j, maslov, powers, sources, targets, label, None)
        self._generators, self._terms = generators, terms

    def _setup(self, names, i, j, maslov, powers, sources, targets, label: str,
               defects: Defects | None) -> None:
        alexander = list(map(operator.sub, j, i))
        self._index = Index(names, i, j, maslov, powers, sources, targets,
                            (min(alexander, default=0), max(alexander, default=0)))
        self._generators: tuple[Generator, ...] | None = None
        self._terms: tuple[DiffTerm, ...] | None = None
        self._defects = defects
        self._verdict: tuple[Violation, ...] | None = None
        self.label = label
        # The vertical slice and the results of cfk.invariants for this
        # complex, keyed by (function, args).
        self._memo: dict[tuple, object] = {}

    @classmethod
    def from_columns(cls, names: Sequence[str], i: Sequence[int], j: Sequence[int],
                     maslov: Sequence[int], powers: Sequence[int], sources: list[int],
                     targets: list[int], label: str = "",
                     clean: bool = False) -> BifilteredComplex:
        """A complex stored as its index alone.  Every source and target
        must be a generator position; clean seeds defects() as NO_DEFECTS,
        which the caller asserts: no name and no (source, target) pair
        repeats."""
        C = cls.__new__(cls)
        C._setup(names, i, j, maslov, powers, sources, targets, label,
                 NO_DEFECTS if clean else None)
        return C

    @property
    def generators(self) -> tuple[Generator, ...]:
        if self._generators is None:
            x = self._index
            self._generators = tuple(map(tuple.__new__, repeat(Generator),
                                         zip(x.names, x.i, x.j, x.maslov)))
        return self._generators

    @property
    def terms(self) -> tuple[DiffTerm, ...]:
        if self._terms is None:
            x = self._index
            name = x.names.__getitem__
            self._terms = tuple(map(tuple.__new__, repeat(DiffTerm),
                                    zip(map(name, x.sources), map(name, x.targets), x.powers)))
        return self._terms

    def index(self) -> Index:
        """This complex by generator position."""
        return self._index

    def defects(self) -> Defects:
        """first_defects of this complex's index, found on the first call."""
        if self._defects is None:
            x = self.index()
            self._defects = first_defects(x.names, x.sources, x.targets)
        return self._defects

    @property
    def max_alexander(self) -> int:
        return self.index().alexander_range[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BifilteredComplex):
            return NotImplemented
        return (self.generators == other.generators
                and frozenset(self.terms) == frozenset(other.terms))

    def __repr__(self) -> str:
        index = self.index()
        return (f"BifilteredComplex({len(index.names)} generators, "
                f"{len(index.powers)} terms, label={self.label!r})")


def validate(C: BifilteredComplex) -> list[Violation]:
    """Structural checks plus the knot-type condition.

    Returns an empty list when C is a valid knot-like complex.  It runs in
    two stages, each only once the one before passes, since a deeper check
    would crash or lie on malformed input: the positional stage
    (``verdict``: the structure, then d^2 = 0) and the vertical homology.
    """
    out = list(verdict(C))
    if out:
        return out
    # Vertical homology: the i-preserving slice at i = 0.
    dims = f2.graded_homology_dims(*vertical_slice(C))
    if dims != {0: 1}:
        total = sum(dims.values())
        out.append(Violation(
            VERTICAL_HOMOLOGY,
            f"vertical homology has total dimension {total} at gradings "
            f"{sorted(dims)} (want dimension 1 at grading 0)"))
    return out


def verdict(C: BifilteredComplex) -> tuple[Violation, ...]:
    """validate's positional stage on C: () when C is valid but for its
    vertical homology, else the violations validate reports.

    It is kept on C, so it runs at most once per complex.  staircase seeds
    it as (), dual of a complex whose verdict is () inherits it, and so
    does tensor of two such factors when the product's structure record
    is clean, since filtration, gradings, U powers and d^2 = 0 carry over;
    loads and the record constructor leave it to the first call.  So a
    verdict of () always comes with a clean record: a tensor of valid
    factors that repeats a name is checked by name, as any complex with a
    defect is.
    """
    if C._verdict is None:
        C._verdict = tuple(_positional_stage(C))
    return C._verdict


def _positional_stage(C: BifilteredComplex) -> list[Violation]:
    """The structural checks, then d^2 = 0 once those pass.

    The structural checks are one pass over the index: repeated names in
    declaration order, then each term in order for a repeat, a negative U
    power, its filtration and its grading.  The name and term sets are
    built only when C.defects() records a repeat.

    d^2 = 0 is checked over F2 per end generator: each generator's set of
    ends reached by an odd number of two-step paths is the symmetric
    difference of its targets' target sets, and what is left is reported
    in name order.  Once every term is homogeneous (M(s) - 1 = M(t) - 2n),
    a path s -> e has U power (M(e) - M(s) + 2) / 2, so the end fixes it.
    The sets hold plain ints: a bitmask column per generator, as wide as
    its largest target, would take about n^2/16 bytes over n generators.
    """
    names, I, J, M, powers, sources, targets, _ = C.index()
    repeated_name, repeated_pair = C.defects()
    out: list[Violation] = []
    if repeated_name is not None:
        seen: set[str] = set()  # set.add returns None: each new name is added and passed
        out += [Violation(DUPLICATE_NAME, f"generator name {name!r} declared twice")
                for name in names if name in seen or seen.add(name)]
        # An end stands for the last declaration of its name, as in the
        # record constructor; a complex built from columns may point at another.
        last = dict(zip(names, count()))
        sources = [last[names[s]] for s in sources]
        targets = [last[names[t]] for t in targets]
    # Terms are keyed by their names: one name can sit at two positions.
    # With no repeated name and no repeated (source, target) pair, no term
    # repeats.
    term_seen: set[tuple[str, str, int]] | None = (
        None if repeated_name is None and repeated_pair is None else set())
    for s, t, n in zip(sources, targets, powers):
        if term_seen is not None:
            term = (names[s], names[t], n)
            if term in term_seen:
                out.append(Violation(DUPLICATE_TERM, f"term U^{n}:{names[s]}->{names[t]} repeated"))
                continue
            term_seen.add(term)
        if n < 0:
            out.append(Violation(FILTRATION, f"negative U power on {names[s]}->{names[t]}"))
        else:
            if I[t] - n > I[s] or J[t] - n > J[s]:
                out.append(Violation(FILTRATION, f"U^{n}:{names[s]}->{names[t]} raises filtration: "
                                     f"({I[t] - n},{J[t] - n}) from ({I[s]},{J[s]})"))
            if M[s] - 1 != M[t] - 2 * n:
                out.append(Violation(GRADING, f"U^{n}:{names[s]}->{names[t]} grading mismatch: "
                                     f"M={M[s]} source vs M={M[t]}-2*{n} target"))
    if out:
        return out

    outgoing: list[set[int]] = [set() for _ in names]
    for s, t in zip(sources, targets):
        outgoing[s].add(t)
    for s, ends in enumerate(outgoing):
        odd: set[int] = set()
        for mid in ends:
            odd ^= outgoing[mid]
        if odd:
            out += [Violation(D_SQUARED,
                              f"d^2({names[s]}) contains U^{(M[e] - M[s] + 2) // 2}*{names[e]}")
                    for e in sorted(odd, key=names.__getitem__)]
    return out


def shifted_slice(index: Index,
                  shift: Sequence[int]) -> tuple[list[int], list[int], list[int]]:
    """The U = 0 slice of a complex whose generator g is moved to
    U^{shift[g]} g: each generator's grading M(g) - 2 shift[g] by position,
    then the source and the target positions, in term order, of the terms
    U^n: s -> t whose translated power n + shift[s] - shift[t] is zero.
    Two int lists make no per-term objects for the garbage collector to
    track, as (source, target) tuples would."""
    grading = [m - 2 * c for m, c in zip(index.maslov, shift)]
    keep = [n + shift[s] - shift[t] == 0
            for s, t, n in zip(index.sources, index.targets, index.powers)]
    return grading, list(compress(index.sources, keep)), list(compress(index.targets, keep))


def memoized(fn):
    """Keep fn(C, *args) in C's private memo, so that each complex object
    computes it once.  A call that raises leaves nothing behind."""
    @functools.wraps(fn)
    def cached(C: BifilteredComplex, *args):
        key = (fn.__name__, *args)
        memo = C._memo
        if key not in memo:
            memo[key] = fn(C, *args)
        return memo[key]
    return cached


@memoized
def vertical_slice(C: BifilteredComplex) -> tuple[list[int], list[int], list[int]]:
    """shifted_slice of C by each generator's i: the vertical slice, read only."""
    return shifted_slice(C.index(), C.index().i)


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
    walk = [(0, exps[0], 0)]
    for idx in range(1, len(exps)):
        i, j, m = walk[-1]
        step = exps[idx - 1] - exps[idx]
        walk.append((i + step, j, m + 1) if idx % 2 == 1 else (i, j - step, m - 1))
    i, j, m = map(list, zip(*walk))
    odd = range(1, len(exps), 2)
    sources = [s for s in odd for _ in (0, 1)]
    targets = [t for s in odd for t in (s - 1, s + 1)]
    C = BifilteredComplex.from_columns(
        [f"{prefix}{idx}" for idx in range(len(exps))], i, j, m, [0] * len(sources),
        sources, targets, label, clean=True)
    C._verdict = ()
    return C


def unknot_complex(prefix: str = "x") -> BifilteredComplex:
    return staircase(LaurentPoly.one(), prefix=prefix, label="unknot")


@memoized
def dual(C: BifilteredComplex) -> BifilteredComplex:
    """Mirror complex: positions and gradings negated, arrows reversed.

    It is kept in C's memo, so each complex has one mirror.  The mirror
    has C's names and C's pairs reversed, so the same first repeats: it
    takes C's structure record as it stands, and C's verdict when that is
    valid.  It holds no reference to C."""
    x = C.index()
    neg = operator.neg
    D = BifilteredComplex.from_columns(
        x.names, list(map(neg, x.i)), list(map(neg, x.j)), list(map(neg, x.maslov)),
        x.powers, x.targets, x.sources, f"dual({C.label})")
    D._defects = C._defects
    if C._verdict == ():
        D._verdict = ()
    return D


def tensor(C1: BifilteredComplex, C2: BifilteredComplex) -> BifilteredComplex:
    """Tensor product over F2[U] with the Leibniz differential.

    Generator g*h sits at the componentwise sum of positions and gradings;
    ordering is by factor index pairs, so the result is deterministic:
    g*h is at position p1 * n2 + p2, and the terms of C1 (each with every
    h in turn) come before those of C2 (for each g in turn).

    When neither factor repeats a name or a pair, neither does the product
    by position: a term of C1 times h and g times a term of C2 share a
    pair only when both terms are loops (s -> s), so the pair record is
    seeded then, and only the product's names are searched.  Those can
    still repeat ("x" * "y*z" and "x*y" * "z").  The verdict is seeded
    valid when both factors' are and the product's record is clean.
    """
    x1, x2 = C1.index(), C2.index()
    n2 = len(x2.names)
    right = range(n2)
    bases = range(0, len(x1.names) * n2, n2)

    def ends(first: list[int], second: list[int]) -> list[int]:
        return ([p * n2 + q for p in first for q in right]
                + [base + q for base in bases for q in second])

    C = BifilteredComplex.from_columns(
        [f"{a}*{b}" for a in x1.names for b in x2.names],
        [a + b for a in x1.i for b in x2.i],
        [a + b for a in x1.j for b in x2.j],
        [a + b for a in x1.maslov for b in x2.maslov],
        [n for n in x1.powers for _ in right] + list(x2.powers) * len(x1.names),
        ends(x1.sources, x2.sources), ends(x1.targets, x2.targets),
        f"tensor({C1.label}, {C2.label})")
    if C1.defects() == C2.defects() == NO_DEFECTS and not all(
            any(map(operator.eq, x.sources, x.targets)) for x in (x1, x2)):
        C._defects = Defects(_repeated_name(C.index().names), None)
        if C1._verdict == C2._verdict == () and C._defects == NO_DEFECTS:
            C._verdict = ()
    return C
