"""Bifiltered chain complexes over F2 with a formal U variable.

A complex is a finite generator list, each generator carrying a filtration
position (i, j) and a Maslov grading, together with differential terms
U^n: source -> target.  U drops both filtration slots by one and the grading
by two, which forces M(source) - 1 = M(target) - 2n on every term.  The
knot-type condition (vertical homology one-dimensional, in grading zero)
is part of validation because every invariant downstream assumes it.

``staircase`` builds an L-space knot's complex from the decreasing
exponents of its Alexander polynomial, which cfk.expr reads off the knot's
semigroup; it refuses a tuple that is no such exponent list.

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

``C.repeats()`` decides once per complex whether its index is sound: it
is True when a generator name or a (source, target) pair repeats.  Where
the build already knows it, the build seeds it: ``loads`` and
``staircase`` as False, ``dual`` as its source's flag, and ``tensor`` of
two factors with a verdict of () by a look at the product's names alone
(see ``tensor``).  A complex that repeats either always has a positional
violation (a repeated name, a term repeated at one U power or, at two
powers, a grading mismatch): ``validate`` reports it, and every
invariant refuses it with validate's first message.  ``dumps`` refuses
only what would not read back.  ``validate`` and ``dumps`` check a
complex in one pass over its term positions, and build a set of names or
terms only when it repeats.  A complex built from columns can hold one
name at two positions (a tensor with a factor that repeats a name);
``validate`` reads such an end as the name's last declaration, as the
record constructor does.

Every slice of a complex is read through one walk.  Each complex keeps
in its memo its term positions grouped by source (``_terms_by_source``)
and each generator's vertical grading M - 2i and Alexander grading
(``_level_columns``).  ``_slice_columns`` builds the columns of one slice
map from the terms out of the sources it is given, and
``_slice_homology`` reduces a slice block by block with f2.pairs.
validate's vertical stage reads the vertical slice with one block per
grading, HFK-hat in cfk.invariants with one block per (Alexander
grading, grading) pair, and tau and nu walk only the terms out of the
gradings they pair.

``validate`` runs in two stages: the positional stage (the structural
checks by position, then d^2 = 0 by per-end int sets), then the vertical
homology.  It reports each failure as a Violation, a NamedTuple of a kind
and a message.  validate's whole answer is the complex's verdict
(``verdict(C)``, and ``validate(C)`` is ``list(verdict(C))``), kept next
to its repeat flag for every complex, so each stage runs at most once.
``staircase`` seeds it as valid, ``dual`` inherits a valid one, and
``tensor`` seeds it as valid when both factors' verdicts are and the
product's names do not repeat; ``loads`` and the record constructor
leave it to the first call.  The V ladder in cfk.invariants reads it
before it builds a level, so a built complex is never checked, and any
other is checked once.  ``dual(C)`` is kept in C's memo, so C has one
mirror.
"""
from __future__ import annotations

import functools
import operator
from collections.abc import Sequence
from itertools import count, repeat
from typing import NamedTuple

from . import f2
from .errors import ValidationError

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
               repeats: bool | None) -> None:
        alexander = list(map(operator.sub, j, i))
        self._index = Index(names, i, j, maslov, powers, sources, targets,
                            (min(alexander, default=0), max(alexander, default=0)))
        self._generators: tuple[Generator, ...] | None = None
        self._terms: tuple[DiffTerm, ...] | None = None
        self._repeats = repeats
        self._verdict: tuple[Violation, ...] | None = None
        self.label = label
        # The term table, the grading columns and the results of
        # cfk.invariants for this complex, keyed by (function, args).
        self._memo: dict[tuple, object] = {}

    @classmethod
    def from_columns(cls, names: Sequence[str], i: Sequence[int], j: Sequence[int],
                     maslov: Sequence[int], powers: Sequence[int], sources: list[int],
                     targets: list[int], label: str = "",
                     clean: bool = False) -> BifilteredComplex:
        """A complex stored as its index alone.  Every source and target
        must be a generator position; clean seeds repeats() as False,
        which the caller asserts: no name and no (source, target) pair
        repeats."""
        C = cls.__new__(cls)
        C._setup(names, i, j, maslov, powers, sources, targets, label,
                 False if clean else None)
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

    def repeats(self) -> bool:
        """Whether a generator name or a (source, target) pair repeats,
        decided on the first call unless the build seeded it."""
        if self._repeats is None:
            x = self.index()
            width = len(x.names)  # one int per pair
            pairs = map(operator.add, map(operator.mul, x.sources, repeat(width)), x.targets)
            self._repeats = len(set(x.names)) < width or len(set(pairs)) < len(x.sources)
        return self._repeats

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
    """Structural checks plus the knot-type condition: ``list(verdict(C))``.

    Returns an empty list when C is a valid knot-like complex.
    """
    return list(verdict(C))


def verdict(C: BifilteredComplex) -> tuple[Violation, ...]:
    """validate's answer on C: () when C is a valid knot-like complex, else
    the violations validate reports.

    It runs in two stages, the second only once the first passes, since a
    deeper check would crash or lie on malformed input: the positional
    stage (the structure, then d^2 = 0) and the vertical homology.  The
    answer is kept on C, so each stage runs at most once per complex.
    staircase seeds it as (), dual of a complex whose verdict is ()
    inherits it, and so does tensor of two such factors when the product's
    names do not repeat: filtration, gradings, U powers and d^2 = 0 carry
    over, and by Kunneth and duality the vertical homology is again F2 in
    grading 0.  loads and the record constructor leave it to the first
    call.  A verdict of () means C.repeats() is False: a repeated name is
    a violation, and a repeated (source, target) pair is one too, at one U
    power a repeated term and at two a grading mismatch.
    """
    if C._verdict is None:
        C._verdict = tuple(_positional_stage(C) or _vertical_stage(C))
    return C._verdict


def _vertical_stage(C: BifilteredComplex) -> list[Violation]:
    """The knot-type condition: the vertical slice's homology is F2 in
    grading 0, from one block per grading M - 2i."""
    dims = _slice_homology(C, C.index().i, list(zip(repeat(0), _level_columns(C)[0])))
    if dims == {(0, 0): 1}:
        return []
    return [Violation(VERTICAL_HOMOLOGY,
                      f"vertical homology has total dimension {sum(dims.values())} at "
                      f"gradings {sorted(g for _, g in dims)} (want dimension 1 at grading 0)")]


def _positional_stage(C: BifilteredComplex) -> list[Violation]:
    """The structural checks, then d^2 = 0 once those pass.

    The structural checks are one pass over the index: repeated names in
    declaration order, then each term in order for a repeat, a negative U
    power, its filtration and its grading.  The name and term sets are
    built only when C.repeats(); without a repeated name the name scan
    would find nothing and the remap to last declarations would change no
    end, and without a repeated pair no term repeats.

    d^2 = 0 is checked over F2 per end generator: each generator's set of
    ends reached by an odd number of two-step paths is the symmetric
    difference of its targets' target sets, and what is left is reported
    in name order.  Once every term is homogeneous (M(s) - 1 = M(t) - 2n),
    a path s -> e has U power (M(e) - M(s) + 2) / 2, so the end fixes it.
    The sets hold plain ints: a bitmask column per generator, as wide as
    its largest target, would take about n^2/16 bytes over n generators.
    """
    names, I, J, M, powers, sources, targets, _ = C.index()
    out: list[Violation] = []
    # Terms are keyed by their names: one name can sit at two positions.
    term_seen: set[tuple[str, str, int]] | None = None
    if C.repeats():
        seen: set[str] = set()  # set.add returns None: each new name is added and passed
        out += [Violation(DUPLICATE_NAME, f"generator name {name!r} declared twice")
                for name in names if name in seen or seen.add(name)]
        # An end stands for the last declaration of its name, as in the
        # record constructor; a complex built from columns may point at another.
        last = dict(zip(names, count()))
        sources = [last[names[s]] for s in sources]
        targets = [last[names[t]] for t in targets]
        term_seen = set()
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


def _numbered(positions: list[int], start: int = 0) -> dict[int, int]:
    """Each position -> its place in the list, counted from start."""
    return dict(zip(positions, range(start, start + len(positions))))


@memoized
def _terms_by_source(C: BifilteredComplex) -> list[list[int]]:
    """Each generator's term positions, by source position, in term order."""
    index = C.index()
    by_source: list[list[int]] = [[] for _ in index.names]
    for q, s in enumerate(index.sources):
        by_source[s].append(q)
    return by_source


@memoized
def _level_columns(C: BifilteredComplex) -> tuple[list[int], list[int]]:
    """M - 2i and the Alexander grading A = j - i of each generator, by
    position: M - 2i is g's grading in the vertical slice, and level k of
    cfk.invariants' a_minus grades g as M - 2i - 2(A - k) when A > k, else
    M - 2i."""
    index = C.index()
    return ([m - 2 * i for m, i in zip(index.maslov, index.i)],
            [j - i for i, j in zip(index.i, index.j)])


def _slice_columns(C: BifilteredComplex, sources: list[int], shift: Sequence[int],
                   bit: dict[int, int]) -> list[int]:
    """For each position s in sources, the int column of the U = 0 slice's
    map from s to the positions numbered in bit (one grading), with bit
    bit[t] for target t: the slice moves g to U^{shift[g]} g and keeps a
    term U^n: s -> t when n + shift[s] == shift[t].  Only the terms out of
    sources are read, through ``_terms_by_source``.  Callers pass a complex
    that repeats no (source, target) pair: a repeated term would set its
    bit once."""
    index = C.index()
    targets, powers, by_source = index.targets, index.powers, _terms_by_source(C)
    columns = []
    for s in sources:
        lift, column = shift[s], 0
        for q in by_source[s]:
            t = targets[q]
            if t in bit and powers[q] + lift == shift[t]:
                column |= 1 << bit[t]
        columns.append(column)
    return columns


def _slice_homology(C: BifilteredComplex, shift: Sequence[int],
                    key: Sequence[tuple[int, int]]) -> dict[tuple[int, int], int]:
    """Nonzero homology dimensions, by key, of the U = 0 slice that moves g
    to U^{shift[g]} g, cut into blocks: g is in block key[g] = (a, grading),
    and block (a, g) maps into block (a, g - 1) alone, so a kept term into
    any other block is dropped.  Each block's columns come from
    ``_slice_columns`` and f2.pairs reduces them; dim = size - rank out -
    rank in.  Keys appear in the order of their first generator."""
    blocks: dict[tuple[int, int], list[int]] = {}
    for p, k in enumerate(key):
        blocks.setdefault(k, []).append(p)
    dims = {k: len(members) for k, members in blocks.items()}
    for (a, g), members in blocks.items():
        below = blocks.get((a, g - 1))
        if below:
            columns = _slice_columns(C, members, shift, _numbered(below))
            f2.pairs(columns, len(below))
            rank = len(columns) - columns.count(0)
            dims[a, g] -= rank
            dims[a, g - 1] -= rank
    return {k: h for k, h in dims.items() if h}


def require_valid(C: BifilteredComplex) -> BifilteredComplex:
    violations = validate(C)
    if violations:
        raise ValidationError(violations)
    return C


def staircase(exponents: Sequence[int], prefix: str = "x",
              label: str | None = None) -> BifilteredComplex:
    """Staircase complex of an L-space knot, from the decreasing exponents
    a_0 > ... > a_{2m} of its Alexander polynomial (cfk.expr's
    ``lspace_exponents``).  A tuple of even length, not strictly
    decreasing, or not symmetric about 0 raises ValueError.

    Generator 0 sits at (0, a_0) and the walk alternates rightward steps
    (odd generators, arrow sources) and downward steps; every arrow has U
    power zero and the Maslov grading alternates 0, 1 starting from M = 0
    at the top left.
    """
    exps = tuple(exponents)
    if (len(exps) % 2 == 0 or any(map(operator.le, exps, exps[1:]))
            or exps != tuple(map(operator.neg, reversed(exps)))):
        raise ValueError(f"not the exponents of an L-space staircase: {exps}")
    if label is None:
        label = f"staircase{exps}"
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
    return staircase((0,), prefix=prefix, label="unknot")


@memoized
def dual(C: BifilteredComplex) -> BifilteredComplex:
    """Mirror complex: positions and gradings negated, arrows reversed.

    It is kept in C's memo, so each complex has one mirror.  The mirror
    has C's names and C's pairs reversed, so it repeats what C repeats: it
    takes C's repeat flag as it stands, and C's verdict when that is
    valid (its vertical homology is the dual of C's).  It holds no
    reference to C."""
    x = C.index()
    neg = operator.neg
    D = BifilteredComplex.from_columns(
        x.names, list(map(neg, x.i)), list(map(neg, x.j)), list(map(neg, x.maslov)),
        x.powers, x.targets, x.sources, f"dual({C.label})")
    D._repeats = C._repeats
    if C._verdict == ():
        D._verdict = ()
    return D


def tensor(C1: BifilteredComplex, C2: BifilteredComplex) -> BifilteredComplex:
    """Tensor product over F2[U] with the Leibniz differential.

    Generator g*h sits at the componentwise sum of positions and gradings;
    ordering is by factor index pairs, so the result is deterministic:
    g*h is at position p1 * n2 + p2, and the terms of C1 (each with every
    h in turn) come before those of C2 (for each g in turn).

    When both factors' verdicts are () (see ``verdict``), neither factor
    repeats a name or a pair, and neither holds a loop (s -> s), since
    M(s) - 1 = M(s) - 2n has no integer solution n.  A term of C1 times h
    and g times a term of C2 share a pair only when both terms are loops,
    so the product repeats no pair by position, and its repeat flag is
    whether its names repeat ("x" * "y*z" and "x*y" * "z" do).  Its
    verdict is () when they do not: the positional checks carry over term
    by term, and by Kunneth its vertical homology is F2 (x) F2 in grading 0.
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
    if C1._verdict == C2._verdict == ():
        names = C.index().names
        C._repeats = len(set(names)) < len(names)
        if not C._repeats:
            C._verdict = ()
    return C
