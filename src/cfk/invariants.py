"""Concordance invariants of a bifiltered complex.

Two subquotient constructions carry everything:

* ``a_minus(C, k)``: the F2[U]-subcomplex of elements whose position lands
  in {max(i, j - k) <= 0}.  Its homology has one free summand; V_k is
  minus half its grading, H_k = V_{-k}.  The rest of the module (U-torsion)
  enters no invariant here and is not computed.
* the vertical slice: the i-preserving slice at i = 0 over F2, whose
  homology is one-dimensional in grading zero on knot-type input.  tau and
  nu locate where the generator of that class survives restriction, and
  HFK-hat is the homology of its Alexander-graded pieces.

All of it runs on one reduction kernel, ``f2.pairs`` (int bitmask columns
reduced in order, pivot at the highest set bit):

* ``homology_over_U`` is a persistence pairing (Zomorodian and Carlsson,
  "Computing persistent homology", 2005).  Every term's U exponent is
  pinned by the endpoint gradings
  (exponent = (grading(target) - grading(source) + 1) / 2), so the graded
  Smith form over the PID F2[U] is the pairing of the U = 1 matrix over F2
  with rows and columns ordered by grading, and the unpaired elements give
  the free gradings.  It checks no input: a level comes from a complex
  whose verdict is valid (see below).  Only the pivot pairs are still
  checked.
* tau is one pairing of the vertical slice, grading 0 ordered by
  Alexander grading (the elder rule, see ``_vertical_pairing``).
* nu compares ranks level by level, with no representative cycle (``nu``).
* HFK-hat is ranks of the Alexander-graded pieces.

Everything here works from the complex's index (``C.index()``, see
cfk.complexes) by generator position; names are read only for messages
and for the named ``basis`` and ``terms`` of a level, which are zipped
only when a caller reads them.  A ``FreeUComplex`` is only ever a level
that ``a_minus`` makes: its gradings by position, and the term positions
every level of the complex shares, so the V ladder makes no per-level
names and ``homology_over_U`` looks up none unless a pivot pair fails.

Every refusal here that validate would also make uses validate's words.
Every entry point first reads the complex's structure record
(``C.defects()``): a repeated name or a repeated (source, target) pair
raises ValueError with the message of validate's first violation, which
such a complex always has.  The V
ladder decides the rest of validity once per complex, not per level:
before it builds a level, ``a_minus`` reads the complex's verdict
(cfk.complexes.``verdict``, validate's positional stage: U powers >= 0,
filtration, homogeneity and d^2 = 0) and raises ValueError with
validate's message for the first violation.  So V, H, nu+ and the
surgery formulas refuse what ``validate`` refuses, at every k.
``staircase``, ``dual`` and ``tensor`` seed the verdict as valid, so a
built complex pays for no check; a loaded or record-built one runs the
positional stage once, on its first level or its first refusal, and
keeps the result even when it refuses.  tau, nu, epsilon and HFK-hat read
no verdict on a complex with a clean structure record: on one that
validate refuses they may return numbers.  tau and HFK-hat read the
complex's vertical slice; nu builds the U = 0 slices of A^-_k.  Each
slice is gradings plus the source and target positions of its terms.

Each complex object keeps a private memo of its checked index, the free
gradings of each level, the vertical slice and pairing, nu, the HFK-hat
table and its mirror (``dual``), so every report reduces a given
(complex, k) once, and epsilon and the genus report's nu+ of the mirror
read one mirror complex.  V outside the Alexander range reads the
boundary level (see ``V``).  V_{-k} = V_k + k is not used as a shortcut:
it stays a check on the computed table.
"""
from __future__ import annotations

import operator
from collections.abc import Sequence
from itertools import compress

from . import f2
from .complexes import (NO_DEFECTS, BifilteredComplex, Index, dual, memoized,
                        shifted_slice, verdict, vertical_slice)
from .errors import KnotTypeError, PreconditionError


class FreeUComplex:
    """One level of a complex as a finitely generated free graded complex
    over F2[U], as a_minus makes it.

    names are the complex's generator names, grading the level's by
    position, and sources and targets the term positions that every level
    of the complex shares.  basis entries are (name, grading); terms are
    (source, target, exponent) meaning d(source) contains
    U^exponent * target, where the exponent
    (grading(target) - grading(source) + 1) / 2 is pinned by homogeneity.
    Both are made the first time each is read, and only the tests,
    cfk.oracle and bench/tracing.py read them: the V ladder reads the
    gradings and positions.
    """
    __slots__ = ("_basis", "_terms", "_names", "_grading", "_sources", "_targets")

    def __init__(self, names: Sequence[str], grading: list[int], sources: list[int],
                 targets: list[int]) -> None:
        self._names, self._grading, self._sources, self._targets = (
            names, grading, sources, targets)
        self._basis = self._terms = None

    @property
    def basis(self) -> tuple[tuple[str, int], ...]:
        if self._basis is None:
            self._basis = tuple(zip(self._names, self._grading))
        return self._basis

    @property
    def terms(self) -> tuple[tuple[str, str, int], ...]:
        if self._terms is None:
            name, grading = self._names.__getitem__, self._grading
            self._terms = tuple((name(s), name(t), (grading[t] - grading[s] + 1) // 2)
                                for s, t in zip(self._sources, self._targets))
        return self._terms

    def __repr__(self) -> str:
        return f"FreeUComplex(basis={self.basis!r}, terms={self.terms!r})"


@memoized
def _index(C: BifilteredComplex) -> Index:
    """C's index, once C.defects() shows no repeated name and no repeated
    (source, target) pair; a complex with either raises ValueError with
    validate's first message (such a complex always has one)."""
    if C.defects() != NO_DEFECTS:
        raise ValueError(verdict(C)[0].message)
    return C.index()


def _shift(index: Index, k: int) -> list[int]:
    """max(i, j - k) per generator: the U power that moves it into A^-_k."""
    return [i if i > j - k else j - k for i, j in zip(index.i, index.j)]


def a_minus(C: BifilteredComplex, k: int) -> FreeUComplex:
    """Free F2[U]-model of C{max(i, j - k) <= 0}.

    The basis element for g is U^{c_g} g with c_g = max(i_g, j_g - k), in
    grading M(g) - 2 c_g, by position; a term U^n: s -> t turns into
    exponent n + c_s - c_t, which is (grading(t) - grading(s) + 1) / 2
    since M(s) - 1 = M(t) - 2n, so the level keeps only the gradings.

    C's verdict (cfk.complexes.verdict) is read first: a complex that
    validate's positional stage refuses raises ValueError with validate's
    message for its first violation, at every k.  On a complex that passes, every level is a homogeneous subcomplex
    with d^2 = 0, and each exponent is nonnegative, since n >= 0 and a
    term lowers neither i nor j.
    """
    index = _index(C)
    refused = verdict(C)
    if refused:
        raise ValueError(refused[0].message)
    grading = [m - 2 * c for m, c in zip(index.maslov, _shift(index, k))]
    return FreeUComplex(index.names, grading, index.sources, index.targets)


def homology_over_U(x: FreeUComplex) -> tuple[int, ...]:
    """Gradings of the free summands of H_*(x) over F2[U], highest first.

    Every entry's U exponent is pinned by the gradings, so the graded Smith
    form over F2[U] is the persistence pairing of the U = 1 matrix with its
    rows ordered by grading (Zomorodian-Carlsson, "Computing persistent
    homology", 2005).  Basis element r is the r-th in descending grading,
    ties in basis order, and column s is an int whose bit t is the entry
    d(s) -> t, so the highest set bit is the lowest-grading,
    minimal-exponent target.  f2.pairs reduces the columns in order: while
    an earlier column owns the pivot bit, it is XORed in, which is the
    basis change s -> s + U^f s' with f >= 0.

    Each pair (pivot target t, source s) takes t and s out of the free
    part: it is torsion or cancels, and V never reads it, so nothing of it
    is kept.  An element whose reduced column is zero and that is no pivot
    is a free generator, and its grading is returned.

    x is a level that a_minus made, so it is homogeneous and d^2 = 0: that
    was decided once for the complex, and nothing here checks it again.
    One guard stays.  Every reduced column is zero or owns a pivot, so a
    pair is clean unless its target owns a pivot too or its source is
    another pair's target, and either makes some pair's target own a
    pivot: one pass over the owners finds whether any pair fails, and the
    first failing pair raises ValueError.  Names are read only then.
    """
    names, grading = x._names, x._grading
    n = len(grading)
    order = sorted(range(n), key=grading.__getitem__, reverse=True)
    rank = [0] * n
    for r, p in enumerate(order):
        rank[p] = r
    grading = list(map(grading.__getitem__, order))
    reduced = [0] * n
    for s, t in zip(x._sources, x._targets):
        reduced[rank[s]] |= 1 << rank[t]

    owner = f2.pairs(reduced)
    is_target = [False] * n
    for lead in owner:
        is_target[lead - 1] = True
    if any(reduced[lead - 1] for lead in owner):
        # Report the first failing pair in (exponent, source name, target name) order.
        *_key, t = min((grading[t] - grading[s], names[order[s]], names[order[t]], t)
                       for t, s in ((lead - 1, s) for lead, s in owner.items())
                       if reduced[t] or is_target[s])
        if reduced[t]:
            raise ValueError("column of the cancelled target is nonzero; "
                             "input differential does not square to zero")
        raise ValueError("row of the cancelled source is nonzero; "
                         "input differential does not square to zero")

    return tuple(m for m, c, pivot in zip(grading, reduced, is_target) if not c and not pivot)


def V(C: BifilteredComplex, k: int) -> int:
    """V_k: minus half the grading of the free part of H(A^-_k).

    Only levels in the Alexander range [A_min, A_max] of C are reduced, and
    only they are memoized, so a long-lived complex asked for any k holds
    at most one entry per level.  For k >= A_max every shift max(i, j - k)
    is i, so a_minus(C, k) is the very complex at A_max.  For k <= A_min
    every shift is j - k, so it is the complex at A_min with every grading
    moved by 2(k - A_min): the same exponents, the same order, hence the
    same pairs and errors, and free gradings moved by 2(k - A_min).  So
    V_k = V_{A_max} above the range and V_k = V_{A_min} + A_min - k below
    it, exactly, and the checks below see the gradings that H(A^-_k)
    itself has.
    """
    lo, hi = _index(C).alexander_range
    move = 2 * min(k - lo, 0)
    free = [d + move for d in _free_gradings(C, min(max(k, lo), hi))]
    if len(free) != 1:
        raise KnotTypeError(
            f"H(A^-_{k}) has free rank {len(free)}, complex is not knot-type")
    d = free[0]
    if d > 0 or d % 2:
        raise KnotTypeError(f"free grading {d} of H(A^-_{k}) is not even <= 0")
    return -d // 2


@memoized
def _free_gradings(C: BifilteredComplex, k: int) -> tuple[int, ...]:
    return homology_over_U(a_minus(C, k))


def H(C: BifilteredComplex, k: int) -> int:
    """H_k = V_{-k}; the j-side twin of V_k."""
    return V(C, -k)


def nu_plus(C: BifilteredComplex) -> int:
    """Least k >= 0 with V_k = 0, found by stepping k <- k + V_k from k = 0.

    The step is exact: V_{k+1} >= V_k - 1, so V_{k+j} >= V_k - j > 0 for
    every j < V_k and no level below k + V_k can vanish.  The levels probed
    are a subset of the forward scan's 0..nu_plus; on two-strand torus
    knots there are about log2 of the genus of them.
    """
    cap = max(C.max_alexander, 0) + 1
    k = 0
    v = V(C, k)
    while v > 0:
        k += v
        if k > cap:
            raise KnotTypeError("V_k failed to vanish by the genus bound")
        v = V(C, k)
    return k


def _slice(C: BifilteredComplex,
           k: int | None = None) -> tuple[list[int], list[int], list[int]]:
    """vertical_slice(C) when k is None, else the U = 0 slice of A^-_k
    (see shifted_slice: g moved to U^{c_g} g, c_g = max(i_g, j_g - k))."""
    index = _index(C)
    return vertical_slice(C) if k is None else shifted_slice(index, _shift(index, k))


def _numbered(positions: list[int], start: int = 0) -> dict[int, int]:
    """Each position -> its place in the list, counted from start."""
    return dict(zip(positions, range(start, start + len(positions))))


@memoized
def _vertical_pairing(C: BifilteredComplex) -> tuple[int, list[int], list[int]]:
    """tau, the vertical slice's grading-0 elements in ascending Alexander
    grading (ties in basis order), and the boundaries from grading 1
    reduced by f2.pairs, with bit r for the r-th of those elements.

    The grading-0 rows and columns take that one order.  The pivots of the
    boundaries into grading 0 are the leads of the boundaries; the columns
    of the map out of grading 0 that reduce to zero are the leads of the
    cycles.  A cycle lead that is no boundary lead is born at its Alexander
    grading and never dies (the elder rule).  On knot-type input there is
    exactly one, the generator of the vertical homology, and tau is its
    Alexander grading.
    """
    index = _index(C)
    grading, sources, targets = _slice(C)
    alexander = list(map(operator.sub, index.j, index.i))
    zero = sorted((p for p, m in enumerate(grading) if m == 0), key=alexander.__getitem__)
    row = _numbered(zero)
    column, bit = (_numbered([p for p, m in enumerate(grading) if m == g]) for g in (1, -1))
    into = [0] * len(column)
    down = [0] * len(zero)
    for s, t in zip(sources, targets):
        if grading[s] == 1 and grading[t] == 0:
            into[column[s]] |= 1 << row[t]
        elif grading[s] == 0 and grading[t] == -1:
            down[row[s]] |= 1 << bit[t]
    boundary = f2.pairs(into)
    f2.pairs(down)
    born = [p for r, p in enumerate(zero) if not down[r] and r + 1 not in boundary]
    if len(born) != 1:
        count = f"{len(born)} grading-zero generators" if born else "no grading-zero generator"
        raise KnotTypeError(f"vertical homology has {count}; complex is not knot-type")
    return alexander[born[0]], zero, into


def tau(C: BifilteredComplex) -> int:
    """Least k such that the vertical homology generator is homologous to a
    cycle supported in Alexander gradings <= k (see _vertical_pairing)."""
    return _vertical_pairing(C)[0]


@memoized
def nu(C: BifilteredComplex) -> int:
    """Least k >= tau such that some cycle of the U = 0 slice of A^-_k
    projects to the vertical homology generator's class.

    With D_A the slice's boundary map from grading 0, D_v the vertical
    boundary map into grading 0 and P_k the projection of the slice's
    grading-0 elements onto the vertical ones with Alexander grading <= k,
    the cycles of the slice hit the generator exactly when
    rank [[D_A, 0], [P_k, D_v]] - rank D_A > rank D_v.  D_v comes reduced
    from _vertical_pairing, and a slice column carries D_A above the
    vertical bits, so one f2.pairs over both counts the left side as its
    pivots among the vertical bits.  On knot-type input the loop stops at
    tau or tau + 1.
    """
    least, zero, into = _vertical_pairing(C)
    boundaries = [c for c in into if c]
    index = _index(C)
    width = len(zero)
    for k in range(least, index.alexander_range[1] + 1):
        grading, sources, targets = _slice(C, k)
        bit = _numbered([p for p, m in enumerate(grading) if m == -1], width)
        cols = dict.fromkeys([p for p, m in enumerate(grading) if m == 0], 0)
        # P_k: an element with Alexander grading <= k has shift i, so the
        # vertical grading-0 ones up to k (a prefix of zero) are in grading 0.
        for r, p in enumerate(zero):
            if index.j[p] - index.i[p] > k:
                break
            cols[p] = 1 << r
        for s, t in zip(sources, targets):
            if grading[s] == 0 and grading[t] == -1:
                cols[s] |= 1 << bit[t]
        hits = f2.pairs(boundaries + list(cols.values()))
        if sum(lead <= width for lead in hits) > len(boundaries):
            return k
    raise KnotTypeError("nu scan found no supporting level")


def epsilon(C: BifilteredComplex) -> int:
    """Concordance sign: -1 when nu(C) = tau(C) + 1, +1 when the mirror
    jumps instead, 0 when neither does."""
    jumps_here = nu(C) == tau(C) + 1
    Cd = dual(C)
    jumps_mirror = nu(Cd) == tau(Cd) + 1
    if jumps_here and jumps_mirror:
        raise PreconditionError(
            "epsilon is ill-defined: both the complex and its mirror jump")
    if jumps_here:
        return -1
    if jumps_mirror:
        return 1
    return 0


def hfk_hat(C: BifilteredComplex) -> dict[tuple[int, int], int]:
    """Bigraded homology ranks of the associated graded object, keyed by
    (alexander, maslov); only nonzero ranks appear.  The table is computed
    once per complex; each call hands out a copy."""
    return dict(_hfk_table(C))


@memoized
def _hfk_table(C: BifilteredComplex) -> dict[tuple[int, int], int]:
    index = _index(C)
    grading, sources, targets = _slice(C)
    alexander = [j - i for i, j in zip(index.i, index.j)]
    keep = [alexander[s] == alexander[t] for s, t in zip(sources, targets)]
    return f2.graded_homology_dims(list(zip(alexander, grading)),
                                   compress(sources, keep), compress(targets, keep))


def seifert_genus(C: BifilteredComplex) -> int:
    """Top Alexander grading carrying nonzero associated-graded homology."""
    table = hfk_hat(C)
    if not table:
        raise KnotTypeError("associated-graded homology vanished entirely")
    return max(a for (a, _m) in table)
