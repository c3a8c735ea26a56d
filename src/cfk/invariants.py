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

All of it runs on one reduction (int bitmask columns reduced in order,
pivot at the highest set bit, and a pivot table that is a list indexed by
bit length), in two loops:

* ``homology_over_U`` is a persistence pairing (Zomorodian and Carlsson,
  "Computing persistent homology", 2005) with its own loop over the
  level's square matrix.  Every term's U exponent is
  pinned by the endpoint gradings
  (exponent = (grading(target) - grading(source) + 1) / 2), so the graded
  Smith form over the PID F2[U] is the pairing of the U = 1 matrix over F2
  with rows and columns ordered by grading, and the unpaired elements give
  the free gradings.  The loop clears (Chen and Kerber, "Persistent
  homology computation with a twist", 2011): a column whose row is
  already a pivot is neither built nor reduced, which is exact because
  d^2 = 0.  It checks no input: a level comes from a complex whose
  verdict is valid, d^2 = 0 included (see below).  Only the pivot pairs
  are still checked.
* ``f2.pairs`` reduces the rest, each a rectangular block that maps one
  grading into another, where no d^2 = 0 is assumed.  tau is one pairing
  of the vertical slice, grading 0 ordered by Alexander grading (the
  elder rule, see ``_vertical_pairing``).  nu compares ranks level by
  level, with no representative cycle (``nu``).  HFK-hat is ranks of the
  Alexander-graded pieces, one block per (Alexander grading, grading)
  pair (cfk.complexes.``_slice_homology``).

Everything here works from the complex's index (``C.index()``, see
cfk.complexes) by generator position; names are read only for messages
and for the named ``basis`` and ``terms`` of a level, which are zipped
only when a caller reads them.  A ``FreeUComplex`` is only ever a level
that ``a_minus`` makes: its gradings by position, and the term positions
every level of the complex shares, also grouped by source
(cfk.complexes.``_terms_by_source``), so the V ladder makes no per-level
names and ``homology_over_U`` looks up none unless a pivot pair fails.

Every refusal here that validate would also make uses validate's words.
Every entry point first asks ``C.repeats()``: a repeated name or a
repeated (source, target) pair raises ValueError with the message of
validate's first violation, which such a complex always has.  The V
ladder decides the rest of validity once per complex, not per level:
before it builds a level, ``a_minus`` reads the complex's verdict
(cfk.complexes.``verdict``, validate's whole answer: U powers >= 0,
filtration, homogeneity, d^2 = 0 and then the vertical homology) and
raises ValueError with validate's message for the first violation.  So
V, H, nu+ and the surgery formulas refuse what ``validate`` refuses, at
every k, and read each level of a knot-type complex with no check.
``staircase``, ``dual`` and ``tensor`` seed the verdict as valid, so a
built complex pays for no check; a loaded or record-built one runs
validate's stages once, on its first level or its first refusal, and
keeps the result even when it refuses.  tau, nu, epsilon and HFK-hat read
no verdict on a complex that repeats nothing: on one that validate
refuses they may return numbers.  None of them builds a whole slice.
They read the positions of the complex's terms grouped by source
(cfk.complexes.``_terms_by_source``, the one table validate's vertical
stage reads too) and walk only the terms out of the gradings they pair:
1 into 0 and 0 into -1 of the vertical slice for tau, 0 into -1 of the
U = 0 slice of A^-_k for nu at level k, and each (A, g) into (A, g - 1)
of the vertical slice for HFK-hat.  Each term still passes the slice's
own test, n + c_s = c_t for the shift c, so a complex that validate
refuses gets the numbers and errors the whole slices give; HFK-hat
drops a kept term that lands outside (A, g - 1), which only a term
against homogeneity can do.

Each complex object keeps a private memo of its checked index, the two
columns its levels are graded from, the free gradings of each level, its
term positions by source, the vertical pairing, nu, the HFK-hat table
and its mirror (``dual``), so every report reduces a
given (complex, k) once, and epsilon and the genus report's nu+ of the
mirror read one mirror complex.
V outside the Alexander range reads the boundary level (see ``V``).

Callers skip levels by two facts about V (Rasmussen's thesis): it is
nonincreasing in k, with V_{k+1} >= V_k - 1, and it is >= 0, so V_k = 0
for every k >= nu+.  nu_plus steps by the first; cfk.surgery's
``surgery_d`` reads the larger of V_a and H_b = V_{-b} as V at
min(a, -b); and the CLI's invariants report fills V_k = 0 for k >= nu+
without reducing those levels.  V_{-k} = V_k + k is not used as a
shortcut: it stays a check on the computed table.
"""
from __future__ import annotations

from collections.abc import Sequence

from . import f2
from .complexes import (BifilteredComplex, Index, _level_columns, _numbered, _slice_columns,
                        _slice_homology, _terms_by_source, dual, memoized, verdict)
from .errors import KnotTypeError, PreconditionError


class FreeUComplex:
    """One level of a complex as a finitely generated free graded complex
    over F2[U], as a_minus makes it.

    names are the complex's generator names, grading the level's by
    position, and sources and targets the term positions that every level
    of the complex shares; by_source lists each source's term positions
    (a_minus passes the complex's table, cfk.complexes.``_terms_by_source``).
    basis entries are (name, grading); terms are
    (source, target, exponent) meaning d(source) contains
    U^exponent * target, where the exponent
    (grading(target) - grading(source) + 1) / 2 is pinned by homogeneity.
    Both are made the first time each is read, and only the tests,
    cfk.oracle and bench/tracing.py read them: the V ladder reads the
    gradings and positions.
    """
    __slots__ = ("_basis", "_terms", "_names", "_grading", "_sources", "_targets", "_by_source")

    def __init__(self, names: Sequence[str], grading: list[int], sources: list[int],
                 targets: list[int], by_source: list[list[int]]) -> None:
        self._names, self._grading, self._sources, self._targets = (
            names, grading, sources, targets)
        self._by_source = by_source
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
    """C's index, once C.repeats() shows no repeated name and no repeated
    (source, target) pair; a complex with either raises ValueError with
    validate's first message (such a complex always has one)."""
    if C.repeats():
        raise ValueError(verdict(C)[0].message)
    return C.index()


def a_minus(C: BifilteredComplex, k: int) -> FreeUComplex:
    """Free F2[U]-model of C{max(i, j - k) <= 0}.

    The basis element for g is U^{c_g} g with c_g = max(i_g, j_g - k), in
    grading M(g) - 2 c_g, by position; a term U^n: s -> t turns into
    exponent n + c_s - c_t, which is (grading(t) - grading(s) + 1) / 2
    since M(s) - 1 = M(t) - 2n, so the level keeps only the gradings.
    With A = j - i, c_g = i_g + max(A_g - k, 0), so the grading is
    M - 2i, less 2(A - k) where A > k: two columns, M - 2i and A, that are
    built once per complex and kept in its memo
    (cfk.complexes.``_level_columns``).

    C's verdict (cfk.complexes.verdict) is read first: a complex that
    validate refuses raises ValueError with validate's message for its
    first violation, at every k.  On a complex that passes, every level is
    a homogeneous subcomplex with d^2 = 0, and each exponent is
    nonnegative, since n >= 0 and a term lowers neither i nor j.
    """
    index = _index(C)
    refused = verdict(C)
    if refused:
        raise ValueError(refused[0].message)
    moved, alexander = _level_columns(C)
    grading = [b - 2 * (a - k) if a > k else b for b, a in zip(moved, alexander)]
    return FreeUComplex(index.names, grading, index.sources, index.targets, _terms_by_source(C))


def homology_over_U(x: FreeUComplex) -> tuple[int, ...]:
    """Gradings of the free summands of H_*(x) over F2[U], highest first.

    Every entry's U exponent is pinned by the gradings, so the graded Smith
    form over F2[U] is the persistence pairing of the U = 1 matrix with its
    rows ordered by grading (Zomorodian-Carlsson, "Computing persistent
    homology", 2005).  Basis element r is the r-th in descending grading,
    ties in basis order, and column s is an int whose bit t is the entry
    d(s) -> t, so the highest set bit is the lowest-grading,
    minimal-exponent target.  The columns are reduced in order, the loop
    of f2.pairs: while an earlier column owns the pivot bit, it is XORed
    in, which is the basis change s -> s + U^f s' with f >= 0.  The pivot
    table has an entry per row: the column that owns the row as a pivot,
    or -1.  Rows and columns share one order, so the loop clears
    (Chen-Kerber, "Persistent homology computation with a twist", 2011;
    Bauer-Kerber-Reininghaus-Wagner, "PHAT", 2017): a column whose row an
    earlier column already owns is skipped, and every other column is
    built from x's terms by source only when the loop reaches it, so a
    skipped column is never allocated.  That is exact when d^2 = 0.  The
    reduction is R = D V with V unitriangular; if column j reduces to
    lowest row i, then D R_j = 0 puts D_i in the span of the columns
    before i, so column i reduces to zero, in any row order.  A skipped
    column counts as zero and owns no pivot.

    Each pair (pivot target t, source s) takes t and s out of the free
    part: it is torsion or cancels, and V never reads it, so nothing of it
    is kept.  An element whose reduced column is zero and that is no pivot
    is a free generator, and its grading is returned.  One pass over the
    rows reads both off the pivot table and the reduced columns.

    x is a level that a_minus made, so it is homogeneous and d^2 = 0: that
    was decided once for the complex (its verdict), and nothing here checks
    it again; clearing relies on it, and a defect that only a skipped
    column carries goes unseen.  One guard stays.  Every reduced column is
    zero or owns a pivot, so a
    pair is clean unless its target owns a pivot too or its source is
    another pair's target, and either makes some pair's target own a
    pivot.  So the same pass finds whether any pair fails: a pivot target
    whose column is nonzero.  Only then is the first failing pair looked
    for (_refuse_pairs), and names read.
    """
    grading = x._grading
    n = len(grading)
    order = sorted(range(n), key=grading.__getitem__, reverse=True)
    rank = [0] * n
    for r, p in enumerate(order):
        rank[p] = r
    targets, by_source = x._targets, x._by_source
    owner = [-1] * (n + 1)
    reduced = [0] * n
    for r, p in enumerate(order):
        if owner[r + 1] >= 0:
            continue  # cleared: row r is a pivot, so column r reduces to zero
        c = 0
        for q in by_source[p]:
            c |= 1 << rank[targets[q]]
        while c:
            lead = c.bit_length()
            o = owner[lead]
            if o < 0:
                owner[lead] = r
                reduced[r] = c
                break
            c ^= reduced[o]

    free = []
    for r, p in enumerate(order):
        if owner[r + 1] < 0:
            if not reduced[r]:
                free.append(grading[p])
        elif reduced[r]:
            _refuse_pairs(x, order, reduced, owner)
    return tuple(free)


def _refuse_pairs(x: FreeUComplex, order: list[int], reduced: list[int],
                  owner: list[int]) -> None:
    """Raise ValueError for homology_over_U's first failing pair in
    (exponent, source name, target name) order: a pair whose target owns
    a pivot too or whose source is another pair's target."""
    names, grading = x._names, x._grading
    *_key, t = min((grading[order[t]] - grading[order[s]], names[order[s]], names[order[t]], t)
                   for t, s in enumerate(owner[1:])
                   if s >= 0 and (reduced[t] or owner[s + 1] >= 0))
    if reduced[t]:
        raise ValueError("column of the cancelled target is nonzero; "
                         "input differential does not square to zero")
    raise ValueError("row of the cancelled source is nonzero; "
                     "input differential does not square to zero")


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
    it, exactly.

    a_minus reads the verdict first, so C is knot-type here: inverting U
    leaves one free tower, in an even grading <= 0.
    """
    lo, hi = _index(C).alexander_range
    (d,) = _free_gradings(C, min(max(k, lo), hi))
    return -d // 2 - min(k - lo, 0)


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
    knots there are about log2 of the genus of them.  V_k <= A_max - k,
    since V_{A_max} = 0, so the step stops by A_max.
    """
    k = 0
    v = V(C, k)
    while v > 0:
        k += v
        v = V(C, k)
    return k


@memoized
def _vertical_pairing(C: BifilteredComplex) -> tuple[int, list[int], list[int]]:
    """tau, the vertical slice's grading-0 elements in ascending Alexander
    grading (ties in basis order), and the boundaries from grading 1
    reduced by f2.pairs, with bit r for the r-th of those elements.

    The vertical slice grades g as M - 2i (the first of
    cfk.complexes.``_level_columns``) and keeps the terms whose power n + i_s - i_t is
    zero; only the terms out of gradings 1 and 0 are read.  The grading-0
    rows and columns take that one order.  The pivots of the boundaries
    into grading 0 are the leads of the boundaries; the columns of the map
    out of grading 0 that reduce to zero are the leads of the cycles.  A
    cycle lead that is no boundary lead is born at its Alexander grading
    and never dies (the elder rule).  On knot-type input there is exactly
    one, the generator of the vertical homology, and tau is its Alexander
    grading.
    """
    index = _index(C)
    grading, alexander = _level_columns(C)
    zero = sorted((p for p, m in enumerate(grading) if m == 0), key=alexander.__getitem__)
    ones, below = ([p for p, m in enumerate(grading) if m == g] for g in (1, -1))
    into = _slice_columns(C, ones, index.i, _numbered(zero))
    down = _slice_columns(C, zero, index.i, _numbered(below))
    boundary = f2.pairs(into, len(zero))
    f2.pairs(down, len(below))
    born = [p for r, p in enumerate(zero) if not down[r] and boundary[r + 1] < 0]
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
    pivots among the vertical bits.  Each level reads only the terms out
    of its grading-0 elements.  On knot-type input the loop stops at tau
    or tau + 1.
    """
    least, zero, into = _vertical_pairing(C)
    boundaries = [c for c in into if c]
    index = _index(C)
    alexander = _level_columns(C)[1]
    width = len(zero)
    for k in range(least, index.alexander_range[1] + 1):
        # g moved to U^{c_g} g, c_g = max(i_g, j_g - k)
        shift = [i if i > j - k else j - k for i, j in zip(index.i, index.j)]
        grading = [m - 2 * c for m, c in zip(index.maslov, shift)]
        bit = _numbered([p for p, m in enumerate(grading) if m == -1], width)
        level = [p for p, m in enumerate(grading) if m == 0]
        cols = dict(zip(level, _slice_columns(C, level, shift, bit)))
        # P_k: an element with Alexander grading <= k has shift i, so the
        # vertical grading-0 ones up to k (a prefix of zero) are in grading 0.
        for r, p in enumerate(zero):
            if alexander[p] > k:
                break
            cols[p] |= 1 << r
        hits = f2.pairs(boundaries + list(cols.values()), width + len(bit))
        if width - hits[1:width + 1].count(-1) > len(boundaries):
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
    grading, alexander = _level_columns(C)
    return _slice_homology(C, index.i, list(zip(alexander, grading)))


def seifert_genus(C: BifilteredComplex) -> int:
    """Top Alexander grading carrying nonzero associated-graded homology."""
    table = hfk_hat(C)
    if not table:
        raise KnotTypeError("associated-graded homology vanished entirely")
    return max(a for (a, _m) in table)
