"""Concordance invariants of a bifiltered complex.

Two subquotient constructions carry everything:

* ``a_minus(C, k)``: the F2[U]-subcomplex of elements whose position lands
  in {max(i, j - k) <= 0}.  Its homology is one free summand plus torsion;
  V_k is minus half the free grading, H_k = V_{-k}.
* ``vertical_complex(C)``: the i-preserving slice at i = 0 over F2, whose
  homology is one-dimensional in grading zero on knot-type input.  tau and
  nu locate where the generator of that class survives restriction.

The U-module homology engine is a persistence pairing (Zomorodian and
Carlsson, "Computing persistent homology", 2005).  Every term's U exponent
is pinned by the endpoint gradings
(exponent = (grading(target) - grading(source) + 1) / 2), so a complex is
its U = 1 matrix over F2 together with the gradings, and the graded Smith
form over the PID F2[U] is the pairing of that matrix with rows and
columns ordered by grading.  Each column is one int bitmask, so a
reduction step is one bigint XOR.  Every pivot pair is checked and d^2 = 0
is checked in full, so a broken input raises instead of returning a
summary.

Each complex is indexed once: its generator names, (i, j, M) columns and
every term's source and target as a generator position.  ``a_minus``
computes a level's shifts, gradings and exponents from that index by
position, and the levels share its position lists, so ``homology_over_U``
looks up no names.  The checks that do not depend on k (duplicate names,
duplicate terms, homogeneity, since M(s) - 1 = M(t) - 2n makes k cancel,
and d^2 = 0 at U = 1) run on the first level reduced for a complex and
are skipped once they have passed; the escape check and the pivot-pair
checks run on every level.  A hand-built ``FreeUComplex`` is indexed by
name on each call and runs every check.

Each complex object keeps a private memo of its index, V_k, tau, nu, the
vertical class and the HFK-hat table, so every report reduces a given
(complex, k) once, and V outside the Alexander range reads the boundary
level (see ``V``).  V_{-k} = V_k + k is not used as a shortcut: it stays a
check on the computed table.
"""
from __future__ import annotations

import functools
from collections.abc import Container, Iterable
from dataclasses import dataclass, field
from typing import NamedTuple

from . import f2
from .complexes import BifilteredComplex, dual
from .errors import KnotTypeError, PreconditionError


class _Positions:
    """Each term's source and target as a basis position.  One object is
    shared by every level of a complex; checked is set once the checks
    that do not depend on k have passed on one of them."""
    __slots__ = ("sources", "targets", "checked")

    def __init__(self, sources: list[int], targets: list[int]):
        self.sources = sources
        self.targets = targets
        self.checked = False


@dataclass(frozen=True)
class FreeUComplex:
    """Finitely generated free graded complex over F2[U].

    basis entries are (name, grading); terms are (source, target, exponent)
    meaning d(source) contains U^exponent * target.  a_minus also attaches
    its complex's shared term positions; a hand-built complex has none.
    """
    basis: tuple[tuple[str, int], ...]
    terms: tuple[tuple[str, str, int], ...]
    _positions: _Positions | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class UModuleSummary:
    """Graded isomorphism class of a f.g. F2[U]-module: free summand
    gradings plus (top grading, exponent) pairs for U^e-torsion pieces."""
    free_gradings: tuple[int, ...]
    torsion: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class F2Complex:
    """Plain F2 chain complex; basis entries are (name, maslov, alexander)
    and every term drops maslov by one."""
    basis: tuple[tuple[str, int, int], ...]
    terms: tuple[tuple[str, str], ...]


def _memoized(fn):
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


class _Index(NamedTuple):
    """A complex by generator position: the generators' columns, every
    term's endpoint names and U power, the terms' positions, and the least
    and greatest Alexander grading j - i (0 and 0 without generators)."""
    names: tuple[str, ...]
    i: tuple[int, ...]
    j: tuple[int, ...]
    maslov: tuple[int, ...]
    source_names: tuple[str, ...]
    target_names: tuple[str, ...]
    powers: tuple[int, ...]
    positions: _Positions
    alexander_range: tuple[int, int]


@_memoized
def _index(C: BifilteredComplex) -> _Index:
    names, i, j, maslov = tuple(zip(*C.generators)) or ((),) * 4
    source_names, target_names, powers = tuple(zip(*C.terms)) or ((),) * 3
    position = {name: p for p, name in enumerate(names)}
    try:
        positions = _Positions(list(map(position.__getitem__, source_names)),
                               list(map(position.__getitem__, target_names)))
    except KeyError:
        raise _unknown_generator(C.terms, position) from None
    alexander = [b - a for a, b in zip(i, j)]
    return _Index(names, i, j, maslov, source_names, target_names, powers, positions,
                  (min(alexander, default=0), max(alexander, default=0)))


def a_minus(C: BifilteredComplex, k: int) -> FreeUComplex:
    """Free F2[U]-model of C{max(i, j - k) <= 0}.

    The basis element for g is U^{c_g} g with c_g = max(i_g, j_g - k), in
    grading M(g) - 2 c_g; a term U^n: s -> t turns into exponent
    n + c_s - c_t, nonnegative exactly because the region is a subcomplex.
    """
    index = _index(C)
    shift = [i if i > j - k else j - k for i, j in zip(index.i, index.j)]
    basis = tuple(zip(index.names, [m - 2 * c for m, c in zip(index.maslov, shift)]))
    positions = index.positions
    exponents = [n + shift[s] - shift[t]
                 for s, t, n in zip(positions.sources, positions.targets, index.powers)]
    if min(exponents, default=0) < 0:
        p = next(p for p, e in enumerate(exponents) if e < 0)
        raise ValueError(
            f"term {index.source_names[p]}->{index.target_names[p]} escapes the "
            "subcomplex; input complex violates its filtration invariants")
    terms = tuple(zip(index.source_names, index.target_names, exponents))
    return FreeUComplex(basis, terms, positions)


def _unknown_generator(terms: Iterable[tuple[str, str, int]],
                       known: Container[str]) -> ValueError:
    """The error for the first of terms (source, target, power) whose
    source or target is not in known."""
    for source, target, n in terms:
        for name in (source, target):
            if name not in known:
                return ValueError(f"term U^{n} {source!r}->{target!r} "
                                  f"references unknown generator {name!r}")
    raise AssertionError("every term names known generators")


def homology_over_U(x: FreeUComplex) -> UModuleSummary:
    """Graded module structure of H_*(x) over F2[U].

    Every entry's U exponent is pinned by the gradings, so the graded Smith
    form over F2[U] is the persistence pairing of the U = 1 matrix with its
    rows ordered by grading (Zomorodian-Carlsson, "Computing persistent
    homology", 2005).  Basis element r is the r-th in descending grading,
    ties in basis order, and column s is an int whose bit t is the entry
    d(s) -> t, so the highest set bit is the lowest-grading,
    minimal-exponent target.  Columns are reduced in order: while an
    earlier column owns the pivot bit, it is XORed in, which is the basis
    change s -> s + U^f s' with f >= 0.

    A pair (pivot target t, source s) is a summand F2[U]/U^e topped at
    grading(t), with e = (grading(t) - grading(s) + 1) / 2; e = 0 pairs
    cancel silently.  An element whose reduced column is zero and that is
    no pivot is a free generator.

    The term positions come from a_minus when it made x, and are looked up
    by name otherwise.  The checks that do not depend on k run unless they
    have passed on another level of the same complex.
    """
    positions = x._positions
    if positions is None:
        position = {name: p for p, (name, _m) in enumerate(x.basis)}
        # -1 marks a name missing from the basis; _check_terms reports it.
        positions = _Positions([position.get(s, -1) for s, _t, _e in x.terms],
                               [position.get(t, -1) for _s, t, _e in x.terms])
    grading = [m for _name, m in x.basis]
    if not positions.checked:
        _check_terms(x, grading, positions)
    n = len(grading)
    order = sorted(range(n), key=grading.__getitem__, reverse=True)
    rank = [0] * n
    for r, p in enumerate(order):
        rank[p] = r
    grading = list(map(grading.__getitem__, order))
    sources = list(map(rank.__getitem__, positions.sources))
    targets = list(map(rank.__getitem__, positions.targets))
    cols = [0] * n
    for s, t in zip(sources, targets):
        cols[s] |= 1 << t

    reduced = cols[:]
    owner: dict[int, int] = {}  # pivot target + 1 -> the column that owns it
    for s in range(n):
        c = reduced[s]
        while c:
            lead = c.bit_length()
            o = owner.get(lead)
            if o is None:
                owner[lead] = s
                break
            c ^= reduced[o]
        reduced[s] = c

    pairs = [(lead - 1, s) for lead, s in owner.items()]
    is_target = [False] * n
    for t, _s in pairs:
        is_target[t] = True
    # On a complex every pair is clean; report the first failure in
    # (exponent, source name, target name) order.
    bad = [(t, s) for t, s in pairs if reduced[t] or is_target[s]]
    if bad:
        name = [x.basis[p][0] for p in order]
        t, s = min(bad, key=lambda p: (grading[p[0]] - grading[p[1]], name[p[1]], name[p[0]]))
        if reduced[t]:
            raise ValueError("column of the cancelled target is nonzero; "
                             "input differential does not square to zero")
        raise ValueError("row of the cancelled source is nonzero; "
                         "input differential does not square to zero")
    if not positions.checked:
        # Clean pairs do not imply d^2 = 0, so column s of d(d(s)) is built too.
        square = [0] * n
        for s, t in zip(sources, targets):
            square[s] ^= cols[t]
        if any(square):
            raise ValueError("input differential does not square to zero")
        positions.checked = True

    free = sorted((grading[p] for p in range(n) if not reduced[p] and not is_target[p]),
                  reverse=True)
    torsion = [(grading[t], (grading[t] - grading[s] + 1) // 2) for t, s in pairs]
    torsion = sorted((q for q in torsion if q[1]), key=lambda q: (-q[0], q[1]))
    return UModuleSummary(tuple(free), tuple(torsion))


def _check_terms(x: FreeUComplex, grading: list[int], positions: _Positions) -> None:
    """Raise ValueError for the first duplicate basis name; else for the
    first term that names a missing generator, unless an inhomogeneous
    term comes before it; else for the first term that repeats an earlier
    one or is not homogeneous of degree -1.  None of these depends on k."""
    names = [name for name, _m in x.basis]
    if len(set(names)) != len(names):
        declared: set[str] = set()
        for name in names:
            if name in declared:
                raise ValueError(f"duplicate basis name {name!r}")
            declared.add(name)
    sources, targets = positions.sources, positions.targets
    for (_s, _t, e), s, t in zip(x.terms, sources, targets):
        if s < 0 or t < 0:
            raise _unknown_generator(x.terms, set(names))
        if e < 0 or grading[s] - 1 != grading[t] - 2 * e:
            break
    else:
        if len(set(zip(sources, targets))) == len(sources):
            return
    # A term stopped the loop, or some term repeats; no term up to the
    # first such one names a missing generator.
    seen: set[tuple[int, int]] = set()
    for (s_name, t_name, e), s, t in zip(x.terms, sources, targets):
        if (s, t) in seen:
            raise ValueError(f"duplicate term {s_name}->{t_name}")
        if e < 0 or grading[s] - 1 != grading[t] - 2 * e:
            raise ValueError(
                f"term U^{e}:{s_name}->{t_name} is not homogeneous of degree -1")
        seen.add((s, t))
    raise AssertionError("every term is distinct and homogeneous")


@_memoized
def V(C: BifilteredComplex, k: int) -> int:
    """V_k: minus half the grading of the free part of H(A^-_k).

    Only levels in the Alexander range [A_min, A_max] of C are reduced.
    For k >= A_max every shift max(i, j - k) is i, so a_minus(C, k) is the
    very complex at A_max.  For k <= A_min every shift is j - k, so it is
    the complex at A_min with every grading moved by 2(k - A_min): the same
    exponents, the same order, hence the same pairs and errors, and free
    gradings moved by 2(k - A_min).  So V_k = V_{A_max} above the range and
    V_k = V_{A_min} + A_min - k below it, exactly, and the checks below
    see the gradings that H(A^-_k) itself has.
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


@_memoized
def _free_gradings(C: BifilteredComplex, k: int) -> tuple[int, ...]:
    return homology_over_U(a_minus(C, k)).free_gradings


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
            raise AssertionError("V_k failed to vanish by the genus bound")
        v = V(C, k)
    return k


def vertical_complex(C: BifilteredComplex) -> F2Complex:
    """The i-preserving slice at i = 0: basis U^{i_g} g in grading
    M(g) - 2 i_g, keeping terms whose translated U power is zero."""
    basis = tuple([(name, m - 2 * i, j - i) for name, i, j, m in C.generators])
    level = {name: i for name, i, _j, _m in C.generators}
    try:
        terms = tuple([
            (source, target) for source, target, n in C.terms
            if n + level[source] - level[target] == 0])
    except KeyError:
        raise _unknown_generator(C.terms, level) from None
    return F2Complex(basis, terms)


def hat_a(C: BifilteredComplex, k: int) -> F2Complex:
    """U = 0 slice of a_minus(C, k); same basis names, terms with induced
    exponent zero.  The alexander slot keeps the underlying generator's
    Alexander grading so callers can tell which elements project onto the
    vertical complex (exactly those with A(g) <= k)."""
    shift = {name: i if i > j - k else j - k for name, i, j, _m in C.generators}
    basis = tuple([
        (name, m - 2 * shift[name], j - i) for name, i, j, m in C.generators])
    try:
        terms = tuple([
            (source, target) for source, target, n in C.terms
            if n + shift[source] - shift[target] == 0])
    except KeyError:
        raise _unknown_generator(C.terms, shift) from None
    return F2Complex(basis, terms)


def _grading_names(x: F2Complex, m: int) -> list[str]:
    return [name for (name, g, _a) in x.basis if g == m]


def _boundary_rows(x: F2Complex, row_names: list[str], col_names: list[str]) -> list[int]:
    """Rows over col_names (as sources) for targets in row_names."""
    ridx = {n: i for i, n in enumerate(row_names)}
    cidx = {n: i for i, n in enumerate(col_names)}
    rows = [0] * len(row_names)
    for s, t in x.terms:
        if s in cidx and t in ridx:
            rows[ridx[t]] ^= 1 << cidx[s]
    return rows


@_memoized
def _vertical_class(
        C: BifilteredComplex) -> tuple[F2Complex, list[str], list[str], list[int], int]:
    """The vertical complex, its grading-0 basis, its grading-1 basis, the
    boundary matrix from grading 1, and a cycle representing the generator
    of the one-dimensional homology."""
    vert = vertical_complex(C)
    b0 = _grading_names(vert, 0)
    b1 = _grading_names(vert, 1)
    bm1 = _grading_names(vert, -1)
    down = _boundary_rows(vert, bm1, b0)
    into = _boundary_rows(vert, b0, b1)
    for z in f2.kernel_basis(down, len(b0)):
        if f2.solve(into, len(b1), z) is None:
            return vert, b0, b1, into, z
    raise KnotTypeError(
        "vertical homology has no grading-zero generator; complex is not knot-type")


@_memoized
def tau(C: BifilteredComplex) -> int:
    """Least k such that the vertical homology generator is homologous to a
    cycle supported in Alexander gradings <= k."""
    vert, b0, b1, into, z = _vertical_class(C)
    alex = {name: a for (name, _m, a) in vert.basis}
    alexs = [alex[n] for n in b0]
    lo = min((a for (_n, _m, a) in vert.basis), default=0)
    hi = max((a for (_n, _m, a) in vert.basis), default=0)
    for k in range(lo, hi + 1):
        keep = [i for i, a in enumerate(alexs) if a > k]
        rows = [into[i] for i in keep]
        rhs = 0
        for r, i in enumerate(keep):
            rhs |= ((z >> i) & 1) << r
        if f2.solve(rows, len(b1), rhs) is not None:
            return k
    raise KnotTypeError("tau scan found no supporting level")


@_memoized
def nu(C: BifilteredComplex) -> int:
    """Least k >= tau such that some cycle of the U = 0 slice of A^-_k
    projects to the vertical homology generator's class."""
    t = tau(C)
    vert, b0, b1, into, z0 = _vertical_class(C)
    hi = max((a for (_n, _m, a) in vert.basis), default=0)
    for k in range(t, hi + 1):
        hat = hat_a(C, k)
        h0 = _grading_names(hat, 0)
        hm1 = _grading_names(hat, -1)
        cycle_rows = _boundary_rows(hat, hm1, h0)
        nz, nw = len(h0), len(b1)
        h0_idx = {n: i for i, n in enumerate(h0)}
        alex = {name: a for (name, _m, a) in hat.basis}
        rows: list[int] = []
        rhs = 0
        for r in cycle_rows:
            rows.append(r)  # cycle condition rows; rhs bits stay 0
        for r, name in enumerate(b0):
            row = into[r] << nz  # d(w) contribution from vertical grading 1
            if name in h0_idx and alex[name] <= k:
                row |= 1 << h0_idx[name]  # projection of the hat cycle
            rows.append(row)
            rhs |= ((z0 >> r) & 1) << (len(rows) - 1)
        if f2.solve(rows, nz + nw, rhs) is not None:
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


@_memoized
def _hfk_table(C: BifilteredComplex) -> dict[tuple[int, int], int]:
    vert = vertical_complex(C)
    grading = {name: (a, m) for (name, m, a) in vert.basis}
    return f2.graded_homology_dims(
        grading, ((s, t) for (s, t) in vert.terms if grading[s][0] == grading[t][0]))


def seifert_genus(C: BifilteredComplex) -> int:
    """Top Alexander grading carrying nonzero associated-graded homology."""
    table = hfk_hat(C)
    if not table:
        raise KnotTypeError("associated-graded homology vanished entirely")
    return max(a for (a, _m) in table)
