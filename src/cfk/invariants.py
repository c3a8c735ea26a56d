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

Each complex object keeps a private memo of V_k, tau, nu, the vertical
class and the HFK-hat table, so every report reduces a given (complex, k)
once.  V_{-k} = V_k + k is not used as a shortcut: it stays a check on the
computed table.
"""
from __future__ import annotations

import functools
from collections.abc import Container, Iterable
from dataclasses import dataclass
from typing import NoReturn

from . import f2
from .complexes import BifilteredComplex, dual
from .errors import KnotTypeError, PreconditionError


@dataclass(frozen=True)
class FreeUComplex:
    """Finitely generated free graded complex over F2[U].

    basis entries are (name, grading); terms are (source, target, exponent)
    meaning d(source) contains U^exponent * target.
    """
    basis: tuple[tuple[str, int], ...]
    terms: tuple[tuple[str, str, int], ...]


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


def a_minus(C: BifilteredComplex, k: int) -> FreeUComplex:
    """Free F2[U]-model of C{max(i, j - k) <= 0}.

    The basis element for g is U^{c_g} g with c_g = max(i_g, j_g - k), in
    grading M(g) - 2 c_g; a term U^n: s -> t turns into exponent
    n + c_s - c_t, nonnegative exactly because the region is a subcomplex.
    """
    shift: dict[str, int] = {}
    basis = []
    for name, i, j, m in C.generators:
        c = i if i > j - k else j - k  # max(i, j - k) without a call
        shift[name] = c
        basis.append((name, m - 2 * c))
    terms = []
    try:
        for source, target, n in C.terms:
            e = n + shift[source] - shift[target]
            if e < 0:
                raise ValueError(
                    f"term {source}->{target} escapes the subcomplex; "
                    "input complex violates its filtration invariants")
            terms.append((source, target, e))
    except KeyError:
        raise _unknown_generator(C.terms, shift) from None
    return FreeUComplex(tuple(basis), tuple(terms))


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
    homology", 2005).  Basis element p is the p-th in descending grading,
    and column s is an int whose bit t is the entry d(s) -> t, so the
    highest set bit is the lowest-grading, minimal-exponent target.
    Columns are reduced in order: while an earlier column owns the pivot
    bit, it is XORed in, which is the basis change s -> s + U^f s' with
    f >= 0.

    A pair (pivot target t, source s) is a summand F2[U]/U^e topped at
    grading(t), with e = (grading(t) - grading(s) + 1) / 2; e = 0 pairs
    cancel silently.  An element whose reduced column is zero and that is
    no pivot is a free generator.
    """
    grading_of: dict[str, int] = {}
    for name, m in x.basis:
        if name in grading_of:
            raise ValueError(f"duplicate basis name {name!r}")
        grading_of[name] = m
    names = sorted(grading_of, key=grading_of.__getitem__, reverse=True)
    index = {name: p for p, name in enumerate(names)}
    grading = [grading_of[name] for name in names]
    n = len(names)
    cols = [0] * n
    try:
        for s_name, t_name, e in x.terms:
            s, t = index[s_name], index[t_name]
            if e < 0 or grading[s] - 1 != grading[t] - 2 * e:
                break
            cols[s] |= 1 << t
    except KeyError:
        raise _unknown_generator(x.terms, index) from None
    if sum(map(int.bit_count, cols)) != len(x.terms):  # a term stopped the loop or repeats
        _raise_first_bad_term(x.terms, grading_of)

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
        t, s = min(bad, key=lambda p: (grading[p[0]] - grading[p[1]], names[p[1]], names[p[0]]))
        if reduced[t]:
            raise ValueError("column of the cancelled target is nonzero; "
                             "input differential does not square to zero")
        raise ValueError("row of the cancelled source is nonzero; "
                         "input differential does not square to zero")
    # Clean pairs do not imply d^2 = 0, so column s of d(d(s)) is built too.
    square = [0] * n
    for s_name, t_name, _e in x.terms:
        square[index[s_name]] ^= cols[index[t_name]]
    if any(square):
        raise ValueError("input differential does not square to zero")

    free = sorted((grading[p] for p in range(n) if not reduced[p] and not is_target[p]),
                  reverse=True)
    torsion = [(grading[t], (grading[t] - grading[s] + 1) // 2) for t, s in pairs]
    torsion = sorted((q for q in torsion if q[1]), key=lambda q: (-q[0], q[1]))
    return UModuleSummary(tuple(free), tuple(torsion))


def _raise_first_bad_term(terms: tuple[tuple[str, str, int], ...],
                          grading_of: dict[str, int]) -> NoReturn:
    """Raise ValueError for the first repeated or inhomogeneous term."""
    seen: set[tuple[str, str]] = set()
    for s_name, t_name, e in terms:
        if (s_name, t_name) in seen:
            raise ValueError(f"duplicate term {s_name}->{t_name}")
        if e < 0 or grading_of[s_name] - 1 != grading_of[t_name] - 2 * e:
            raise ValueError(
                f"term U^{e}:{s_name}->{t_name} is not homogeneous of degree -1")
        seen.add((s_name, t_name))
    raise AssertionError("every term is distinct and homogeneous")


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


@_memoized
def V(C: BifilteredComplex, k: int) -> int:
    """V_k: minus half the grading of the free part of H(A^-_k)."""
    summary = homology_over_U(a_minus(C, k))
    if len(summary.free_gradings) != 1:
        raise KnotTypeError(
            f"H(A^-_{k}) has free rank {len(summary.free_gradings)}, "
            "complex is not knot-type")
    d = summary.free_gradings[0]
    if d > 0 or d % 2:
        raise KnotTypeError(f"free grading {d} of H(A^-_{k}) is not even <= 0")
    return -d // 2


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
