"""Concordance invariants of a bifiltered complex.

Two subquotient constructions carry everything:

* ``a_minus(C, k)``: the F2[U]-subcomplex of elements whose position lands
  in {max(i, j - k) <= 0}.  Its homology is one free summand plus torsion;
  V_k is minus half the free grading, H_k = V_{-k}.
* ``vertical_complex(C)``: the i-preserving slice at i = 0 over F2, whose
  homology is one-dimensional in grading zero on knot-type input.  tau and
  nu locate where the generator of that class survives restriction.

The U-module homology engine is a graded Smith reduction.  Because every
term's U exponent is pinned by the endpoint gradings
(exponent = (grading(target) - grading(source) + 1) / 2), matrix entries
can be stored as bare presence sets; cancelling a globally minimal-exponent
entry with honest change-of-basis updates keeps every remaining exponent
at or above the minimum, which is exactly the Smith pivot argument for the
graded PID F2[U].
"""
from __future__ import annotations

from dataclasses import dataclass

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
    for g in C.generators:
        c = max(g.i, g.j - k)
        shift[g.name] = c
        basis.append((g.name, g.maslov - 2 * c))
    terms = []
    for t in C.terms:
        e = t.upower + shift[t.source] - shift[t.target]
        if e < 0:
            raise ValueError(
                f"term {t.source}->{t.target} escapes the subcomplex; "
                "input complex violates its filtration invariants")
        terms.append((t.source, t.target, e))
    return FreeUComplex(tuple(basis), tuple(terms))


def homology_over_U(x: FreeUComplex) -> UModuleSummary:
    """Graded module structure of H_*(x) over F2[U].

    Repeatedly cancels a minimal-exponent matrix entry (ties broken by
    lexicographically smallest (source, target) names).  Cancelling at
    exponent e >= 1 contributes a torsion summand F2[U]/U^e topped at the
    target's grading; exponent 0 pairs cancel silently; leftover basis
    elements are free generators.
    """
    grading: dict[str, int] = {}
    for name, m in x.basis:
        if name in grading:
            raise ValueError(f"duplicate basis name {name!r}")
        grading[name] = m
    rows: dict[str, set[str]] = {}  # target -> sources
    cols: dict[str, set[str]] = {}  # source -> targets
    seen = set()
    for s, t, e in x.terms:
        if (s, t) in seen:
            raise ValueError(f"duplicate term {s}->{t}")
        seen.add((s, t))
        if e < 0 or grading[s] - 1 != grading[t] - 2 * e:
            raise ValueError(
                f"term U^{e}:{s}->{t} is not homogeneous of degree -1")
        rows.setdefault(t, set()).add(s)
        cols.setdefault(s, set()).add(t)

    def exponent(t: str, s: str) -> int:
        num = grading[t] - grading[s] + 1
        if num < 0 or num % 2:
            raise AssertionError("entry exponent left the grading lattice")
        return num // 2

    def toggle(t: str, s: str) -> None:
        if s in rows.get(t, ()):
            rows[t].discard(s)
            cols[s].discard(t)
        else:
            exponent(t, s)  # parity / sign sanity on every created entry
            rows.setdefault(t, set()).add(s)
            cols.setdefault(s, set()).add(t)

    alive = dict(grading)
    torsion: list[tuple[int, int]] = []
    while True:
        entries = [(exponent(t, s), s, t) for t, ss in rows.items() for s in ss]
        if not entries:
            break
        e, a, b = min(entries)
        # Clear the other entries of row b: sources s pick up a U^{f-e} a
        # summand, which also feeds row a through the inverse basis change.
        for s in sorted(rows[b] - {a}):
            for t2 in sorted(cols.get(a, ())):
                toggle(t2, s)
            for x2 in sorted(rows.get(s, ())):
                toggle(a, x2)
        # Absorb the other targets of a into b' = b + sum U^{d-e} t; the
        # complex property forces d(b') = 0, i.e. column b empties out.
        for t in sorted(cols[a] - {b}):
            for w in sorted(cols.get(t, ())):
                toggle(w, b)
            toggle(t, a)
        if cols.get(b):
            raise ValueError("column of the cancelled target is nonzero; "
                             "input differential does not square to zero")
        if rows.get(a):
            raise ValueError("row of the cancelled source is nonzero; "
                             "input differential does not square to zero")
        if rows.get(b) != {a} or cols.get(a) != {b}:
            raise AssertionError("pivot pair lost its own entry")
        rows[b].clear()
        cols[a].clear()
        if e >= 1:
            torsion.append((grading[b], e))
        del alive[a], alive[b]

    free = tuple(sorted(alive.values(), reverse=True))
    torsion.sort(key=lambda p: (-p[0], p[1]))
    return UModuleSummary(free, tuple(torsion))


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
    """Least k >= 0 with V_k = 0; V is nonincreasing so a forward scan works."""
    cap = max(C.max_alexander, 0) + 1
    k = 0
    while V(C, k) > 0:
        k += 1
        if k > cap:
            raise AssertionError("V_k failed to vanish by the genus bound")
    return k


def vertical_complex(C: BifilteredComplex) -> F2Complex:
    """The i-preserving slice at i = 0: basis U^{i_g} g in grading
    M(g) - 2 i_g, keeping terms whose translated U power is zero."""
    basis = tuple((g.name, g.maslov - 2 * g.i, g.alexander) for g in C.generators)
    terms = tuple(
        (t.source, t.target) for t in C.terms
        if t.upower + C.by_name[t.source].i - C.by_name[t.target].i == 0)
    return F2Complex(basis, terms)


def hat_a(C: BifilteredComplex, k: int) -> F2Complex:
    """U = 0 slice of a_minus(C, k); same basis names, terms with induced
    exponent zero.  The alexander slot keeps the underlying generator's
    Alexander grading so callers can tell which elements project onto the
    vertical complex (exactly those with A(g) <= k)."""
    shift = {g.name: max(g.i, g.j - k) for g in C.generators}
    basis = tuple(
        (g.name, g.maslov - 2 * shift[g.name], g.alexander) for g in C.generators)
    terms = tuple(
        (t.source, t.target) for t in C.terms
        if t.upower + shift[t.source] - shift[t.target] == 0)
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


def _vertical_class(vert: F2Complex) -> tuple[list[str], list[str], list[int], int]:
    """Grading-0 basis, grading-1 basis, the boundary matrix from grading 1,
    and a cycle representing the generator of the one-dimensional homology."""
    b0 = _grading_names(vert, 0)
    b1 = _grading_names(vert, 1)
    bm1 = _grading_names(vert, -1)
    down = _boundary_rows(vert, bm1, b0)
    into = _boundary_rows(vert, b0, b1)
    for z in f2.kernel_basis(down, len(b0)):
        if f2.solve(into, len(b1), z) is None:
            return b0, b1, into, z
    raise KnotTypeError(
        "vertical homology has no grading-zero generator; complex is not knot-type")


def tau(C: BifilteredComplex) -> int:
    """Least k such that the vertical homology generator is homologous to a
    cycle supported in Alexander gradings <= k."""
    vert = vertical_complex(C)
    b0, b1, into, z = _vertical_class(vert)
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


def nu(C: BifilteredComplex) -> int:
    """Least k >= tau such that some cycle of the U = 0 slice of A^-_k
    projects to the vertical homology generator's class."""
    t = tau(C)
    vert = vertical_complex(C)
    b0, b1, into, z0 = _vertical_class(vert)
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
    (alexander, maslov); only nonzero ranks appear."""
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
