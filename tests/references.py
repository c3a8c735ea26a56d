"""Name-keyed references for validate, a_minus, tau, nu and HFK-hat, and
record-based references for loads, staircase, dual and tensor.

The first are the algorithms cfk ran before its complexes were indexed by
generator position: every lookup goes through a name-keyed dict, the d^2
check keeps (end name, U power) pairs, and the vertical and U = 0 slices
are named complexes whose boundary matrices are built from name -> row
maps.  ``a_minus`` zips a level's named basis and terms eagerly, as cfk
did before its levels were handed out by position.  The second build
complexes the way cfk did before it stored them as columns: one Generator
or DiffTerm record at a time, passed to the public constructor, and a file
read line by line.  The tests compare the library against them, result
for result and message for message.  ``solve`` and ``kernel_basis`` are
the back-substituting eliminations that cfk.f2 ran before its one
reduction kernel, so tau and nu here share no kernel with the library.
``torus_alexander`` is the long division cfk.laurent ran before it read
torus polynomials off the semigroup <p, q>, and the torus factors here
are built from it.  Only f2.rank, the expression parser and the cable
polynomials are shared.
"""
from __future__ import annotations

import re

from cfk import expr as kx
from cfk import f2
from cfk.complexes import (D_SQUARED, DUPLICATE_NAME, DUPLICATE_TERM, FILTRATION,
                           GRADING, VERTICAL_HOMOLOGY,
                           BifilteredComplex, DiffTerm, Generator, Violation)
from cfk.errors import FormatError, KnotTypeError, ValidationError
from cfk.laurent import LaurentPoly, is_lspace_form


def loads(text, label=""):
    """A cfk v1 text read line by line into records."""
    generators = []
    declared = set()
    terms = []
    seen_terms = set()
    header = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0]
        fields = line.split()
        if not fields:
            continue
        if not header:
            if fields != ["cfk", "v1"]:
                raise FormatError(f"missing 'cfk v1' header (found {' '.join(fields)!r})")
            header = True
            continue
        directive = fields[0]
        if directive == "gen":
            if len(fields) != 5:
                raise FormatError(
                    f"line {lineno}: gen needs name, i, j, maslov ({len(fields) - 1} fields given)")
            _, name, i, j, maslov = fields
            if name.startswith("U^"):
                raise FormatError(f"line {lineno}: name {name!r} collides with term syntax")
            try:
                if re.fullmatch(r"-?[0-9]+ -?[0-9]+ -?[0-9]+", f"{i} {j} {maslov}") is None:
                    raise ValueError(maslov)
                generators.append(Generator(name, int(i), int(j), int(maslov)))
            except ValueError:
                raise FormatError(f"line {lineno}: gen positions must be integers") from None
            declared.add(name)
        elif directive == "dif":
            if len(fields) < 3:
                raise FormatError(f"line {lineno}: dif needs a source and at least one target")
            source = fields[1]
            if source not in declared:
                raise FormatError(
                    f"line {lineno}: dif references undeclared generator {source!r}")
            for token in fields[2:]:
                upower, target = 0, token
                if token.startswith("U^"):
                    m = re.fullmatch(r"U\^([0-9]+)\.(.+)", token)
                    try:
                        if m is None:
                            raise ValueError(token)
                        upower, target = int(m.group(1)), m.group(2)
                    except ValueError:
                        raise FormatError(f"line {lineno}: malformed term {token!r}") from None
                if target not in declared:
                    raise FormatError(
                        f"line {lineno}: dif references undeclared generator {target!r}")
                term = DiffTerm(source, target, upower)
                if term in seen_terms:
                    raise FormatError(
                        f"line {lineno}: term {token!r} repeated for source {source!r}")
                seen_terms.add(term)
                terms.append(term)
        else:
            raise FormatError(f"line {lineno}: unknown directive {directive!r}")
    if not header:
        raise FormatError("missing 'cfk v1' header (found 'empty file')")
    return BifilteredComplex(generators, terms, label)


def torus_alexander(p, q):
    """(t^{pq} - 1)(t - 1) / ((t^p - 1)(t^q - 1)) by long division in Z[t],
    shifted to be symmetric about zero; p, q >= 1 coprime."""
    num = (LaurentPoly({p * q: 1, 0: -1}) * LaurentPoly({1: 1, 0: -1})).coeffs
    den = (LaurentPoly({p: 1, 0: -1}) * LaurentPoly({q: 1, 0: -1})).coeffs
    dtop = max(den)
    quot = {}
    while num:
        ntop = max(num)
        c, r = divmod(num[ntop], den[dtop])
        if ntop < dtop or r:
            raise ArithmeticError("inexact polynomial division")
        quot[ntop - dtop] = c
        for e, dc in den.items():
            e2 = e + ntop - dtop
            num[e2] = num.get(e2, 0) - c * dc
            if not num[e2]:
                del num[e2]
    shift = -((p - 1) * (q - 1) // 2)
    return LaurentPoly({e + shift: c for e, c in quot.items()})


def staircase(delta, prefix="x", label=None):
    ok, exps = is_lspace_form(delta)
    if not ok:
        raise ValueError(f"polynomial is not in L-space staircase form: {delta!r}")
    if label is None:
        label = f"staircase({delta!r})"
    gens = []
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


def dual(C):
    gens = [Generator(name, -i, -j, -m) for name, i, j, m in C.generators]
    terms = [DiffTerm(t, s, n) for s, t, n in C.terms]
    return BifilteredComplex(gens, terms, f"dual({C.label})")


def tensor(C1, C2):
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


def build_complex(e):
    """The complex of an expression, built from records and relabelled by
    copying them into a new complex."""
    built = _build(e)
    return BifilteredComplex(built.generators, built.terms, kx.to_text(e))


def _build(e):
    if isinstance(e, kx.Annotated):
        return _build(e.child)
    if isinstance(e, kx.Unknot):
        return staircase(LaurentPoly.one(), label="unknot")
    if isinstance(e, kx.Torus):
        return staircase(torus_alexander(e.p, e.q), label=kx.to_text(e))
    if isinstance(e, kx.Cable):
        return staircase(kx.lspace_alexander(e), label=kx.to_text(e))
    if isinstance(e, kx.Mirror):
        return dual(_build(e.child))
    if isinstance(e, kx.Sum):
        return tensor(_build(e.left), _build(e.right))
    if isinstance(e, kx.FromFile):
        with open(e.path) as fh:
            C = loads(fh.read(), label=e.path)
        violations = validate(C)
        if violations:
            raise ValidationError(violations)
        return C
    raise TypeError(f"unexpected expression node {e!r}")


def graded_homology_dims(grading, edges):
    """Nonzero homology dimensions, by grading key, of a graded F2 complex
    whose basis is the keys of grading and whose edges are name pairs."""
    index = {}
    dims = {}
    for el, key in grading.items():
        index[el] = dims.get(key, 0)
        dims[key] = index[el] + 1
    rows = {}
    target_key = {}
    for s, t in edges:
        rows[s] = rows.get(s, 0) ^ (1 << index[t])
        target_key[grading[s]] = grading[t]
    blocks = {}
    for el, key in grading.items():
        if el in rows:
            blocks.setdefault(key, []).append(rows[el])
    for key, block in blocks.items():
        r = f2.rank(block)
        dims[key] -= r
        dims[target_key[key]] -= r
    return {key: h for key, h in dims.items() if h}


def validate(C: BifilteredComplex) -> list[Violation]:
    out: list[Violation] = []
    seen: set[str] = set()
    for name, _i, _j, _m in C.generators:
        if name in seen:
            out.append(Violation(DUPLICATE_NAME, f"generator name {name!r} declared twice"))
        seen.add(name)

    gens = {g.name: g for g in C.generators}  # a repeated name: its last declaration
    term_seen: set[DiffTerm] = set()
    for term in C.terms:
        source, target, n = term
        if term in term_seen:
            out.append(Violation(DUPLICATE_TERM, f"term U^{n}:{source}->{target} repeated"))
            continue
        term_seen.add(term)
        _, si, sj, sm = gens[source]
        _, ti, tj, tm = gens[target]
        if n < 0:
            out.append(Violation(FILTRATION, f"negative U power on {source}->{target}"))
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

    if out:
        return out

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

    level: dict[str, int] = {}
    grading: dict[str, int] = {}
    for name, i, _j, m in C.generators:
        level[name] = i
        grading[name] = m - 2 * i
    dims = graded_homology_dims(
        grading, ((source, target) for source, target, n in C.terms
                  if n + level[source] - level[target] == 0))
    if dims != {0: 1}:
        total = sum(dims.values())
        out.append(Violation(
            VERTICAL_HOMOLOGY,
            f"vertical homology has total dimension {total} at gradings "
            f"{sorted(dims)} (want dimension 1 at grading 0)"))
    return out


def vertical_complex(C):
    """(basis, terms): basis entries (name, grading M - 2i, alexander),
    terms the (source, target) names whose translated U power is zero."""
    basis = tuple((name, m - 2 * i, j - i) for name, i, j, m in C.generators)
    level = {name: i for name, i, _j, _m in C.generators}
    terms = tuple((source, target) for source, target, n in C.terms
                  if n + level[source] - level[target] == 0)
    return basis, terms


def hat_a(C, k):
    """The U = 0 slice of A^-_k, as vertical_complex."""
    shift = {name: i if i > j - k else j - k for name, i, j, _m in C.generators}
    basis = tuple((name, m - 2 * shift[name], j - i) for name, i, j, m in C.generators)
    terms = tuple((source, target) for source, target, n in C.terms
                  if n + shift[source] - shift[target] == 0)
    return basis, terms


def a_minus(C, k):
    """The free F2[U]-model of C{max(i, j - k) <= 0} as (basis, terms):
    its named basis (name, M - 2c) and terms
    (source, target, n + c_source - c_target), c = max(i, j - k), built at
    once."""
    shift = {name: i if i > j - k else j - k for name, i, j, _m in C.generators}
    basis = tuple((name, m - 2 * shift[name]) for name, _i, _j, m in C.generators)
    terms = tuple((source, target, n + shift[source] - shift[target])
                  for source, target, n in C.terms)
    for source, target, e in terms:
        if e < 0:
            raise ValueError(f"term {source}->{target} escapes the subcomplex; "
                             "input complex violates its filtration invariants")
    return basis, terms


def solve(rows, ncols, rhs):
    """One solution x (bitmask over columns) of A x = b, or None: rows[i]
    is row i of A over the first ncols bits, bit i of rhs is b[i], and the
    free variables are zero."""
    mat_mask = (1 << ncols) - 1
    reduced = []  # rows with distinct leading bits, rhs in bit ncols+
    for i, row in enumerate(rows):
        aug = (row & mat_mask) | (((rhs >> i) & 1) << ncols)
        for piv in reduced:
            lead = piv & -piv
            if aug & lead:
                aug ^= piv
        if aug & mat_mask:
            reduced.append(aug)
        elif aug:
            return None  # 0 = 1 row
    # back-substitute: make each pivot column appear in exactly one row
    reduced.sort(key=lambda r: r & -r)
    for idx in range(len(reduced) - 1, -1, -1):
        lead = reduced[idx] & -reduced[idx]
        for j in range(idx):
            if reduced[j] & lead:
                reduced[j] ^= reduced[idx]
    x = 0
    for row in reduced:
        if row >> ncols:
            x |= row & -row
    return x


def kernel_basis(rows, ncols):
    """Basis of the null space of A, as column bitmasks."""
    cols = [0] * ncols
    for i, row in enumerate(rows):
        r = row
        while r:
            low = r & -r
            cols[low.bit_length() - 1] |= 1 << i
            r ^= low
    reduced = []  # (column vector, combination record)
    kernel = []
    for j in range(ncols):
        v = cols[j]
        comb = 1 << j
        for vec, c in reduced:
            if v & (vec & -vec):
                v ^= vec
                comb ^= c
        if v:
            reduced.append((v, comb))
        else:
            kernel.append(comb)
    return kernel


def _grading_names(basis, m):
    return [name for (name, g, _a) in basis if g == m]


def _boundary_rows(terms, row_names, col_names):
    ridx = {n: i for i, n in enumerate(row_names)}
    cidx = {n: i for i, n in enumerate(col_names)}
    rows = [0] * len(row_names)
    for s, t in terms:
        if s in cidx and t in ridx:
            rows[ridx[t]] ^= 1 << cidx[s]
    return rows


def _vertical_class(C):
    basis, terms = vertical_complex(C)
    b0 = _grading_names(basis, 0)
    b1 = _grading_names(basis, 1)
    bm1 = _grading_names(basis, -1)
    down = _boundary_rows(terms, bm1, b0)
    into = _boundary_rows(terms, b0, b1)
    for z in kernel_basis(down, len(b0)):
        if solve(into, len(b1), z) is None:
            return basis, b0, b1, into, z
    raise KnotTypeError(
        "vertical homology has no grading-zero generator; complex is not knot-type")


def tau(C):
    basis, b0, b1, into, z = _vertical_class(C)
    alex = {name: a for (name, _m, a) in basis}
    alexs = [alex[n] for n in b0]
    lo = min((a for (_n, _m, a) in basis), default=0)
    hi = max((a for (_n, _m, a) in basis), default=0)
    for k in range(lo, hi + 1):
        keep = [i for i, a in enumerate(alexs) if a > k]
        rows = [into[i] for i in keep]
        rhs = 0
        for r, i in enumerate(keep):
            rhs |= ((z >> i) & 1) << r
        if solve(rows, len(b1), rhs) is not None:
            return k
    raise KnotTypeError("tau scan found no supporting level")


def nu(C):
    t = tau(C)
    basis, b0, b1, into, z0 = _vertical_class(C)
    hi = max((a for (_n, _m, a) in basis), default=0)
    for k in range(t, hi + 1):
        hat_basis, hat_terms = hat_a(C, k)
        h0 = _grading_names(hat_basis, 0)
        hm1 = _grading_names(hat_basis, -1)
        rows = _boundary_rows(hat_terms, hm1, h0)
        nz, nw = len(h0), len(b1)
        h0_idx = {n: i for i, n in enumerate(h0)}
        alex = {name: a for (name, _m, a) in hat_basis}
        rhs = 0
        for r, name in enumerate(b0):
            row = into[r] << nz
            if name in h0_idx and alex[name] <= k:
                row |= 1 << h0_idx[name]
            rows.append(row)
            rhs |= ((z0 >> r) & 1) << (len(rows) - 1)
        if solve(rows, nz + nw, rhs) is not None:
            return k
    raise KnotTypeError("nu scan found no supporting level")


def hfk_hat(C):
    basis, terms = vertical_complex(C)
    grading = {name: (a, m) for (name, m, a) in basis}
    return graded_homology_dims(
        grading, ((s, t) for (s, t) in terms if grading[s][0] == grading[t][0]))
