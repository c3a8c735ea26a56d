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
The Laurent polynomials are the route from an expression to its
staircase that cfk ran before it read the exponents off the knot's
semigroup: ``LaurentPoly``, ``substitute_power``, ``torus_alexander``
(read off <p, q>), ``cable_alexander``, ``is_lspace_form`` and
``lspace_alexander``.  ``torus_alexander_by_division`` is the long
division that came before the semigroup form, and the torus factors here
are built from it.  ``pairs`` and ``homology_over_U`` are the reduction
kernel with a dict pivot table and the U-module tail that read it, as cfk
ran them before the table became a list indexed by bit length, and
``dumps`` is the writer that grouped terms by source name and sorted each
group, as cfk ran it before its one integer sort.  ``cable_nu_plus_lower``
is the per-residue scan that cfk.surgery.cable_nu_plus_bounds ran before
it took each quotient floor(s/p) once.  ``d_invariants`` reads both
stable towers of every spin-c slot, as cfk.surgery.surgery_d did before
it read V at min(a, -b) only, and ``invariants_report`` is the CLI's
invariants report with every level of its V window reduced, as cfk.cli
made it before it filled V_k = 0 for k >= nu+.  ``slice_tau``,
``slice_nu`` and ``slice_epsilon`` are the positional pairings that cfk
ran before tau and nu walked each complex's terms by source: they read
the whole vertical slice and, for each level nu tries, the whole U = 0
slice of A^-_k, both from ``shifted_slice``, and they share f2.pairs,
the repeat refusal and the mirror with the library.  ``shifted_slice``
is the whole-slice filter that cfk.complexes ran before every slice
column came from the terms out of one source, and ``slice_hfk_hat`` is
HFK-hat over it as cfk ran it then: the vertical slice's terms that keep
the Alexander grading, through ``graded_homology_dims``.  Only f2.rank,
the expression parser, V and H (in the cable scan and the surgery
towers), lens_d, and the report's readers other than its V window are
shared otherwise.
"""
from __future__ import annotations

import re
from itertools import compress
from math import gcd
from operator import methodcaller
from typing import Iterable, Mapping, Optional

from cfk import expr as kx
from cfk import f2
from cfk.complexes import (D_SQUARED, DUPLICATE_NAME, DUPLICATE_TERM, FILTRATION,
                           GRADING, VERTICAL_HOMOLOGY,
                           BifilteredComplex, DiffTerm, Generator, Violation, verdict)
from cfk.complexes import dual as mirror
from cfk.errors import (FormatError, KnotTypeError, NoConstructorError, PreconditionError,
                        ValidationError)
from cfk.cli import _hfk_rows
from cfk.invariants import H, V, epsilon
from cfk.surgery import genus_report, lens_d


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


class LaurentPoly:
    """Laurent polynomial in one variable t with int coefficients, stored
    sparsely as {exponent: coefficient} with zero coefficients dropped, so
    equality is structural."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] | None = None):
        data: dict[int, int] = {}
        if coeffs is not None:
            items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
            for e, c in items:
                e = int(e)
                c = data.get(e, 0) + int(c)
                if c:
                    data[e] = c
                elif e in data:
                    del data[e]
        self._coeffs = data

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> "LaurentPoly":
        return cls({exponent: coefficient})

    @property
    def coeffs(self) -> dict[int, int]:
        return dict(self._coeffs)

    def coeff(self, exponent: int) -> int:
        return self._coeffs.get(exponent, 0)

    def support(self) -> list[int]:
        """Exponents with nonzero coefficient, in decreasing order."""
        return sorted(self._coeffs, reverse=True)

    def is_zero(self) -> bool:
        return not self._coeffs

    def degree(self) -> int:
        """Top exponent.  The zero polynomial has no degree."""
        if not self._coeffs:
            raise ValueError("zero polynomial has no degree")
        return max(self._coeffs)

    def min_degree(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no degree")
        return min(self._coeffs)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        data = dict(self._coeffs)
        for e, c in other._coeffs.items():
            s = data.get(e, 0) + c
            if s:
                data[e] = s
            elif e in data:
                del data[e]
        out = LaurentPoly()
        out._coeffs = data
        return out

    def __neg__(self) -> "LaurentPoly":
        out = LaurentPoly()
        out._coeffs = {e: -c for e, c in self._coeffs.items()}
        return out

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        data: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                s = data.get(e, 0) + c1 * c2
                if s:
                    data[e] = s
                elif e in data:
                    del data[e]
        out = LaurentPoly()
        out._coeffs = data
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __repr__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for e in self.support():
            c = self._coeffs[e]
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "t" if e == 1 else f"t^{e}"
                body = var if mag == 1 else f"{mag}*{var}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = (first_sign if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


def substitute_power(p: LaurentPoly, m: int) -> LaurentPoly:
    """p(t^m) for m >= 1."""
    if m < 1:
        raise ValueError("substitution power must be >= 1")
    return LaurentPoly({e * m: c for e, c in p.coeffs.items()})


def torus_alexander(p: int, q: int) -> LaurentPoly:
    """Symmetrized Alexander polynomial of the (p,q) torus knot.

    Read off the semigroup S = <p, q> = {ap + bq : a, b >= 0}: since
    Delta(t) / (1 - t) = sum of t^s over s in S, the coefficient at t^k is
    [k in S] - [k - 1 in S], and S holds every k >= 2g = (p-1)(q-1), so
    k runs over 0..2g and is shifted by -g to be symmetric about zero.
    Requires coprime p, q >= 1.
    """
    if p < 1 or q < 1:
        raise ValueError("torus parameters must be >= 1")
    if gcd(p, q) != 1:
        raise ValueError(f"torus parameters must be coprime, got ({p},{q})")
    top = (p - 1) * (q - 1)
    in_s = [False] * (top + 1)
    for a in range(0, top + 1, p):
        for k in range(a, top + 1, q):
            in_s[k] = True
    return LaurentPoly({k - top // 2: in_s[k] - (k > 0 and in_s[k - 1]) for k in range(top + 1)})


def cable_alexander(delta: LaurentPoly, p: int, q: int) -> LaurentPoly:
    """Alexander polynomial of the (p,q) cable of a knot with polynomial
    delta: delta(t^p) * Delta_{T(p,q)}(t).  Requires coprime p, q >= 1."""
    if p < 1 or q < 1:
        raise ValueError("cable parameters must be >= 1")
    if gcd(p, q) != 1:
        raise ValueError(f"cable parameters must be coprime, got ({p},{q})")
    return substitute_power(delta, p) * torus_alexander(p, q)


def is_lspace_form(p: LaurentPoly) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Whether p looks like the Alexander polynomial of an L-space knot:
    coefficients alternate +1, -1, ..., +1 (odd count, leading and trailing
    +1) and the exponent pattern is symmetric about zero.  Returns the
    decreasing exponent list on success, None otherwise."""
    exps = p.support()
    if not exps or len(exps) % 2 == 0:
        return False, None
    for idx, e in enumerate(exps):
        want = 1 if idx % 2 == 0 else -1
        if p.coeff(e) != want:
            return False, None
        if exps[len(exps) - 1 - idx] != -e:
            return False, None
    return True, tuple(exps)


def lspace_alexander(e) -> LaurentPoly:
    """The Alexander polynomial of an L-space expression, by the cable
    formula; anything else raises NoConstructorError."""
    node = kx.strip_annotations(e)
    if isinstance(node, kx.Unknot):
        return LaurentPoly.one()
    if isinstance(node, kx.Torus):
        return torus_alexander(node.p, node.q)
    if isinstance(node, kx.Cable):
        return cable_alexander(lspace_alexander(node.companion), node.p, node.q)
    raise NoConstructorError(
        f"{kx.to_text(e)} is not an L-space expression; no Alexander polynomial rule")


def torus_alexander_by_division(p, q):
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
        return staircase(torus_alexander_by_division(e.p, e.q), label=kx.to_text(e))
    if isinstance(e, kx.Cable):
        return staircase(lspace_alexander(e), label=kx.to_text(e))
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


def _slice_index(C):
    """C's index; a complex that repeats a name or a (source, target) pair
    raises ValueError with validate's first message, as in cfk.invariants."""
    if C.repeats():
        raise ValueError(verdict(C)[0].message)
    return C.index()


def _numbered(positions, start=0):
    return dict(zip(positions, range(start, start + len(positions))))


def shifted_slice(index, shift):
    """The U = 0 slice of a complex whose generator g is moved to
    U^{shift[g]} g: each generator's grading M(g) - 2 shift[g] by position,
    then the source and the target positions, in term order, of the terms
    U^n: s -> t whose translated power n + shift[s] - shift[t] is zero."""
    grading = [m - 2 * c for m, c in zip(index.maslov, shift)]
    keep = [n + shift[s] - shift[t] == 0
            for s, t, n in zip(index.sources, index.targets, index.powers)]
    return grading, list(compress(index.sources, keep)), list(compress(index.targets, keep))


def slice_hfk_hat(C):
    """HFK-hat from the whole vertical slice: its terms that keep the
    Alexander grading, with each generator keyed by (A, M - 2i)."""
    index = _slice_index(C)
    grading, sources, targets = shifted_slice(index, index.i)
    alexander = [j - i for i, j in zip(index.i, index.j)]
    return graded_homology_dims(
        dict(enumerate(zip(alexander, grading))),
        ((s, t) for s, t in zip(sources, targets) if alexander[s] == alexander[t]))


def slice_pairing(C):
    """tau, the vertical grading-0 positions by Alexander grading and the
    reduced boundaries into them, read off the whole vertical slice: every
    term of C is filtered by shifted_slice."""
    index = _slice_index(C)
    grading, sources, targets = shifted_slice(index, index.i)
    alexander = [j - i for i, j in zip(index.i, index.j)]
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
    boundary = f2.pairs(into, len(zero))
    f2.pairs(down, len(bit))
    born = [p for r, p in enumerate(zero) if not down[r] and boundary[r + 1] < 0]
    if len(born) != 1:
        count = f"{len(born)} grading-zero generators" if born else "no grading-zero generator"
        raise KnotTypeError(f"vertical homology has {count}; complex is not knot-type")
    return alexander[born[0]], zero, into


def slice_tau(C):
    return slice_pairing(C)[0]


def slice_nu(C):
    """nu by the ranks of each level's whole U = 0 slice of A^-_k."""
    least, zero, into = slice_pairing(C)
    boundaries = [c for c in into if c]
    index = _slice_index(C)
    width = len(zero)
    for k in range(least, index.alexander_range[1] + 1):
        grading, sources, targets = shifted_slice(
            index, [i if i > j - k else j - k for i, j in zip(index.i, index.j)])
        bit = _numbered([p for p, m in enumerate(grading) if m == -1], width)
        cols = dict.fromkeys([p for p, m in enumerate(grading) if m == 0], 0)
        for r, p in enumerate(zero):
            if index.j[p] - index.i[p] > k:
                break
            cols[p] = 1 << r
        for s, t in zip(sources, targets):
            if grading[s] == 0 and grading[t] == -1:
                cols[s] |= 1 << bit[t]
        hits = f2.pairs(boundaries + list(cols.values()), width + len(bit))
        if width - hits[1:width + 1].count(-1) > len(boundaries):
            return k
    raise KnotTypeError("nu scan found no supporting level")


def slice_epsilon(C):
    """epsilon from slice_tau and slice_nu of C and of cfk's mirror of C."""
    jumps_here = slice_nu(C) == slice_tau(C) + 1
    Cd = mirror(C)
    jumps_mirror = slice_nu(Cd) == slice_tau(Cd) + 1
    if jumps_here and jumps_mirror:
        raise PreconditionError(
            "epsilon is ill-defined: both the complex and its mirror jump")
    return -1 if jumps_here else 1 if jumps_mirror else 0


def pairs(cols):
    """Reduce cols in place, in order; each pivot, as a bit length, -> the
    column that owns it."""
    owner = {}
    for s, c in enumerate(cols):
        while c:
            lead = c.bit_length()
            o = owner.get(lead)
            if o is None:
                owner[lead] = s
                break
            c ^= cols[o]
        cols[s] = c
    return owner


def homology_over_U(x):
    """Free gradings of a level that a_minus made, highest first, read off
    the dict pivot table: a pass that marks the pivot targets, an any(...)
    pass for a failing pair, the gradings regraded into row order and one
    zip over rows, columns and marks."""
    names = [name for name, _g in x.basis]
    grading = [g for _name, g in x.basis]
    position = {name: p for p, name in enumerate(names)}
    n = len(grading)
    order = sorted(range(n), key=grading.__getitem__, reverse=True)
    rank = [0] * n
    for r, p in enumerate(order):
        rank[p] = r
    grading = list(map(grading.__getitem__, order))
    reduced = [0] * n
    for s, t, _e in x.terms:
        reduced[rank[position[s]]] |= 1 << rank[position[t]]
    owner = pairs(reduced)
    is_target = [False] * n
    for lead in owner:
        is_target[lead - 1] = True
    if any(reduced[lead - 1] for lead in owner):
        *_key, t = min((grading[t] - grading[s], names[order[s]], names[order[t]], t)
                       for t, s in ((lead - 1, s) for lead, s in owner.items())
                       if reduced[t] or is_target[s])
        if reduced[t]:
            raise ValueError("column of the cancelled target is nonzero; "
                             "input differential does not square to zero")
        raise ValueError("row of the cancelled source is nonzero; "
                         "input differential does not square to zero")
    return tuple(m for m, c, pivot in zip(grading, reduced, is_target) if not c and not pivot)


def dumps(C):
    """The cfk v1 text of C: its terms grouped by source name term by term,
    each group sorted by (U power, target name), the sources sorted."""
    names, I, J, M, powers, sources, targets, _ = C.index()
    joined = "".join(names)
    if "#" in joined or joined.split() != [joined] or not all(names) or any(
            map(methodcaller("startswith", "U^"), names)):
        for name in names:
            if name.startswith("U^"):
                problem = "collides with term syntax"
            elif "#" in name:
                problem = "may not contain '#'"
            elif name.split() != [name]:
                problem = "must be nonempty and contain no whitespace"
            else:
                continue
            raise FormatError(f"cannot write generator {name!r}: name {problem}")
    lines = ["cfk v1"]
    lines += map("gen {} {} {} {}".format, names, I, J, M)
    seen = set()
    by_source = {}
    for s, t, n in zip(sources, targets, powers):
        if n < 0 or (names[s], names[t], n) in seen:
            problem = "U power is negative" if n < 0 else "term is repeated"
            raise FormatError(f"cannot write term U^{n} {names[s]!r}->{names[t]!r}: {problem}")
        seen.add((names[s], names[t], n))
        by_source.setdefault(names[s], []).append((n, names[t]))
    for source in sorted(by_source):
        parts = [target if n == 0 else f"U^{n}.{target}"
                 for n, target in sorted(by_source[source])]
        lines.append(f"dif {source} {' '.join(parts)}")
    return "\n".join(lines) + "\n"


def cable_nu_plus_lower(C, p, q):
    """The nu_plus lower bound of the (p,q) cable of the knot of C, or None:
    pq/2 + 1 when max(V_{floor(s/p)}, H_{floor((s-q)/p)}) > 0 for every
    residue s in [0, q), checked one residue at a time."""
    if all(max(V(C, s // p), H(C, (s - q) // p)) > 0 for s in range(q)):
        return p * q // 2 + 1
    return None


def d_invariants(C, spec):
    """The d-invariants of p/q surgery, each slot i shifted by the larger
    of V_{floor(i/q)} and H_{floor((i-p)/q)}, both read."""
    p, q = spec
    return [lens_d(p, q, i) - 2 * max(V(C, i // q), H(C, (i - p) // q)) for i in range(p)]


def invariants_report(text, vk):
    """cfk invariants' report on text over the window vk (None: the
    Seifert-genus window), with V and H reduced at every k of the window."""
    e = kx.parse(text)
    C = kx.build_complex(e)
    rep = genus_report(C, e)
    genus = rep.seifert_genus
    lo, hi = vk if vk is not None else (-genus, genus)
    vals = {k: V(C, k) for k in range(lo, hi + 1)}
    warnings = [f"V table violates V(-k) = V(k) + k at k={k}"
                for k in vals if -k in vals and vals[-k] != vals[k] + k]
    return {
        "expression": kx.to_text(e), "generators": len(C.index().names), "tau": rep.tau,
        "nu": rep.nu, "nu_plus": rep.nu_plus, "epsilon": epsilon(C),
        "V": {str(k): vals[k] for k in sorted(vals)},
        "H": {str(k): V(C, -k) for k in sorted(vals)},
        "hfk": _hfk_rows(C), "sigma": rep.sigma, "g4_lower": rep.g4_lower,
        "g4_upper": rep.g4_upper, "seifert_genus": genus, "warnings": warnings,
    }
