"""Closed forms for the knots the benchmark feeds to cfk, computed without cfk.

A benchmark knot is a connected sum of L-space knots (torus knots and
sufficiently positive cables of them) and their mirrors.  Everything the
checks need follows from the factors' Alexander polynomials and a few
concordance facts:

* the Alexander polynomial of T(p,q) from its semigroup <p,q>, since
  Delta(t) / (1 - t) = sum of t^s over s in <p,q>; of a (p,q)-cable from
  Delta_K(t^p) * Delta_T(p,q)(t);
* hat-flavor knot Floer ranks of an L-space knot from the staircase
  gradings (Ozsvath-Szabo), of a mirror by negating both gradings, and of
  a sum as the product of the Poincare polynomials (Kunneth); tau, the
  Seifert genus and the generator and term counts likewise add or multiply;
* V_k of an L-space knot from its torsion coefficients,
  V_k = sum_{j >= 1} j * a_{k+j}, and of a positive sum by infimal
  convolution of the summands' V (Borodzik-Livingston); for the mirror of
  such a sum V_k = max(0, -k);
* concordance invariants up to local equivalence: K # mirror(K) is slice,
  so such pairs cancel; a sum of two-strand torus knots and their mirrors
  is alternating, hence thin, and behaves like T(2, 2 tau + 1) or its
  mirror (Petkova); and a thin part with tau = 4 plus
  mirror(cable(2,5,torus(2,3))) behaves like the source paper's
  45-generator example, with tau = 0, nu = 1, nu+ = 2 and epsilon = -1.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import ceil, gcd, prod


def _poly_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def torus_alexander(p: int, q: int) -> dict[int, int]:
    """Symmetrized Alexander polynomial of T(p,q), exponent -> coefficient.

    The semigroup <p,q> contains every integer from 2g = (p-1)(q-1) on, so
    (1 - t) * sum_{s in <p,q>} t^s = sum_{s < 2g} (t^s - t^{s+1}) + t^{2g}.
    """
    two_g = (p - 1) * (q - 1)
    coeffs = {two_g: 1}
    small = {a * p + b * q for a in range(two_g // p + 1) for b in range(two_g // q + 1)}
    for s in small:
        if s < two_g:
            coeffs[s] = coeffs.get(s, 0) + 1
            coeffs[s + 1] = coeffs.get(s + 1, 0) - 1
    return {e - two_g // 2: c for e, c in coeffs.items() if c}


def cable_alexander(delta: dict[int, int], p: int, q: int) -> dict[int, int]:
    """Alexander polynomial of the (p,q)-cable: Delta(t^p) * Delta_T(p,q)(t)."""
    return _poly_mul({e * p: c for e, c in delta.items()}, torus_alexander(p, q))


def lens_d(p: int, i: int) -> Fraction:
    """d(L(p,1), i) = ((2i - p)^2 - p) / 4p, the orientation of +p surgery
    on the unknot."""
    return Fraction((2 * i - p) ** 2 - p, 4 * p)


@dataclass(frozen=True)
class Factor:
    """A positive L-space knot: its cfk expression, Alexander polynomial and
    signature (None where cfk's signature rules do not reach)."""
    expr: str
    alexander: tuple[tuple[int, int], ...]
    two_strand: bool
    signature: int | None

    @property
    def genus(self) -> int:
        return max(e for e, _c in self.alexander)

    @property
    def generators(self) -> int:
        return len(self.alexander)

    def V(self, k: int) -> int:
        """Torsion coefficient sum_{j >= 1} j * a_{k+j}."""
        return sum((e - k) * c for e, c in self.alexander if e > k)

    def hfk(self) -> dict[tuple[int, int], int]:
        """(Alexander, Maslov) -> rank.  With exponents n_0 > ... > n_2m the
        gradings are d_0 = 0, d_{2l+1} = d_{2l} - 2(n_{2l} - n_{2l+1}) + 1
        and d_{2l} = d_{2l-1} - 1."""
        ns = sorted((e for e, _c in self.alexander), reverse=True)
        out, d = {}, 0
        for idx, n in enumerate(ns):
            if idx % 2:
                d += 1 - 2 * (ns[idx - 1] - n)
            elif idx:
                d -= 1
            out[(n, d)] = 1
        return out


def torus(p: int, q: int) -> Factor:
    if p < 2 or q < 2 or gcd(p, q) != 1:
        raise ValueError(f"torus({p},{q}) is not a nontrivial torus knot")
    p, q = min(p, q), max(p, q)
    return Factor(f"torus({p},{q})", tuple(sorted(torus_alexander(p, q).items())),
                  two_strand=p == 2, signature=1 - q if p == 2 else None)


def cable(p: int, q: int, companion: Factor) -> Factor:
    """(p,q)-cable of an L-space knot; an L-space knot when q >= p(2g - 1).
    Litherland's formula gives the signature of a 2-strand cable as that of
    T(2,q)."""
    if gcd(p, q) != 1 or q < p * (2 * companion.genus - 1):
        raise ValueError(f"cable({p},{q},{companion.expr}) is not an L-space knot")
    delta = cable_alexander(dict(companion.alexander), p, q)
    return Factor(f"cable({p},{q},{companion.expr})", tuple(sorted(delta.items())),
                  two_strand=False, signature=1 - q if p == 2 else None)


def _V_positive(factors: list[Factor]) -> dict[int, int]:
    """V_k of a sum of L-space knots for |k| <= its genus, by infimal
    convolution.  Past +-g a summand's V is 0 or grows with slope one while
    V is nonincreasing with steps of at most one, so the minimum over
    splits is reached inside [-g, g] of the added summand."""
    table, G = {0: 0}, 0

    def at(k: int) -> int:
        return table[k] if -G <= k <= G else max(0, -k)

    for f in factors:
        g = f.genus
        vf = {j: f.V(j) for j in range(-g, g + 1)}
        G2 = G + g
        table = {k: min(at(k - j) + vf[j] for j in range(-g, g + 1))
                 for k in range(-G2, G2 + 1)}
        G = G2
    return table


PAPER_CABLE = "cable(2,5,torus(2,3))"


@dataclass(frozen=True)
class Knot:
    """Connected sum of L-space knots and mirrors, left to right."""
    factors: tuple[Factor, ...]
    mirrored: tuple[bool, ...]
    g4_upper: int | None = None

    @property
    def expr(self) -> str:
        body = " # ".join(f"mirror({f.expr})" if m else f.expr
                          for f, m in zip(self.factors, self.mirrored))
        return body if self.g4_upper is None else f"{{{body} @ g4_upper={self.g4_upper}}}"

    @property
    def genus(self) -> int:
        return sum(f.genus for f in self.factors)

    @property
    def tau(self) -> int:
        """tau is additive; genus for an L-space knot, negated for a mirror."""
        return sum(-f.genus if m else f.genus for f, m in zip(self.factors, self.mirrored))

    @property
    def generators(self) -> int:
        return prod(f.generators for f in self.factors)

    @property
    def terms(self) -> int:
        """A staircase on n generators has n - 1 arrows, and the tensor
        product has terms(A) * gens(B) + gens(A) * terms(B)."""
        gens, terms = 1, 0
        for f in self.factors:
            gens, terms = gens * f.generators, terms * f.generators + gens * (f.generators - 1)
        return terms

    @property
    def signature(self) -> int | None:
        sigs = [f.signature for f in self.factors]
        if None in sigs:
            return None
        return sum(-s if m else s for s, m in zip(sigs, self.mirrored))

    @cached_property
    def hfk(self) -> dict[tuple[int, int], int]:
        table = {(0, 0): 1}
        for f, m in zip(self.factors, self.mirrored):
            sign = -1 if m else 1
            nxt: dict[tuple[int, int], int] = {}
            for (a1, m1), r1 in table.items():
                for (a2, m2), r2 in f.hfk().items():
                    key = (a1 + sign * a2, m1 + sign * m2)
                    nxt[key] = nxt.get(key, 0) + r1 * r2
            table = nxt
        return table

    @cached_property
    def local_class(self) -> tuple[str, tuple[Factor, ...]]:
        """("positive" | "negative", L-space factors) for a knot locally
        equivalent to that sum of L-space knots or its mirror, or
        ("paper", ()) for the class of the paper's example."""
        rest = list(zip(self.factors, self.mirrored))
        for f, m in list(rest):
            if (f, m) in rest and (f, not m) in rest:
                rest.remove((f, m))
                rest.remove((f, not m))
        if all(not m for _f, m in rest):
            return "positive", tuple(f for f, _m in rest)
        if all(m for _f, m in rest):
            return "negative", tuple(f for f, _m in rest)
        thin = [(f, m) for f, m in rest if f.two_strand]
        thin_tau = sum(-f.genus if m else f.genus for f, m in thin)
        other = [(f.expr, m) for f, m in rest if not f.two_strand]
        if not other:
            t23 = torus(2, 3)
            return ("positive" if thin_tau >= 0 else "negative"), (t23,) * abs(thin_tau)
        if other == [(PAPER_CABLE, True)] and thin_tau == 4:
            return "paper", ()
        raise ValueError(f"no closed form for the concordance class of {self.expr}")

    @property
    def nu(self) -> int:
        kind, _ = self.local_class
        return self.tau + (kind != "positive")

    @property
    def epsilon(self) -> int:
        kind, _ = self.local_class
        if kind == "positive":
            return 1 if self.tau > 0 else 0
        if kind == "negative":
            return -1 if self.tau < 0 else 0
        return -1

    @cached_property
    def _V_table(self) -> tuple[dict[int, int], int] | None:
        kind, factors = self.local_class
        if kind == "positive":
            return _V_positive(list(factors)), sum(f.genus for f in factors)
        if kind == "negative":
            return {0: 0}, 0
        return None

    def V(self, k: int) -> int:
        """V_k in closed form; ValueError for the paper's class, whose V the
        benchmark takes from cfk's brute-force oracle instead."""
        if self._V_table is None:
            raise ValueError(f"no closed-form V for {self.expr}")
        table, G = self._V_table
        return table[k] if -G <= k <= G else max(0, -k)

    def mirror(self) -> "Knot":
        return Knot(self.factors, tuple(not m for m in self.mirrored))


def nu_plus_of(V) -> int:
    """Least k >= 0 with V(k) = 0, for any V function."""
    k = 0
    while V(k):
        k += 1
    return k


def g4_bounds(nu_plus: int, nu_plus_mirror: int, knot: Knot) -> tuple[int, int]:
    """cfk's g4 bounds: the larger nu+ or half the signature from below, the
    Seifert genus or the g4_upper annotation from above."""
    lower = max(nu_plus, nu_plus_mirror)
    if knot.signature is not None:
        lower = max(lower, ceil(abs(knot.signature) / 2))
    upper = knot.genus if knot.g4_upper is None else min(knot.genus, knot.g4_upper)
    return lower, upper
