"""Integer Laurent polynomials and Alexander-polynomial constructors.

Polynomials are stored sparsely as {exponent: coefficient} with zero
coefficients dropped, so equality is structural.  Everything here is exact
integer arithmetic; no floats anywhere.  A torus knot's polynomial is read
off the semigroup <p, q> of the singularity x^p = y^q, whose Poincare
series is Delta(t) / (1 - t) (Campillo, Delgado and Gusein-Zade, "The
Alexander polynomial of a plane curve singularity via the ring of
functions on it", 2003), so no polynomial is divided.
"""
from __future__ import annotations

from math import gcd
from typing import Iterable, Mapping, Optional


class LaurentPoly:
    """Laurent polynomial in one variable t with int coefficients."""

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
