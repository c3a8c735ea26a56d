"""Surgery correction terms, cabling formulas, and the partial signature
calculus used for genus bounds.

All rational arithmetic is exact (fractions.Fraction).  Formulas with
hypotheses raise PreconditionError instead of silently extrapolating.
The records (SurgerySpec, CableBounds, SignatureValue, GenusReport) are
NamedTuples; SurgerySpec refuses a coefficient that is not a reduced p/q
with p, q >= 1.

The d-invariants and the cable lower bound read V, which reads the
complex's verdict (cfk.complexes.verdict, validate's whole answer) before
it reduces a level: on a complex that validate refuses they raise
ValueError with validate's first message, however few levels they read.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple, Optional

from .complexes import BifilteredComplex, dual
from .errors import PreconditionError
from . import expr as kx
from .invariants import V, nu, nu_plus, seifert_genus, tau


def lens_d(p: int, q: int, i: int) -> Fraction:
    """Correction term of the lens space L(p, q) in spin-c slot i.

    The recursion d(L(p, q), i) = ((2i + 1 - p - q)^2 - pq) / 4pq
    - d(L(q, p mod q), i mod q) descends through the Euclidean algorithm
    to d(L(1, q)) = 0.  It runs as a loop that sums the terms with
    alternating signs over one integer denominator, and keeps nothing
    between calls.  The orientation is the one matching p/q surgery on the
    unknot, so e.g. lens_d(2, 1, 0) = 1/4.
    """
    if p < 1 or q < 1 or gcd(p, q) != 1:
        raise ValueError(f"lens space parameters must be coprime and >= 1, got ({p},{q})")
    if not 0 <= i < p:
        raise ValueError(f"spin-c slot {i} out of range for p={p}")
    num, den, sign = 0, 1, 1
    while p != 1:
        scale = 4 * p * q
        num, den = num * scale + sign * ((2 * i + 1 - p - q) ** 2 - p * q) * den, den * scale
        p, q, i, sign = q, p % q, i % q, -sign
    return Fraction(num, den)


class _SurgerySpec(NamedTuple):
    p: int
    q: int


class SurgerySpec(_SurgerySpec):
    """A surgery coefficient p/q, reduced, with p, q >= 1."""
    __slots__ = ()

    def __new__(cls, p: int, q: int) -> SurgerySpec:
        if p < 1 or q < 1:
            raise PreconditionError("surgery coefficient must have p, q >= 1")
        if gcd(p, q) != 1:
            raise PreconditionError(f"surgery coefficient {p}/{q} is not reduced")
        return super().__new__(cls, p, q)

    @classmethod
    def _make(cls, fields) -> SurgerySpec:  # so that _replace checks too
        return cls(*fields)


def surgery_d(C: BifilteredComplex, spec: SurgerySpec, i: int) -> Fraction:
    """Correction term of p/q surgery along the knot of C in spin-c slot i:
    the lens-space value shifted by the larger of two stable towers,
    d(L(p, q), i) - 2 max(V_a, H_b) with a = floor(i/q) and
    b = floor((i - p)/q) (Ni-Wu, "Cosmetic surgeries on knots in S^3").

    H_b = V_{-b} and V is nonincreasing, so the larger tower is V at
    min(a, -b), and only that level is read.  Over all p slots that is
    at most floor(p/(2q)) + 2 distinct levels, since min(a, -b) <= (p/q + 1)/2.
    """
    p, q = spec.p, spec.q
    if not 0 <= i < p:
        raise ValueError(f"spin-c slot {i} out of range for p={p}")
    return lens_d(p, q, i) - 2 * V(C, min(i // q, -((i - p) // q)))


def d_invariants(C: BifilteredComplex, spec: SurgerySpec) -> list[Fraction]:
    return [surgery_d(C, spec, i) for i in range(spec.p)]


def qa_nu_plus(sigma: int) -> int:
    """nu_plus of a quasi-alternating knot from its (even) signature."""
    if sigma % 2:
        raise PreconditionError(f"signature must be even, got {sigma}")
    return 0 if sigma >= 0 else -sigma // 2


def cable_tau(tau_k: int, epsilon_k: int, p: int, q: int) -> int:
    """tau of the (p,q) cable when epsilon = -1: p*tau + (p-1)(q+1)/2."""
    if p < 1 or gcd(p, q) != 1:
        raise ValueError(f"cable parameters must be coprime with p >= 1, got ({p},{q})")
    if epsilon_k != -1:
        raise PreconditionError(
            f"cable tau formula requires epsilon = -1, got {epsilon_k}")
    return p * tau_k + (p - 1) * (q + 1) // 2


class CableBounds(NamedTuple):
    """nu_plus bounds for a (p,q) cable; None means no bound available."""
    p: int
    q: int
    lower: Optional[int]
    upper: Optional[int]


def cable_nu_plus_bounds(C: BifilteredComplex, p: int, q: int,
                         g4_upper: Optional[int] = None) -> CableBounds:
    """Bounds on nu_plus of the (p,q) cable of the knot of C.

    Lower bound pq/2 + 1 applies when every residue class s in [0, q) has
    max(V_{floor(s/p)}, H_{floor((s-q)/p)}) positive; upper bound comes from
    the slice-genus estimate g4(cable) <= p*g4 + (p-1)(q-1)/2 when a g4
    upper bound for the companion is supplied.

    H_b = V_{-b} and V is nonincreasing, so residue s reads V at
    m(s) = min(floor(s/p), ceil((q-s)/p)), and every residue passes exactly
    when V is positive at the largest m(s), which is ceil(q/p) // 2: only
    that level is read.
    """
    if p < 1 or q < 1 or gcd(p, q) != 1:
        raise ValueError(f"cable parameters must be coprime and >= 1, got ({p},{q})")
    lower = p * q // 2 + 1 if V(C, -(-q // p) // 2) > 0 else None
    upper: Optional[int] = None
    if g4_upper is not None:
        if g4_upper < 0:
            raise ValueError("g4 upper bound cannot be negative")
        upper = p * g4_upper + (p - 1) * (q - 1) // 2
    return CableBounds(p, q, lower, upper)


class SignatureValue(NamedTuple):
    """Outcome of the partial signature calculus: the value when the rules
    reach one, None otherwise, plus the derivation or the blocking step."""
    value: Optional[int]
    steps: tuple[str, ...]


def _torus_sigma(p: int, q: int) -> Optional[int]:
    """sigma(T(p, q)) when p or |q| is at most 2, else None.  T(p, -q) is
    the mirror of T(p, q), so its signature is the negative."""
    if q < 0:
        s = _torus_sigma(p, -q)
        return None if s is None else -s
    if p == 1 or q == 1:
        return 0
    if p == 2:
        return 1 - q
    if q == 2:
        return 1 - p
    return None


def signature_eval(e: "kx.KnotExpr") -> SignatureValue:
    """Evaluate the signature of an expression with the partial rule set:
    torus knots with a strand count of at most two, mirrors, connected sums,
    the cabling rule (even p: the torus pattern's signature; odd p: add the
    companion's), and explicit sigma annotations.  Unknown stays unknown."""
    steps: list[str] = []

    def walk(node) -> Optional[int]:
        if isinstance(node, kx.Annotated):
            ann = dict(node.annotations)
            if "sigma" in ann:
                val = ann["sigma"]
                if not isinstance(val, int) or isinstance(val, bool) or val % 2:
                    raise PreconditionError(
                        f"sigma annotation must be an even integer, got {val!r}")
                steps.append(f"sigma({kx.to_text(node.child)}) = {val} [annotation]")
                return val
            return walk(node.child)
        if isinstance(node, kx.Unknot):
            steps.append("sigma(unknot) = 0")
            return 0
        if isinstance(node, kx.Torus):
            s = _torus_sigma(node.p, node.q)
            if s is None:
                steps.append(f"sigma({kx.to_text(node)}) unknown: no torus rule beyond 2 strands")
                return None
            steps.append(f"sigma({kx.to_text(node)}) = {s}")
            return s
        if isinstance(node, kx.Mirror):
            s = walk(node.child)
            if s is None:
                return None
            steps.append(f"mirror flips sign: {-s}")
            return -s
        if isinstance(node, kx.Sum):
            a = walk(node.left)
            b = walk(node.right)
            if a is None or b is None:
                return None
            steps.append(f"sum adds: {a} + {b} = {a + b}")
            return a + b
        if isinstance(node, kx.Cable):
            ts = _torus_sigma(node.p, node.q)
            if ts is None:
                steps.append(
                    f"sigma({kx.to_text(node)}) unknown: torus pattern rule missing")
                return None
            if node.p % 2 == 0:
                steps.append(
                    f"sigma({kx.to_text(node)}) = sigma(torus({node.p},{node.q})) = {ts} "
                    "[even-strand cable rule]")
                return ts
            s = walk(node.companion)
            if s is None:
                return None
            steps.append(
                f"sigma({kx.to_text(node)}) = {s} + {ts} = {s + ts} [odd-strand cable rule]")
            return s + ts
        if isinstance(node, kx.FromFile):
            steps.append(f"sigma({kx.to_text(node)}) unknown: no rule for raw complexes")
            return None
        raise TypeError(f"unexpected expression node {node!r}")

    return SignatureValue(walk(e), tuple(steps))


def g4_upper_annotation(e: "kx.KnotExpr") -> Optional[int]:
    """The g4_upper annotation at the root of e, or None when it has none."""
    val = kx.root_annotations(e).get("g4_upper")
    if val is not None and (isinstance(val, bool) or val < 0):
        raise PreconditionError(
            f"g4_upper annotation must be a nonnegative integer, got {val!r}")
    return val


class GenusReport(NamedTuple):
    tau: int
    nu: int
    nu_plus: int
    nu_plus_mirror: int
    sigma: Optional[int]
    seifert_genus: int
    g4_lower: int
    g4_upper: int
    notes: tuple[str, ...]


def genus_report(C: BifilteredComplex, expression: "kx.KnotExpr | None" = None) -> GenusReport:
    """Four-ball genus bounds for the knot of C.

    Lower bound: the larger of nu_plus on both sides, improved by
    |sigma|/2 (sigma is even) when the signature calculus reaches a value.  Upper
    bound: Seifert genus from the associated graded homology, improved by a
    g4_upper annotation on the expression.
    """
    t = tau(C)
    n = nu(C)
    np_here = nu_plus(C)
    np_mirror = nu_plus(dual(C))
    g3 = seifert_genus(C)
    notes: list[str] = []
    sigma: Optional[int] = None
    g4_annotation: Optional[int] = None
    if expression is not None:
        sig = signature_eval(expression)
        sigma = sig.value
        g4_annotation = g4_upper_annotation(expression)
    lower = max(np_here, np_mirror)
    source = "nu_plus" if np_here >= np_mirror else "nu_plus of the mirror"
    if sigma is not None:
        half = abs(sigma) // 2
        if half > lower:
            lower = half
            source = "signature"
        notes.append(f"signature {sigma} gives lower bound {half}")
    notes.insert(0, f"g4 lower bound {lower} from {source}")
    upper = g3
    notes.append(f"Seifert genus {g3} bounds g4 from above")
    if g4_annotation is not None and g4_annotation < upper:
        upper = g4_annotation
        notes.append(f"g4 upper bound improved to {g4_annotation} by annotation")
    if lower > upper:
        notes.append("warning: lower bound exceeds upper bound; inputs are inconsistent")
    return GenusReport(t, n, np_here, np_mirror, sigma, g3, lower, upper, tuple(notes))
