"""Closed-form V_k of sums of L-space knots, checked against the engine at
sizes the brute-force oracle cannot reach.

For an L-space knot with symmetrized Alexander polynomial sum_s a_s t^s,
V_k is the torsion coefficient sum_{j>=1} j * a_{k+j}.  For a connected sum
of L-space knots, V is the infimal convolution of the summands' V
(Borodzik-Livingston); for the mirror of such a sum, V_k = max(0, -k).
The Alexander polynomials are computed here from the semigroup of the torus
knot and the cabling formula, apart from the library's semigroup walk.
For a positive L-space knot of genus g, V_k for k >= 0 also counts the
gaps of its semigroup at or above g + k (Borodzik-Livingston); those gaps
are read off the polynomial of references.lspace_alexander.

A sum of mixed signs has no such closed form, but K # mirror(K) is slice,
so J # K # mirror(K) is concordant to J and has J's V_k, tau, nu+ and
epsilon at any size.
"""
import pytest

import references
from cfk.expr import build_complex, parse
from cfk.invariants import V, epsilon, nu, nu_plus, tau


def torus_delta(p: int, q: int) -> dict[int, int]:
    """Symmetrized Alexander polynomial of T(p,q) as {exponent: coefficient}:
    t^{-g} ((1 - t) sum of t^s over the semigroup <p,q> below 2g, + t^{2g})."""
    g = (p - 1) * (q - 1) // 2
    coeffs: dict[int, int] = {}
    for s in range(2 * g):
        if any((s - p * a) % q == 0 for a in range(s // p + 1)):
            coeffs[s] = coeffs.get(s, 0) + 1
            coeffs[s + 1] = coeffs.get(s + 1, 0) - 1
    coeffs[2 * g] = coeffs.get(2 * g, 0) + 1
    return {e - g: c for e, c in coeffs.items() if c}


def cable_delta(delta: dict[int, int], p: int, q: int) -> dict[int, int]:
    """delta(t^p) * Delta_{T(p,q)}(t)."""
    out: dict[int, int] = {}
    for e1, c1 in delta.items():
        for e2, c2 in torus_delta(p, q).items():
            out[p * e1 + e2] = out.get(p * e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def torsion_v(delta: dict[int, int], k: int) -> int:
    return sum((s - k) * c for s, c in delta.items() if s > k)


def sum_v(deltas: list[dict[int, int]], k: int) -> int:
    """Infimal convolution of the summands' V at k.  Past a summand's genus
    g its V is linear (0 above g, -k below -g), so splits of k with every
    k_i in [-g_i, g_i], plus the rest on one summand, reach the minimum."""
    best = {0: 0}  # partial sum of k_i -> least partial V
    for delta in deltas[:-1]:
        g = max(delta)
        nxt: dict[int, int] = {}
        for total, v in best.items():
            for ki in range(-g, g + 1):
                cand = v + torsion_v(delta, ki)
                if cand < nxt.get(total + ki, cand + 1):
                    nxt[total + ki] = cand
        best = nxt
    last = deltas[-1]
    return min(v + torsion_v(last, k - total) for total, v in best.items())


T23, T25, T34 = torus_delta(2, 3), torus_delta(2, 5), torus_delta(3, 4)
CABLE = cable_delta(T23, 2, 5)

SUMS = [
    # 5 * 5 * 3 * 3 * 3 = 675 generators, genus 8
    ("torus(2,5) # torus(3,4) # torus(2,3) # torus(2,3) # torus(2,3)",
     [T25, T34, T23, T23, T23], 675),
    # 5 * 5 * 5 * 3 * 3 = 1125 generators, genus 11
    ("cable(2,5,torus(2,3)) # torus(2,5) # torus(3,4) # torus(2,3) # torus(2,3)",
     [CABLE, T25, T34, T23, T23], 1125),
    # 5 * 5 * 5 * 3 * 3 * 3 = 3375 generators, genus 9
    ("torus(2,5) # torus(2,5) # torus(2,5) # torus(2,3) # torus(2,3) # torus(2,3)",
     [T25, T25, T25, T23, T23, T23], 3375),
]

K45 = "torus(2,9) # mirror(cable(2,5,torus(2,3)))"
# (expression, generators, Alexander polynomials of J's L-space summands
# (none: J is the unknot), J's tau and epsilon); a nontrivial sum of
# L-space knots has tau = genus and epsilon = 1
CONCORDANT = [
    (f"{K45} # mirror({K45})", 2025, [], 0, 0),
    ("torus(3,4) # torus(2,5) # torus(2,3) # mirror(torus(2,5) # torus(2,3))",
     1125, [T34], 3, 1),
    ("torus(3,4) # torus(2,5) # torus(2,3) # mirror(torus(2,5) # torus(2,3)) # torus(2,3)",
     3375, [T34, T23], 4, 1),
]


def test_torsion_coefficients_of_small_knots():
    assert T23 == {1: 1, 0: -1, -1: 1}
    assert CABLE == {4: 1, 3: -1, 0: 1, -3: -1, -4: 1}
    assert [torsion_v(T23, k) for k in range(-2, 3)] == [2, 1, 1, 0, 0]
    assert [torsion_v(torus_delta(2, 9), k) for k in range(0, 5)] == [2, 2, 1, 1, 0]
    assert [sum_v([T23, T23], k) for k in range(-3, 4)] == [3, 2, 2, 1, 1, 0, 0]


@pytest.mark.parametrize("text, deltas, size", SUMS)
def test_positive_sum_matches_infimal_convolution(text, deltas, size):
    C = build_complex(parse(text))
    assert len(C.generators) == size
    genus = sum(max(d) for d in deltas)
    expected = {k: sum_v(deltas, k) for k in range(-2, genus + 1)}
    assert {k: V(C, k) for k in expected} == expected
    least = next(k for k in range(genus + 1) if sum_v(deltas, k) == 0)
    assert nu_plus(C) == least


@pytest.mark.parametrize("text, deltas, size", SUMS)
def test_mirrored_sum_has_trivial_v(text, deltas, size):
    C = build_complex(parse(f"mirror({text})"))
    assert len(C.generators) == size
    assert {k: V(C, k) for k in range(-3, 4)} == {k: max(0, -k) for k in range(-3, 4)}
    assert nu_plus(C) == 0


@pytest.mark.parametrize("text, size, deltas, tau_j, epsilon_j", CONCORDANT)
def test_sum_with_a_slice_summand_has_the_invariants_of_j(text, size, deltas, tau_j, epsilon_j):
    C = build_complex(parse(text))
    assert len(C.generators) == size
    v_j = {k: sum_v(deltas, k) if deltas else max(0, -k) for k in range(-3, 10)}
    assert {k: V(C, k) for k in range(-3, 4)} == {k: v_j[k] for k in range(-3, 4)}
    least = next(k for k in range(10) if v_j[k] == 0)
    assert (tau(C), nu_plus(C), epsilon(C)) == (tau_j, least, epsilon_j)
    if not deltas:
        assert nu(C) == 0 and nu_plus(build_complex(parse(f"mirror({text})"))) == 0


def semigroup_gaps(text: str) -> tuple[int, list[int]]:
    """The genus g of an L-space expression and its semigroup's gaps: the
    k in [0, 2g) where the coefficients of t^g Delta(t) up to t^k sum to 0,
    Delta from the reference cable formula."""
    delta = references.lspace_alexander(parse(text))
    g = delta.degree()
    gaps, run = [], 0
    for k in range(2 * g):
        run += delta.coeff(k - g)
        if not run:
            gaps.append(k)
    return g, gaps


@pytest.mark.parametrize("text", ["torus(2,97)", "cable(2,99,torus(2,3))", "torus(3,58)",
                                  "torus(2,201)"])
def test_positive_lspace_knot_v_counts_semigroup_gaps(text):
    """V_k = #{gaps >= g + k} at every k from 0 to g + 1."""
    g, gaps = semigroup_gaps(text)
    assert len(gaps) == g and gaps[0] == 1 and gaps[-1] == 2 * g - 1
    C = build_complex(parse(text))
    assert [V(C, k) for k in range(g + 2)] == [
        sum(gap >= g + k for gap in gaps) for k in range(g + 2)]

