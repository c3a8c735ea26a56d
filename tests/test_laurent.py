from math import gcd

import pytest

import references
from cfk.laurent import (LaurentPoly, cable_alexander, is_lspace_form,
                         substitute_power, torus_alexander)


def poly(coeffs):
    return LaurentPoly(coeffs)


def test_arithmetic_basics():
    p = poly({1: 1, 0: 1})
    q = poly({1: 1, -1: 1})
    assert p - p == LaurentPoly.zero()
    assert p + p == poly({1: 2, 0: 2})
    assert p * q == poly({2: 1, 1: 1, 0: 1, -1: 1})
    assert p - q == poly({0: 1, -1: -1})
    assert p * LaurentPoly.one() == p
    assert p.degree() == 1 and q.min_degree() == -1
    assert poly({3: 1, 0: 1, -2: 1}).support() == [3, 0, -2]
    assert poly({2: 1}) + poly({2: -1}) == LaurentPoly.zero()
    assert poly({2: 0}).is_zero()


def test_substitute_power():
    p = poly({2: 1, -1: 1, 0: 1})
    assert substitute_power(p, 3) == poly({6: 1, -3: 1, 0: 1})
    assert substitute_power(LaurentPoly.one(), 5) == LaurentPoly.one()
    with pytest.raises(ValueError):
        substitute_power(p, 0)


def test_torus_alexander_frozen_values():
    assert torus_alexander(2, 3) == poly({1: 1, 0: -1, -1: 1})
    assert torus_alexander(2, 5) == poly({2: 1, 1: -1, 0: 1, -1: -1, -2: 1})
    assert torus_alexander(2, 9) == poly(
        {k: 1 if k % 2 == 0 else -1 for k in range(-4, 5)})
    assert torus_alexander(3, 4) == poly({3: 1, 2: -1, 0: 1, -2: -1, -3: 1})
    assert torus_alexander(3, 5) == poly(
        {4: 1, 3: -1, 1: 1, 0: -1, -1: 1, -3: -1, -4: 1})
    # unknotted cases collapse to 1
    assert torus_alexander(1, 7) == LaurentPoly.one()


def test_torus_alexander_symmetry_and_division():
    for (p, q) in [(2, 3), (2, 5), (2, 7), (2, 9), (3, 4), (3, 5), (4, 5)]:
        delta = torus_alexander(p, q)
        # symmetric under t -> 1/t
        assert delta == LaurentPoly({-e: c for e, c in delta.coeffs.items()})
        assert delta.degree() == (p - 1) * (q - 1) // 2
        # multiply back: delta * (t^p - 1)(t^q - 1) == t^-shift * (t^pq - 1)(t - 1)
        shift = (p - 1) * (q - 1) // 2
        lhs = delta * poly({p: 1, 0: -1}) * poly({q: 1, 0: -1})
        rhs = (poly({p * q: 1, 0: -1}) * poly({1: 1, 0: -1})
               * LaurentPoly.monomial(-shift))
        assert lhs == rhs


def test_torus_alexander_matches_the_division_reference():
    """The semigroup closed form against (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1))."""
    for p in range(1, 13):
        for q in range(1, 61):
            if gcd(p, q) == 1:
                assert torus_alexander(p, q) == references.torus_alexander(p, q), (p, q)


def test_torus_alexander_rejects_bad_parameters():
    with pytest.raises(ValueError):
        torus_alexander(2, 4)
    with pytest.raises(ValueError):
        torus_alexander(0, 3)
    with pytest.raises(ValueError):
        torus_alexander(2, -3)


def test_cable_alexander_frozen():
    delta = cable_alexander(torus_alexander(2, 3), 2, 5)
    assert delta == poly({4: 1, 3: -1, 0: 1, -3: -1, -4: 1})
    # 1-cables change nothing
    assert cable_alexander(torus_alexander(2, 3), 1, 7) == torus_alexander(2, 3)


def test_is_lspace_form():
    for delta in [LaurentPoly.one(), torus_alexander(2, 3), torus_alexander(3, 5),
                  cable_alexander(torus_alexander(2, 3), 2, 5)]:
        ok, exps = is_lspace_form(delta)
        assert ok
        assert list(exps) == sorted(exps, reverse=True)
        assert len(exps) % 2 == 1
        assert exps[0] == delta.degree()
    # even number of terms
    assert is_lspace_form(poly({1: 1, 0: -1}))[0] is False
    # right shape but a coefficient off
    assert is_lspace_form(poly({1: 1, 0: 1, -1: 1}))[0] is False
    # not symmetric
    assert is_lspace_form(poly({2: 1, 1: -1, 0: 1}))[0] is False
    # zero
    assert is_lspace_form(LaurentPoly.zero())[0] is False
