import random
import time

import pytest

from conftest import cable_staircase, torus_staircase
from cfk import oracle
from cfk.complexes import BifilteredComplex, dual, tensor, unknot_complex
from cfk.invariants import V, a_minus, homology_over_U


CURATED = [
    unknot_complex(),
    torus_staircase(2, 3),
    torus_staircase(2, 5),
    torus_staircase(3, 4),
    cable_staircase(),
    dual(torus_staircase(2, 5)),
    dual(cable_staircase()),
]


def test_both_readoffs_agree_on_curated_fixtures():
    for C in CURATED:
        for k in range(-4, 5):
            v = V(C, k)
            assert oracle.v_by_u_rank(C, k) == v, (C.label, k)
            assert homology_over_U(a_minus(C, k)) == (-2 * v,), (C.label, k)


def test_pattern_readoff_counterexample():
    # mirror(T23) # T23 # T23 is the trefoil plus an acyclic summand, so
    # V_1 = V_1(T23) = 0.  Its A^-_1 homology carries one U-torsion class
    # at the same grading as the tower top, which would fool a plain
    # dimension-pattern read-off; the U-power read-off sees through it.
    C = tensor(tensor(dual(torus_staircase(2, 3)),
                      torus_staircase(2, 3, prefix="y")),
               torus_staircase(2, 3, prefix="z"))
    assert homology_over_U(a_minus(C, 1)) == (0,)
    assert V(C, 1) == 0
    assert oracle.v_by_u_rank(C, 1) == 0


def test_oracle_equivalence_on_random_tensor_products():
    # twenty pseudo-random products of small staircases and their mirrors,
    # checked against the reduction engine; independent path: dense F2
    # elimination on the truncated expansion + U-power rank read-off
    start = time.monotonic()
    rng = random.Random(411)
    pool = [torus_staircase(2, 3), torus_staircase(2, 5),
            dual(torus_staircase(2, 3, prefix="y")),
            dual(torus_staircase(2, 5, prefix="y"))]
    for trial in range(20):
        C = pool[rng.randrange(len(pool))]
        for n in range(rng.choice([1, 2])):
            other = pool[rng.randrange(len(pool))]
            C = tensor(C, other)
        k = rng.randint(-3, 3)
        v = V(C, k)
        assert oracle.v_by_u_rank(C, k) == v, (trial, C.label, k)
        assert homology_over_U(a_minus(C, k)) == (-2 * v,), (trial, C.label, k)
    assert time.monotonic() - start < 20.0


def test_empty_complex_is_refused():
    with pytest.raises(oracle.OracleError, match="^empty complex$"):
        oracle.v_by_u_rank(BifilteredComplex([], []), 0)
