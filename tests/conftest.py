import pytest

from cfk.complexes import dual, staircase, tensor
from cfk.expr import Cable, Torus, lspace_exponents


def torus_staircase(p, q, prefix="x"):
    return staircase(lspace_exponents(Torus(p, q)), prefix=prefix)


def cable_staircase(prefix="x"):
    # the (2,5)-cable of the trefoil
    return staircase(lspace_exponents(Cable(2, 5, Torus(2, 3))), prefix=prefix)


@pytest.fixture(scope="session")
def trefoil():
    return torus_staircase(2, 3)


@pytest.fixture(scope="session")
def knot_45():
    # T(2,9) # mirror of the (2,5)-cable of the trefoil
    return tensor(torus_staircase(2, 9), dual(cable_staircase(prefix="y")))


@pytest.fixture(scope="session")
def knot_225():
    # T(2,5) # T(2,3) # T(2,3) # mirror of the (2,5)-cable of the trefoil
    K = tensor(torus_staircase(2, 5), torus_staircase(2, 3, prefix="y"))
    K = tensor(K, torus_staircase(2, 3, prefix="z"))
    return tensor(K, dual(cable_staircase(prefix="w")))
