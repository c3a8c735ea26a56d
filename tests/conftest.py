import pytest

from cfk.complexes import dual, staircase, tensor
from cfk.expr import Cable, Torus, lspace_exponents


def torus_staircase(p, q, prefix="x"):
    return staircase(lspace_exponents(Torus(p, q)), prefix=prefix)


def cable_staircase(prefix="x"):
    # the (2,5)-cable of the trefoil
    return staircase(lspace_exponents(Cable(2, 5, Torus(2, 3))), prefix=prefix)


LSPACE_KNOTS = ("torus(2,3)", "torus(2,5)", "torus(3,4)", "torus(2,7)",
                "cable(2,5,torus(2,3))")


def random_sums(rng, count):
    """count expressions: sums of one to three of LSPACE_KNOTS, each
    mirrored at random, then K # mirror(K) for each K, and J # K # mirror(K)
    for a random J and K."""
    def signed(knot):
        return f"mirror({knot})" if rng.random() < 0.5 else knot

    texts = [" # ".join(signed(rng.choice(LSPACE_KNOTS)) for _ in range(rng.randint(1, 3)))
             for _ in range(count)]
    texts += [f"{knot} # mirror({knot})" for knot in LSPACE_KNOTS]
    texts += [f"{signed(rng.choice(LSPACE_KNOTS))} # {knot} # mirror({knot})"
              for knot in LSPACE_KNOTS]
    return texts


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
