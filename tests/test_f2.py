import random

from cfk import f2
from cfk.complexes import BifilteredComplex, validate
from cfk.f2 import kernel_basis, rank, solve
from cfk.invariants import hfk_hat


def check(rows, x, rhs):
    """A x == rhs, bit i of rhs read against row i."""
    for i, row in enumerate(rows):
        assert bin(row & x).count("1") % 2 == (rhs >> i) & 1, (i, row, x)


def test_rank_small_matrices():
    assert rank([]) == 0
    assert rank([0b0]) == 0
    assert rank([0b1, 0b10, 0b11]) == 2
    assert rank([0b101, 0b011, 0b110]) == 2
    assert rank([0b1, 0b10, 0b100]) == 3


def test_solve_consistent_and_inconsistent():
    rows = [0b011, 0b110]
    x = solve(rows, 3, 0b01)
    assert x is not None
    check(rows, x, 0b01)
    x = solve(rows, 3, 0b11)
    assert x is not None
    check(rows, x, 0b11)
    # the same equation twice with different right-hand sides
    assert solve([0b011, 0b011], 3, 0b01) is None
    assert solve([], 3, 0) == 0
    assert solve([0b0], 3, 0b1) is None


def test_kernel_basis_dimensions():
    # x + y = 0, y + z = 0 over columns (x, y, z): kernel = span{(1,1,1)}
    cols = kernel_basis([0b011, 0b110], 3)
    assert len(cols) == 1
    assert cols[0] == 0b111
    assert kernel_basis([0b1, 0b10, 0b100], 3) == []
    assert sorted(kernel_basis([], 2)) == [0b01, 0b10]


def test_rank_nullity_and_solve_random():
    rng = random.Random(1207)
    for _ in range(40):
        nrows = rng.randint(0, 8)
        ncols = rng.randint(1, 10)
        rows = [rng.getrandbits(ncols) for _ in range(nrows)]
        assert rank(rows) + len(kernel_basis(rows, ncols)) == ncols
        # every kernel vector annihilates every row
        for v in kernel_basis(rows, ncols):
            check(rows, v, 0)
        # any combination of columns is recoverable by solve
        pick = rng.getrandbits(ncols)
        rhs = 0
        for i, row in enumerate(rows):
            rhs |= (bin(row & pick).count("1") % 2) << i
        x = solve(rows, ncols, rhs)
        assert x is not None
        check(rows, x, rhs)


def reference_rank(rows):
    """Plain elimination: each row meets every earlier pivot in turn."""
    reduced = []
    for row in rows:
        for piv in reduced:
            if row & (piv & -piv):
                row ^= piv
        if row:
            reduced.append(row)
    return len(reduced)


def test_rank_matches_reference_elimination_on_random_matrices():
    rng = random.Random(2405)
    for density in (0.01, 0.05, 0.2, 0.5):
        for _ in range(60):
            nrows, ncols = rng.randint(0, 300), rng.randint(1, 300)
            rows = [sum(1 << j for j in range(ncols) if rng.random() < density)
                    for _ in range(nrows)]
            assert rank(rows) == reference_rank(rows), (density, nrows, ncols)
    # dependent rows: sums of a few random rows appended and shuffled
    for _ in range(40):
        ncols = rng.randint(1, 300)
        rows = [rng.getrandbits(ncols) for _ in range(rng.randint(1, 150))]
        rows += [rows[rng.randrange(len(rows))] ^ rows[rng.randrange(len(rows))]
                 for _ in range(rng.randint(0, 150))]
        rng.shuffle(rows)
        assert rank(rows) == reference_rank(rows)


def test_rank_matches_reference_elimination_on_vertical_blocks(monkeypatch, knot_225):
    blocks = []
    real_rank = f2.rank

    def recording_rank(rows):
        blocks.append(list(rows))
        return real_rank(rows)

    monkeypatch.setattr(f2, "rank", recording_rank)
    C = BifilteredComplex(knot_225.generators, knot_225.terms)  # empty memo
    assert validate(C) == []
    hfk_hat(C)
    assert len(blocks) > 10
    assert max(len(b) for b in blocks) > 20
    for block in blocks:
        assert real_rank(block) == reference_rank(block)
