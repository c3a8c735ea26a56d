import random

import references
from cfk import f2
from cfk.complexes import BifilteredComplex, validate
from cfk.f2 import kernel_basis, pairs, rank, solve
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
    """rank, kernel_basis and solve against plain elimination and the
    back-substituting references they replaced."""
    rng = random.Random(1207)
    for _ in range(300):
        nrows = rng.randint(0, 24)
        ncols = rng.randint(1, 24)
        rows = [rng.getrandbits(ncols) & rng.getrandbits(ncols) for _ in range(nrows)]
        rows += [rows[rng.randrange(nrows)] ^ rows[rng.randrange(nrows)]
                 for _ in range(rng.randint(0, 4) if rows else 0)]
        r = rank(rows)
        assert r == reference_rank(rows)
        kernel, expected = kernel_basis(rows, ncols), references.kernel_basis(rows, ncols)
        assert len(kernel) == len(expected) == ncols - r
        # every kernel vector annihilates every row, and both span one space
        for v in kernel:
            check(rows, v, 0)
        assert reference_rank(kernel + expected) == len(expected)
        # any combination of columns is recoverable by solve
        pick = rng.getrandbits(ncols)
        rhs = 0
        for i, row in enumerate(rows):
            rhs |= (bin(row & pick).count("1") % 2) << i
        x = solve(rows, ncols, rhs)
        assert x is not None and references.solve(rows, ncols, rhs) is not None
        check(rows, x, rhs)
        # a random right-hand side is solvable exactly when the reference solves it
        rhs = rng.getrandbits(len(rows) + 2)
        x = solve(rows, ncols, rhs)
        assert (x is None) == (references.solve(rows, ncols, rhs) is None)
        if x is not None:
            check(rows, x, rhs)


def test_pairs_matches_plain_elimination():
    """Each reduced column is its original plus earlier originals; it is
    zero exactly when the original depends on the earlier ones, and owns
    its highest bit otherwise.  The pivot table lists each column's lead
    at its bit length, -1 elsewhere, and matches the dict table of the
    reference kernel."""
    rng = random.Random(3301)
    for _ in range(200):
        width = rng.randint(1, 40)
        cols = [rng.getrandbits(width) & rng.getrandbits(width)
                for _ in range(rng.randint(0, 40))]
        for _ in range(rng.randint(0, 8) if cols else 0):
            cols.insert(rng.randrange(len(cols) + 1),
                        cols[rng.randrange(len(cols))] ^ cols[rng.randrange(len(cols))])
        reduced = cols[:]
        owner = pairs(reduced, width)
        assert len(owner) == width + 1
        assert width + 1 - owner.count(-1) == sum(1 for c in reduced if c) == reference_rank(cols)
        table = [-1] * (width + 1)
        for s, c in enumerate(reduced):
            if c:
                table[c.bit_length()] = s
        assert owner == table
        dict_reduced = cols[:]
        by_lead = references.pairs(dict_reduced)
        assert dict_reduced == reduced
        assert by_lead == {lead: s for lead, s in enumerate(owner) if s >= 0}
        for s, c in enumerate(reduced):
            before = reference_rank(cols[:s])
            assert reference_rank(cols[:s + 1]) == before + (c != 0)
            assert reference_rank(cols[:s] + [c ^ cols[s]]) == before


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
    """The column blocks that validate's vertical stage and HFK-hat hand to
    f2.pairs reduce to as many nonzero columns as the reference
    elimination's rank."""
    blocks = []
    real_pairs = f2.pairs

    def recording_pairs(cols, width):
        block = list(cols)
        owner = real_pairs(cols, width)
        blocks.append((block, len(cols) - cols.count(0)))
        return owner

    monkeypatch.setattr(f2, "pairs", recording_pairs)
    C = BifilteredComplex(knot_225.generators, knot_225.terms)  # empty memo
    assert validate(C) == []
    hfk_hat(C)
    nonzero = [block for block, _found in blocks if any(block)]
    assert len(nonzero) > 10
    assert max(len(block) for block in nonzero) > 20
    for block, found in blocks:
        assert found == reference_rank(block)
