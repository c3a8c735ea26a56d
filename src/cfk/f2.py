"""Dense GF(2) linear algebra on Python-int bitmask rows.

A matrix is a list of ints; bit j of rows[i] is the (i, j) entry.  Vectors
over the column space are single ints.  XOR on bigints keeps this fast well
past the sizes the invariant engines need.
"""
from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence


def rank(rows: list[int]) -> int:
    """Rank of the matrix with the given rows.

    Pivots are kept in a dict keyed by their lowest set bit.  A row is
    reduced by XORing in the pivot that owns its current lowest bit, which
    clears that bit and raises the lowest bit, until the row vanishes or
    its lowest bit is new and the row becomes a pivot.  A row thus meets
    only the pivots it hits, not every earlier pivot.
    """
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            low = row & -row
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = row
                break
            row ^= piv
    return len(pivots)


def solve(rows: list[int], ncols: int, rhs: int) -> int | None:
    """One solution x (bitmask over columns) of A x = b, or None.

    rows[i] is row i of A over the first ncols bits; bit i of rhs is b[i].
    Free variables are set to zero.
    """
    mat_mask = (1 << ncols) - 1
    reduced: list[int] = []  # rows with distinct leading bits, rhs in bit ncols+
    for i, row in enumerate(rows):
        aug = (row & mat_mask) | (((rhs >> i) & 1) << ncols)
        for piv in reduced:
            lead = piv & -piv
            if aug & lead:
                aug ^= piv
        if aug & mat_mask:
            reduced.append(aug)
        elif aug:
            return None  # 0 = 1 row
    # back-substitute: make each pivot column appear in exactly one row
    reduced.sort(key=lambda r: r & -r)
    for idx in range(len(reduced) - 1, -1, -1):
        lead = reduced[idx] & -reduced[idx]
        for j in range(idx):
            if reduced[j] & lead:
                reduced[j] ^= reduced[idx]
    x = 0
    for row in reduced:
        if row >> ncols:
            x |= row & -row
    return x


def kernel_basis(rows: list[int], ncols: int) -> list[int]:
    """Basis of the null space of A, as column bitmasks."""
    cols = [0] * ncols
    for i, row in enumerate(rows):
        r = row
        while r:
            low = r & -r
            cols[low.bit_length() - 1] |= 1 << i
            r ^= low
    reduced: list[tuple[int, int]] = []  # (column vector, combination record)
    kernel: list[int] = []
    for j in range(ncols):
        v = cols[j]
        comb = 1 << j
        for vec, c in reduced:
            if v & (vec & -vec):
                v ^= vec
                comb ^= c
        if v:
            reduced.append((v, comb))
        else:
            kernel.append(comb)
    return kernel


def places(grading: Iterable[Hashable]) -> tuple[list[int], dict[Hashable, int]]:
    """Each basis element's place among the elements of its grading key, in
    basis order (its row or column in that key's block of a graded matrix),
    and the number of elements of each key."""
    place: list[int] = []
    sizes: dict[Hashable, int] = {}
    for key in grading:
        count = sizes.get(key, 0)
        place.append(count)
        sizes[key] = count + 1
    return place, sizes


def graded_homology_dims(grading: Sequence[Hashable], sources: Iterable[int],
                         targets: Iterable[int]) -> dict[Hashable, int]:
    """Nonzero homology dimensions, by grading key, of a graded F2 complex.

    Basis element p has grading key grading[p]; each pair of basis
    positions (sources[e], targets[e]) is one entry of the differential,
    which must carry all of a grading key into a single other key.
    dim H_key = size - rank(out of key) - rank(into key).
    """
    place, dims = places(grading)
    rows = [0] * len(grading)
    target_key: dict[Hashable, Hashable] = {}
    for s, t in zip(sources, targets):
        rows[s] ^= 1 << place[t]
        target_key[grading[s]] = grading[t]
    blocks: dict[Hashable, list[int]] = {}
    for key, row in zip(grading, rows):  # rows in basis order
        if row:
            blocks.setdefault(key, []).append(row)
    for key, block in blocks.items():
        r = rank(block)
        dims[key] -= r
        dims[target_key[key]] -= r
    return {key: h for key, h in dims.items() if h}
