"""GF(2) linear algebra on Python-int bitmasks, over one reduction kernel.

A vector is one int: bit i is its i-th entry.  ``pairs`` is the only
elimination loop in cfk.  It reduces a list of columns in order: while an
earlier column owns a column's highest set bit, that column is XORed in.
With the bits ordered by a filtration this is the persistence reduction
(Zomorodian and Carlsson, "Computing persistent homology", 2005), and
cfk.invariants reads V's free gradings over F2[U] and tau off it.
Everything else here is a few lines over ``pairs``:

* ``rank`` counts the owners.  A matrix and its transpose have the same
  rank, so the rows may be reduced as the columns.
* ``kernel_basis`` and ``solve`` reduce the matrix's columns with identity
  bits below the matrix bits.  The identity bits record which original
  columns each reduced column sums, so a column whose matrix bits vanish
  is a kernel vector, and a right-hand side whose matrix bits vanish is a
  solution.  cfk.oracle calls ``kernel_basis``; no library code calls
  ``solve``.

XOR on bigints keeps this fast well past the sizes the invariants need.
"""
from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence


def pairs(cols: list[int]) -> dict[int, int]:
    """Reduce cols in place, in order, and return each pivot's owner.

    While an earlier column owns the highest set bit of column s, it is
    XORed into column s, which ends at zero or owning its new highest bit.
    Each reduced column is its original plus a sum of earlier originals.
    The map sends each pivot, as a bit length (the pivot bit + 1), to the
    column that owns it.
    """
    owner: dict[int, int] = {}
    for s, c in enumerate(cols):
        while c:
            lead = c.bit_length()
            o = owner.get(lead)
            if o is None:
                owner[lead] = s
                break
            c ^= cols[o]
        cols[s] = c
    return owner


def rank(rows: Iterable[int]) -> int:
    """Rank of the matrix with the given rows."""
    return len(pairs(list(rows)))


def _augmented(rows: list[int], ncols: int) -> list[int]:
    """Column j of the matrix over its first ncols columns: bit ncols + i
    is the entry of row i, and bit j is set below the matrix bits."""
    cols = [1 << j for j in range(ncols)]
    for i, row in enumerate(rows):
        bit = 1 << (ncols + i)
        row &= (1 << ncols) - 1
        while row:
            j = row.bit_length() - 1
            cols[j] |= bit
            row ^= 1 << j
    return cols


def kernel_basis(rows: list[int], ncols: int) -> list[int]:
    """Basis of the null space of A, as column bitmasks."""
    cols = _augmented(rows, ncols)
    pairs(cols)
    return [c for c in cols if c.bit_length() <= ncols]


def solve(rows: list[int], ncols: int, rhs: int) -> int | None:
    """One solution x (bitmask over columns) of A x = b, or None.

    rows[i] is row i of A over the first ncols bits; bit i of rhs is b[i].
    """
    cols = _augmented(rows, ncols)
    cols.append((rhs & ((1 << len(rows)) - 1)) << ncols)
    pairs(cols)
    x = cols[-1]
    return None if x >> ncols else x


def graded_homology_dims(grading: Sequence[Hashable], sources: Iterable[int],
                         targets: Iterable[int]) -> dict[Hashable, int]:
    """Nonzero homology dimensions, by grading key, of a graded F2 complex.

    Basis element p has grading key grading[p]; each pair of basis
    positions (sources[e], targets[e]) is one entry of the differential,
    which must carry all of a grading key into a single other key.
    dim H_key = size - rank(out of key) - rank(into key).
    """
    place: list[int] = []  # each element's row in its key's block
    dims: dict[Hashable, int] = {}
    for key in grading:
        count = dims.get(key, 0)
        place.append(count)
        dims[key] = count + 1
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
