"""GF(2) linear algebra on Python-int bitmasks, over one reduction kernel.

A vector is one int: bit i is its i-th entry.  ``pairs`` reduces a list
of columns in order: while an earlier column owns a column's highest set
bit, that column is XORed in.  With the bits ordered by a filtration this
is the persistence reduction (Zomorodian and Carlsson, "Computing
persistent homology", 2005).  It reduces every rectangular block, the map
from one grading into another: cfk.invariants reads tau and nu off it,
and cfk.complexes reduces each block of a slice with it, for validate's
vertical stage and HFK-hat.  The one other elimination loop in cfk is
the same reduction on the square matrix of a V level, inside
cfk.invariants.homology_over_U, where rows and columns share one order
and a column whose row is already a pivot is cleared (skipped) instead
of reduced; that is exact only because the complex's verdict has shown
d^2 = 0, which no block here assumes.  The caller passes the row count
(the widest bit length) it already knows, and the pivot table comes back
as a list indexed by bit length, with -1 where no column owns the bit, so
a lookup is one list index.  Everything else here is a few lines over
``pairs``:

* ``rank`` counts the columns that reduce to nonzero, one per owner.  A
  matrix and its transpose have the same rank, so the rows may be reduced
  as the columns.  cfk.oracle calls it.
* ``kernel_basis`` and ``solve`` reduce the matrix's columns with identity
  bits below the matrix bits.  The identity bits record which original
  columns each reduced column sums, so a column whose matrix bits vanish
  is a kernel vector, and a right-hand side whose matrix bits vanish is a
  solution.  cfk.oracle calls ``kernel_basis``; no library code calls
  ``solve``.

XOR on bigints keeps this fast well past the sizes the invariants need.
"""
from __future__ import annotations

from collections.abc import Iterable


def pairs(cols: list[int], width: int) -> list[int]:
    """Reduce cols in place, in order, and return the pivot table.

    Every column's bit length is at most width.  While an earlier column
    owns the highest set bit of column s, it is XORed into column s, which
    ends at zero or owning its new highest bit.  Each reduced column is its
    original plus a sum of earlier originals.  The table is a list of
    width + 1 entries indexed by bit length (the pivot bit + 1): the column
    that owns that pivot, or -1 where no column does.
    """
    owner = [-1] * (width + 1)
    for s, c in enumerate(cols):
        while c:
            lead = c.bit_length()
            o = owner[lead]
            if o < 0:
                owner[lead] = s
                break
            c ^= cols[o]
        cols[s] = c
    return owner


def rank(rows: Iterable[int]) -> int:
    """Rank of the matrix with the given rows."""
    rows = list(rows)
    pairs(rows, max(rows, default=0).bit_length())
    return len(rows) - rows.count(0)


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
    pairs(cols, ncols + len(rows))
    return [c for c in cols if c.bit_length() <= ncols]


def solve(rows: list[int], ncols: int, rhs: int) -> int | None:
    """One solution x (bitmask over columns) of A x = b, or None.

    rows[i] is row i of A over the first ncols bits; bit i of rhs is b[i].
    """
    cols = _augmented(rows, ncols)
    cols.append((rhs & ((1 << len(rows)) - 1)) << ncols)
    pairs(cols, ncols + len(rows))
    x = cols[-1]
    return None if x >> ncols else x

