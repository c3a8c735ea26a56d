"""Brute-force cross-check for the graded U-module engine.

The expansion here forgets the module structure: each free basis element b
of a_minus(C, k) becomes the chain of F2 generators U^s b down to a cutoff
grading, and the differential is expanded likewise.  V_k is read off by
U-action ranks: the largest even grading whose classes still map onto
something after multiplying by U^S for S past every torsion exponent.  A
plain dimension scan cannot do this, since torsion at the tower gradings
looks like a higher tower.  ``cfk selftest`` and the benchmark's checks
use it as the independent V reference, and so do the tests.

Nothing here calls the Smith reduction; only a_minus, f2.rank and
f2.kernel_basis are shared.  Those two are a few lines over f2.pairs, the
loop the Smith reduction also runs, so tests/test_f2.py checks pairs,
rank and kernel_basis against plain elimination.
"""
from __future__ import annotations

from .complexes import BifilteredComplex
from . import f2
from .errors import CfkError
from .invariants import a_minus


class OracleError(CfkError):
    pass


def v_by_u_rank(C: BifilteredComplex, k: int) -> int:
    """V_k via U-action ranks: S is taken past every possible torsion
    exponent, so only the free tower survives U^S; the top grading whose
    homology still maps onto anything under U^S is the tower top."""
    if not C.index().names:
        raise OracleError("empty complex")
    x = a_minus(C, k)
    grading, terms = dict(x.basis), x.terms
    gradings = list(grading.values())
    top, bottom = max(gradings), min(gradings)
    maxu = max((e for (_s, _t, e) in terms), default=0)
    S = (top - bottom) // 2 + maxu + 2
    cutoff = bottom - 2 * S - (2 * maxu + 2) - 6
    by_grading: dict[int, list[tuple[str, int]]] = {}
    for name, mu in grading.items():
        s = 0
        while mu - 2 * s >= cutoff:
            by_grading.setdefault(mu - 2 * s, []).append((name, s))
            s += 1
    index: dict[int, dict[tuple[str, int], int]] = {
        m: {el: i for i, el in enumerate(els)} for m, els in by_grading.items()}
    outgoing: dict[str, list[tuple[str, int]]] = {}
    for s_, t_, e in terms:
        outgoing.setdefault(s_, []).append((t_, e))

    def boundary_rows(m: int) -> list[int]:
        """Rows over grading-m elements with target bits in grading m-1."""
        tindex = index.get(m - 1, {})
        rows = [0] * len(tindex)
        for cidx, (name, s) in enumerate(by_grading.get(m, ())):
            for (t_, e) in outgoing.get(name, ()):
                ti = tindex.get((t_, s + e))
                if ti is not None:
                    rows[ti] |= 1 << cidx
        return rows

    def image_vectors(m: int) -> list[int]:
        """Boundary image inside grading m, as bitmasks over its elements."""
        tindex = index.get(m, {})
        vecs = []
        for (name, s) in by_grading.get(m + 1, ()):
            v = 0
            for (t_, e) in outgoing.get(name, ()):
                ti = tindex.get((t_, s + e))
                if ti is not None:
                    v |= 1 << ti
            vecs.append(v)
        return vecs

    for d in range(0, bottom - 1, -2):
        if d - 2 * S <= cutoff:
            raise OracleError("truncation too shallow for the U-rank scan")
        src = by_grading.get(d, [])
        if not src:
            continue
        kernel = f2.kernel_basis(boundary_rows(d), len(src))
        tindex = index[d - 2 * S]
        shifted = []
        for z in kernel:
            v = 0
            zz = z
            while zz:
                low = zz & -zz
                name, s = src[low.bit_length() - 1]
                v |= 1 << tindex[(name, s + S)]
                zz ^= low
            shifted.append(v)
        img = image_vectors(d - 2 * S)
        if f2.rank(img + shifted) > f2.rank(img):
            return -d // 2
    raise OracleError(f"U-rank scan found no surviving tower (k={k})")
