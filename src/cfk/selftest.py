"""The golden table: `CHECKS`, run by `cfk selftest` and by pytest.

`CHECKS` is the one list of end-to-end checks: frozen values taken from the
published tables for these knots or from the independent brute-force
engine (`cfk.oracle`), formula cross-checks, and the V-ladder identities.
`cfk selftest` runs it without pytest and prints one PASS/FAIL line per
entry; `tests/test_acceptance.py` is a single test parametrized over it, so
`pytest tests/test_acceptance.py -v` prints one line per entry and adds the
wall-clock budgets.  Adding a golden means adding a row here.

The checks go through `_expect`, not `assert`, so they still check under
`python -O`.  They look up `tau` and friends through this module's globals,
and build each complex on first use, so importing this module builds none.
"""
from __future__ import annotations

import random
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import Callable

from . import cfkfile, oracle
from .complexes import (BifilteredComplex, DiffTerm, Generator, dual,
                        staircase, tensor, validate)
from .errors import ExprSemanticError, ExprSyntaxError, NoConstructorError
from .expr import build_complex, lspace_exponents, parse
from .invariants import V, epsilon, hfk_hat, nu, nu_plus, seifert_genus, tau
from .surgery import (SurgerySpec, cable_nu_plus_bounds, cable_tau,
                      d_invariants, lens_d, qa_nu_plus, signature_eval,
                      surgery_d)

_CABLE = "cable(2,5,torus(2,3))"
_SUM45 = f"torus(2,9) # mirror({_CABLE})"
_SUM225 = f"torus(2,5) # torus(2,3) # torus(2,3) # mirror({_CABLE})"
_TORUS = [(2, 3), (2, 5), (2, 7), (2, 9), (3, 4), (3, 5)]
_BASE = ["unknot"] + [f"torus({p},{q})" for p, q in _TORUS] + [_CABLE]
# the base knots, their mirrors and both paper knots
_SUITE = _BASE + [f"mirror({text})" for text in _BASE] + [_SUM45, _SUM225]

_cache: dict[str, BifilteredComplex] = {}


def _expect(got, want, context=None) -> None:
    """Raise on a mismatch; unlike assert, this still checks under python -O."""
    if got != want:
        where = "" if context is None else f" at {context!r}"
        raise AssertionError(f"got {got!r}, want {want!r}{where}")


def _complex(text: str) -> BifilteredComplex:
    if text not in _cache:
        _cache[text] = build_complex(parse(text))
    return _cache[text]


def _check_staircase_goldens() -> None:
    _expect(tau(_complex("torus(2,9)")), 4)
    _expect(tau(_complex(f"mirror({_CABLE})")), -4)
    _expect([(g.i, g.j) for g in _complex(_CABLE).generators], [(0, 4), (1, 4), (1, 1), (4, 1), (4, 0)])
    table = hfk_hat(_complex(_SUM45))
    _expect(sum(table.values()), 45)
    _expect(max(a for (a, _m) in table), 8)


def _check_paper_knot(text: str, generators: int) -> None:
    """The source paper's examples: tau = 0, but nu+ = 2."""
    C = _complex(text)
    _expect(len(C.generators), generators)
    _expect((tau(C), nu(C), nu_plus(C)), (0, 1, 2))
    _expect((V(C, 0), V(C, 1), V(C, 2)), (1, 1, 0))
    _expect(epsilon(C), -1)


def _check_ladder_relations() -> None:
    for text in _SUITE:
        C = _complex(text)
        vals = {k: V(C, k) for k in range(-7, 8)}
        for k in range(-7, 8):
            _expect(vals[-k], vals[k] + k, (text, k))
            if k + 1 in vals:
                _expect(vals[k] - 1 <= vals[k + 1] <= vals[k], True, (text, k))
            if k >= C.index().alexander_range[1]:
                _expect(vals[k], 0, (text, k))
        t, n, n_plus = tau(C), nu(C), nu_plus(C)
        _expect(n_plus == 0, vals[0] == 0, text)
        _expect(n - t in (0, 1) and n_plus >= n >= t, True, text)


def _check_torus_sharpness() -> None:
    for (p, q) in _TORUS:
        C = _complex(f"torus({p},{q})")
        g = (p - 1) * (q - 1) // 2
        _expect((tau(C), nu_plus(C), seifert_genus(C), C.index().alexander_range[1]),
                (g, g, g, g), (p, q))
        _expect(nu_plus(dual(C)), 0, (p, q))


def _check_quasi_alternating() -> None:
    for q in (3, 5, 7, 9):
        sigma = signature_eval(parse(f"torus(2,{q})")).value
        mirror_sigma = signature_eval(parse(f"mirror(torus(2,{q}))")).value
        _expect((sigma, mirror_sigma), (1 - q, q - 1), q)
        _expect(nu_plus(_complex(f"torus(2,{q})")), qa_nu_plus(sigma), q)
        _expect((nu_plus(_complex(f"mirror(torus(2,{q}))")), qa_nu_plus(mirror_sigma)), (0, 0), q)


def _check_cable_formulas() -> None:
    C = _complex(_SUM225)
    t, eps = tau(C), epsilon(C)
    _expect((t, eps), (0, -1))
    for p, (want_tau, want_g4) in {2: (3, 6), 3: (9, 13), 4: (18, 23)}.items():
        _expect(cable_tau(t, eps, p, 3 * p - 1), want_tau, p)
        _expect(want_tau, 3 * p * (p - 1) // 2, p)
        bounds = cable_nu_plus_bounds(C, p, 3 * p - 1, g4_upper=2)
        _expect((bounds.lower, bounds.upper), (want_g4, want_g4), p)
        _expect(want_g4, p * ((2 * 2 - 1) * p - 1) // 2 + 1, p)  # n = 2 form
    _expect(cable_nu_plus_bounds(C, 2, 5).upper, None)


def _check_signature_rules() -> None:
    for text, sigma in [("torus(2,5)", -4), (_CABLE, -4), (_SUM225, -4),
                        (f"cable(2,5,{_SUM225})", -4), ("mirror(torus(2,7))", 6),
                        ("torus(3,5)", None), ("{torus(3,5) @ sigma=-8}", -8)]:
        _expect(signature_eval(parse(text)).value, sigma, text)
    for p in (2, 3):  # on the (p, 3p-1) cables the signature bound stays below g4
        sigma_bound = 4 + (p - 1) * (3 * p - 2)
        g4 = p * (3 * p - 1) // 2 + 1
        _expect(sigma_bound // 2 + 2 * p - 2 <= g4, True, p)


def _check_lens_recursion() -> None:
    U = _complex("unknot")
    for (p, q) in [(1, 1), (2, 1), (3, 1), (3, 2), (5, 2), (7, 3)]:
        ds = d_invariants(U, SurgerySpec(p, q))
        _expect(ds, [lens_d(p, q, i) for i in range(p)], (p, q))
        _expect([(4 * p * q) % d.denominator for d in ds], [0] * p, (p, q))
    _expect(d_invariants(U, SurgerySpec(2, 1)), [Fraction(1, 4), Fraction(-1, 4)])
    _expect(d_invariants(U, SurgerySpec(3, 1)),
            [Fraction(1, 2), Fraction(-1, 6), Fraction(-1, 6)])
    _expect(surgery_d(_complex("torus(2,3)"), SurgerySpec(1, 1), 0), Fraction(-2))


def _check_engine_agreement() -> None:
    for text in _SUITE:
        C = _complex(text)
        for k in range(-3, 4):
            _expect(oracle.v_by_u_rank(C, k), V(C, k), (text, k))
    # random sums of T(2,3), T(2,5) and their mirrors; two pools
    exponents = [lspace_exponents(parse(text)) for text in ("torus(2,3)", "torus(2,5)")]
    for seed, trials, prefix in [(20260819, 8, "x"), (1603, 20, "y")]:
        pool = ([staircase(a) for a in exponents]
                + [dual(staircase(a, prefix=prefix)) for a in exponents])
        rng = random.Random(seed)
        for trial in range(trials):
            C = pool[rng.randrange(len(pool))]
            for _ in range(rng.choice([1, 2])):
                C = tensor(C, pool[rng.randrange(len(pool))])
            k = rng.randint(-3, 3)
            _expect(oracle.v_by_u_rank(C, k), V(C, k), (seed, trial))


def _check_file_roundtrip() -> None:
    C = _complex(f"mirror({_CABLE})")
    text = cfkfile.dumps(C)
    again = cfkfile.loads(text)
    _expect(again, C)
    _expect(cfkfile.dumps(again), text)
    _expect((tau(again), nu(again), nu_plus(again)), (-4, -3, 0))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "roundtrip.cfk"
        cfkfile.write_complex(C, path)
        _expect(cfkfile.read_complex(path), C)
    try:
        cfkfile.loads("cfk v2\ngen a 0 0 0\n")
    except Exception as exc:
        _expect("header" in str(exc), True)
    else:
        raise AssertionError("version check missing")


def _check_error_classes() -> None:
    base = _complex("torus(2,3)")
    cases = {
        "duplicate-name": BifilteredComplex(
            list(base.generators) + [Generator("x0", 5, 5, 0)], base.terms),
        "filtration": BifilteredComplex(
            base.generators, list(base.terms) + [DiffTerm("x2", "x1", 0)]),
        "grading": BifilteredComplex(
            base.generators, [DiffTerm("x1", "x0", 0), DiffTerm("x1", "x2", 1)]),
        "d-squared": BifilteredComplex(
            [Generator("a", 0, 0, 2), Generator("b", 0, 0, 1), Generator("c", 0, 0, 0),
             Generator("z", 0, 0, 0)],
            [DiffTerm("a", "b", 0), DiffTerm("b", "c", 0)]),
        "vertical-homology": BifilteredComplex(
            base.generators, [DiffTerm("x1", "x0", 0)]),
    }
    for kind, C in cases.items():
        kinds = {v.kind for v in validate(C)}
        _expect(kind in kinds, True, (kind, kinds))
    _expect(validate(base), [])
    try:
        build_complex(parse("cable(2,1,torus(2,3))"))
    except NoConstructorError:
        pass
    else:
        raise AssertionError("cable legality gate missing")
    try:
        parse("torus(2,")
    except ExprSyntaxError as exc:
        _expect(exc.position, len("torus(2,"))
    else:
        raise AssertionError("syntax error reporting missing")
    try:
        parse("torus(2,4)")
    except ExprSemanticError:
        pass
    else:
        raise AssertionError("coprimality check missing")


CHECKS: list[tuple[str, Callable[[], None]]] = [
    ("staircase goldens", _check_staircase_goldens),
    ("45-generator sum fixture", lambda: _check_paper_knot(_SUM45, 45)),
    ("225-generator sum fixture", lambda: _check_paper_knot(_SUM225, 225)),
    ("V/H ladder relations", _check_ladder_relations),
    ("torus knot sharpness", _check_torus_sharpness),
    ("quasi-alternating crosscheck", _check_quasi_alternating),
    ("cable formulas", _check_cable_formulas),
    ("signature rules", _check_signature_rules),
    ("lens space recursion", _check_lens_recursion),
    ("engine agreement", _check_engine_agreement),
    ("file round trip", _check_file_roundtrip),
    ("error classes", _check_error_classes),
]


def run() -> int:
    failures = 0
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as exc:  # report and keep going
            failures += 1
            print(f"FAIL {name}: {exc!r}")
        else:
            print(f"PASS {name}")
    print(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return failures
