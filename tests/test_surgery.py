import gc
import tracemalloc
from fractions import Fraction
from math import ceil, gcd

import pytest

import references
from conftest import torus_staircase
from cfk import expr as kx
from cfk import surgery
from cfk.complexes import dual, unknot_complex
from cfk.errors import PreconditionError
from cfk.invariants import H, V
from cfk.surgery import (CableBounds, SurgerySpec, cable_nu_plus_bounds,
                         cable_tau, d_invariants, genus_report, lens_d,
                         qa_nu_plus, signature_eval, surgery_d)


F = Fraction


def test_lens_d_small_tables():
    assert lens_d(1, 1, 0) == 0
    assert [lens_d(2, 1, i) for i in range(2)] == [F(1, 4), F(-1, 4)]
    assert [lens_d(3, 1, i) for i in range(3)] == [F(1, 2), F(-1, 6), F(-1, 6)]
    assert [lens_d(3, 2, i) for i in range(3)] == [F(1, 6), F(1, 6), F(-1, 2)]
    assert [lens_d(5, 2, i) for i in range(5)] == [
        F(2, 5), F(2, 5), F(-2, 5), F(0), F(-2, 5)]
    assert [lens_d(7, 3, i) for i in range(7)] == [
        F(3, 14), F(1, 2), F(3, 14), F(-9, 14), F(-1, 14), F(-1, 14), F(-9, 14)]


def test_lens_d_hand_recursion():
    # unfold d(L(5,4)) by hand: d(L(4,1),j) = [3/4, 0, -1/4, 0] and
    # d(L(5,4),i) = ((2i-8)^2 - 20)/80 - d(L(4,1), i % 4)
    assert [lens_d(4, 1, j) for j in range(4)] == [F(3, 4), F(0), F(-1, 4), F(0)]
    expect = []
    for i in range(5):
        expect.append(F((2 * i - 8) ** 2 - 20, 80) - lens_d(4, 1, i % 4))
    got = [lens_d(5, 4, i) for i in range(5)]
    assert got == expect
    assert got == [F(-1, 5), F(1, 5), F(1, 5), F(-1, 5), F(-1)]


def test_lens_d_matches_its_recursion():
    def recursive(p, q, i):
        if p == 1:
            return Fraction(0)
        return (Fraction((2 * i + 1 - p - q) ** 2 - p * q, 4 * p * q)
                - recursive(q, p % q, i % q))

    for p in range(1, 25):
        for q in range(1, 2 * p):
            if gcd(p, q) == 1:
                assert [lens_d(p, q, i) for i in range(p)] == [recursive(p, q, i) for i in range(p)]


def test_large_surgery_keeps_nothing_once_its_complex_is_gone():
    """d-invariants at p = 20,000 compute 20,000 lens-space terms; none
    outlives the complex (an unbounded cache of them held about 5 MB)."""
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        C = torus_staircase(2, 3)
        assert len(d_invariants(C, SurgerySpec(20_000, 1))) == 20_000
        del C
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 100_000, kept


def test_lens_d_parameter_checks():
    with pytest.raises(ValueError):
        lens_d(4, 2, 0)
    with pytest.raises(ValueError):
        lens_d(0, 1, 0)
    with pytest.raises(ValueError):
        lens_d(3, 1, 3)
    with pytest.raises(ValueError):
        lens_d(3, 1, -1)


def test_unknot_surgery_matches_lens_spaces():
    U = unknot_complex()
    for (p, q) in [(1, 1), (2, 1), (3, 1), (3, 2), (5, 2), (7, 3)]:
        ds = d_invariants(U, SurgerySpec(p, q))
        assert ds == [lens_d(p, q, i) for i in range(p)]
        for d in ds:
            assert (4 * p * q) % d.denominator == 0


def test_trefoil_surgeries():
    T = torus_staircase(2, 3)
    assert surgery_d(T, SurgerySpec(1, 1), 0) == -2
    assert d_invariants(T, SurgerySpec(5, 4)) == [
        F(-11, 5), F(-9, 5), F(-9, 5), F(-11, 5), F(-1)]


def test_surgery_spec_rejects_bad_coefficients():
    with pytest.raises(PreconditionError, match=r"^surgery coefficient must have p, q >= 1$"):
        SurgerySpec(0, 1)
    with pytest.raises(PreconditionError, match=r"^surgery coefficient must have p, q >= 1$"):
        SurgerySpec(3, -1)
    with pytest.raises(PreconditionError, match=r"^surgery coefficient 4/2 is not reduced$"):
        SurgerySpec(4, 2)
    assert SurgerySpec(q=2, p=3) == (3, 2)
    assert SurgerySpec(3, 2)._replace(q=4) == SurgerySpec(3, 4)
    with pytest.raises(PreconditionError, match=r"^surgery coefficient 3/3 is not reduced$"):
        SurgerySpec(3, 2)._replace(q=3)
    with pytest.raises(ValueError):
        surgery_d(torus_staircase(2, 3), SurgerySpec(3, 1), 3)


def test_qa_nu_plus():
    assert qa_nu_plus(0) == 0
    assert qa_nu_plus(4) == 0
    assert qa_nu_plus(-2) == 1
    assert qa_nu_plus(-8) == 4
    with pytest.raises(PreconditionError):
        qa_nu_plus(-3)


def test_cable_tau_formula():
    # with tau = 0 and epsilon = -1, the (p, 3p-1) cable gets 3p(p-1)/2
    assert {p: cable_tau(0, -1, p, 3 * p - 1) for p in (2, 3, 4, 5)} == {
        2: 3, 3: 9, 4: 18, 5: 30}
    assert cable_tau(1, -1, 2, 3) == 4
    with pytest.raises(PreconditionError):
        cable_tau(0, 0, 2, 5)
    with pytest.raises(PreconditionError):
        cable_tau(0, 1, 2, 5)
    with pytest.raises(ValueError):
        cable_tau(0, -1, 2, 4)


def test_cable_nu_plus_bounds_trefoil():
    T = torus_staircase(2, 3)
    # residue 2 has V_1 = 0 and H_{-2} = 0, so no lower bound here
    b = cable_nu_plus_bounds(T, 2, 5)
    assert b == CableBounds(2, 5, None, None)
    assert cable_nu_plus_bounds(T, 2, 5, g4_upper=1).upper == 4
    # with q = 2 every residue sits over V_0 = 1
    assert cable_nu_plus_bounds(T, 3, 2).lower == 4
    with pytest.raises(ValueError):
        cable_nu_plus_bounds(T, 2, 4)
    with pytest.raises(ValueError):
        cable_nu_plus_bounds(T, 2, 5, g4_upper=-1)


def test_cable_nu_plus_bounds_45_generator_knot(knot_45):
    for p in (2, 3, 4):
        b = cable_nu_plus_bounds(knot_45, p, 3 * p - 1, g4_upper=2)
        assert b.lower == b.upper == p * (3 * p - 1) // 2 + 1


CABLE_COMPANIONS = ["unknot", "torus(2,3)", "torus(2,5)", "torus(3,4)", "mirror(torus(2,3))",
                    "cable(2,5,torus(2,3))", "torus(2,9) # mirror(cable(2,5,torus(2,3)))",
                    "torus(2,3) # mirror(torus(2,5))", "torus(2,5) # torus(3,4)"]


def test_cable_lower_bound_matches_the_per_residue_scan():
    """Each quotient floor(s/p) once against every residue in turn, on
    every coprime (p, q) with p <= 9 and q <= 40."""
    cases = 0
    for text in CABLE_COMPANIONS:
        C = kx.build_complex(kx.parse(text))
        for p in range(1, 10):
            for q in range(1, 41):
                if gcd(p, q) == 1:
                    got = cable_nu_plus_bounds(C, p, q).lower
                    assert got == references.cable_nu_plus_lower(C, p, q), (text, p, q)
                    cases += 1
    assert cases > 2000


def test_cable_lower_bound_reads_one_v_level_and_no_h(monkeypatch):
    """Every residue passes exactly when V is positive at ceil(q/p) // 2,
    so each bound reads that one level and no H."""
    calls = []
    monkeypatch.setattr(surgery, "V", lambda C, k: calls.append(("V", k)) or V(C, k))
    monkeypatch.setattr(surgery, "H", lambda C, k: calls.append(("H", k)) or H(C, k),
                        raising=False)
    for text in CABLE_COMPANIONS:
        C = kx.build_complex(kx.parse(text))
        for p, q in [(1, 7), (2, 5), (2, 13), (3, 2), (3, 16), (5, 3), (7, 30), (8, 9)]:
            calls.clear()
            cable_nu_plus_bounds(C, p, q)
            assert calls == [("V", ceil(q / p) // 2)], (text, p, q)


def test_cable_lower_bound_at_large_q_reads_few_levels(monkeypatch):
    """Each bound at q up to 10^9 + 1 reads one V level; a scan by residue
    would take q steps."""
    calls = []
    monkeypatch.setattr(surgery, "V", lambda C, k: calls.append(k) or V(C, k))
    T = torus_staircase(2, 3)
    assert cable_nu_plus_bounds(T, 10**9 + 1, 10**9).lower == (10**9 + 1) * 10**9 // 2 + 1
    assert cable_nu_plus_bounds(T, 1000001, 1000000).lower == 500000500001
    assert cable_nu_plus_bounds(T, 2, 10**9 + 1).lower is None
    assert len(calls) <= 6


def test_signature_basics():
    assert signature_eval(kx.parse("unknot")).value == 0
    assert signature_eval(kx.parse("unknot")).known
    assert signature_eval(kx.parse("torus(2,3)")).value == -2
    assert signature_eval(kx.parse("torus(2,7)")).value == -6
    assert signature_eval(kx.parse("torus(3,2)")).value == -2
    assert signature_eval(kx.parse("mirror(torus(2,5))")).value == 4
    assert signature_eval(kx.parse("torus(2,3) # torus(2,5)")).value == -6
    s = signature_eval(kx.parse("torus(3,4)"))
    assert s.value is None and not s.known
    assert "unknown" in s.steps[-1]


def test_signature_cable_rules():
    # even strand count: the pattern torus knot decides
    assert signature_eval(kx.parse("cable(2,5,torus(2,3))")).value == -4
    # odd strand count: companion adds in
    assert signature_eval(kx.parse("cable(3,2,torus(2,3))")).value == -4
    # odd strand count with an unknown companion stays unknown
    assert signature_eval(kx.parse("cable(3,2,torus(3,4))")).value is None
    # negative q: the pattern T(p,-q) is the mirror of T(p,q), sigma flips sign
    assert signature_eval(kx.parse("cable(2,-3,torus(2,3))")).value == 2
    assert signature_eval(kx.parse("cable(2,-1,torus(2,3))")).value == 0
    assert signature_eval(kx.parse("cable(3,-2,torus(2,3))")).value == 0


def test_signature_chain_for_the_225_generator_knot():
    text = "torus(2,5) # torus(2,3) # torus(2,3) # mirror(cable(2,5,torus(2,3)))"
    s = signature_eval(kx.parse(text))
    assert s.value == -4
    assert "mirror flips sign: 4" in s.steps
    # the 2-strand cable of it keeps the pattern's signature
    assert signature_eval(kx.parse(f"cable(2,5,{text})")).value == -4


def test_signature_annotation():
    s = signature_eval(kx.parse("{torus(3,4) @ sigma=-6}"))
    assert s.value == -6
    assert any("[annotation]" in step for step in s.steps)
    with pytest.raises(PreconditionError):
        signature_eval(kx.parse("{unknot @ sigma=3}"))


def test_signature_gap_inequality():
    # |sigma| of the (p, 3p-1) cable is at most 4 + (p-1)(3p-2), while the
    # cable's genus equals p(3p-1)/2 + 1; the gap grows with p
    for p in (2, 3):
        sigma_bound = 4 + (p - 1) * (3 * p - 2)
        g4 = p * (3 * p - 1) // 2 + 1
        assert ceil(sigma_bound / 2) + 2 * p - 2 <= g4
    # both sides are in fact equal for these p
    assert ceil(8 / 2) + 2 == 6
    assert ceil(18 / 2) + 4 == 13


def test_genus_report_unknot():
    r = genus_report(unknot_complex())
    assert (r.tau, r.nu, r.nu_plus, r.nu_plus_mirror) == (0, 0, 0, 0)
    assert r.sigma is None
    assert (r.g4_lower, r.g4_upper, r.seifert_genus) == (0, 0, 0)


def test_genus_report_torus_2_9():
    e = kx.parse("torus(2,9)")
    r = genus_report(kx.build_complex(e), e)
    assert (r.g4_lower, r.g4_upper) == (4, 4)
    assert r.sigma == -8
    assert r.notes == (
        "g4 lower bound 4 from nu_plus",
        "signature -8 gives lower bound 4",
        "Seifert genus 4 bounds g4 from above",
    )


def test_genus_report_45_generator_knot():
    e = kx.parse("{torus(2,9) # mirror(cable(2,5,torus(2,3))) @ g4_upper=2}")
    r = genus_report(kx.build_complex(e), e)
    assert (r.tau, r.nu, r.nu_plus, r.nu_plus_mirror) == (0, 1, 2, 0)
    assert r.sigma == -4
    assert r.seifert_genus == 8
    assert (r.g4_lower, r.g4_upper) == (2, 2)
    assert r.notes[-1] == "g4 upper bound improved to 2 by annotation"


def test_genus_report_flags_inconsistent_annotation():
    e = kx.parse("{torus(2,9) @ g4_upper=1}")
    r = genus_report(kx.build_complex(e), e)
    assert (r.g4_lower, r.g4_upper) == (4, 1)
    assert r.notes[-1] == (
        "warning: lower bound exceeds upper bound; inputs are inconsistent")
