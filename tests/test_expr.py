from pathlib import Path

import pytest

from cfk import expr as kx
from cfk.errors import (ExprSemanticError, ExprSyntaxError, NoConstructorError,
                        ValidationError)
from cfk.invariants import tau
from cfk.laurent import LaurentPoly

DATA = Path(__file__).parent / "data" / "mirror_cable_2_5_trefoil.cfk"


def test_parse_and_print_canonical_forms():
    cases = [
        ("torus(2,3)#torus(2,5)", "torus(2,3) # torus(2,5)"),
        ("{ torus(2,9)@g4_upper=2,alt }", "{torus(2,9) @ alt, g4_upper=2}"),
        ("torus(2,3) # (torus(2,5) # unknot)",
         "torus(2,3) # (torus(2,5) # unknot)"),
        ("mirror( cable(2,5, torus(2,3)) )", "mirror(cable(2,5,torus(2,3)))"),
        ('file("tests/data/x.cfk")', 'file("tests/data/x.cfk")'),
        ("(unknot)", "unknot"),
    ]
    for text, canonical in cases:
        e = kx.parse(text)
        assert kx.to_text(e) == canonical
        assert kx.parse(canonical) == e


def test_sum_is_left_associative():
    e = kx.parse("unknot # torus(2,3) # torus(2,5)")
    assert e == kx.Sum(kx.Sum(kx.Unknot(), kx.Torus(2, 3)), kx.Torus(2, 5))


def test_syntax_errors_carry_positions():
    cases = [
        ("torus(2,", 8, "expected 'int', found 'end of input'"),
        ("", 0, "expected a knot term, found 'end of input'"),
        ("torus(2 3)", 8, "expected ',', found '3'"),
        ("knot(3)", 0, "unknown knot form 'knot'"),
        ('file("a" # unknot', 9, "expected ')', found '#'"),
        ("torus(2,3) ## unknot", 12, "expected a knot term, found '#'"),
    ]
    for text, pos, detail in cases:
        with pytest.raises(ExprSyntaxError) as e:
            kx.parse(text)
        assert e.value.position == pos
        assert str(e.value) == f"syntax error at position {pos}: {detail}"


def test_depth_is_bounded():
    """Brackets and sums count one level each, up to MAX_DEPTH; one more
    is a syntax error at the bracket or "#" that passes it."""
    n = kx.MAX_DEPTH
    deepest = ["(" * n + "unknot" + ")" * n, "mirror(" * n + "unknot" + ")" * n,
               " # ".join(["unknot"] * (n + 1)), "{" * n + "unknot" + " @ a}" * n,
               "mirror(" * (n // 2) + " # ".join(["unknot"] * (n // 2 + 1)) + ")" * (n // 2),
               "(" * (n // 2) + "unknot" + " # unknot" * (n // 2) + ")" * (n // 2)]
    for text in deepest:
        assert kx.parse(kx.to_text(kx.parse(text))) == kx.parse(text)
    too_deep = [(deepest[0].replace("(", "((", 1).replace(")", "))", 1), n),
                ("cable(2,1," * (n + 1) + "unknot" + ")" * (n + 1), 10 * n),
                (deepest[2] + " # unknot", 9 * n + 7),
                # the outer brackets and the chain inside add up past the limit
                ("(" + deepest[4] + ")", 0),
                ("(" * (n // 2 + 1) + "unknot" + " # unknot" * (n // 2) + ")" * (n // 2 + 1), 0)]
    for text, pos in too_deep:
        with pytest.raises(ExprSyntaxError) as e:
            kx.parse(text)
        assert str(e.value) == (f"syntax error at position {pos}: "
                                f"expression nests deeper than {n} levels")


def test_semantic_errors():
    cases = [
        ("torus(2,4)", "torus(2,4): parameters must be coprime"),
        ("torus(0,1)", "torus(0,1): parameters must be positive"),
        ("torus(-2,3)", "torus(-2,3): parameters must be positive"),
        ("cable(2,4,unknot)", "cable(2,4,...): parameters must be coprime"),
        ("cable(0,1,unknot)", "cable strand count must be positive, got 0"),
        ("{unknot @ a, a=1}", "annotation key 'a' repeated"),
    ]
    for text, message in cases:
        with pytest.raises(ExprSemanticError) as e:
            kx.parse(text)
        assert str(e.value) == message


def test_lspace_gate():
    assert kx.is_lspace_expr(kx.parse("unknot"))
    assert kx.is_lspace_expr(kx.parse("torus(3,5)"))
    assert kx.is_lspace_expr(kx.parse("cable(2,5,torus(2,3))"))
    assert kx.is_lspace_expr(kx.parse("{torus(2,3) @ alt}"))
    assert not kx.is_lspace_expr(kx.parse("mirror(torus(2,3))"))
    assert not kx.is_lspace_expr(kx.parse("torus(2,3) # unknot"))
    # the trefoil has genus 1, so a 2-cable needs q >= 2
    assert not kx.is_lspace_expr(kx.parse("cable(2,1,torus(2,3))"))


def test_lspace_alexander_matches_building_blocks():
    assert kx.lspace_alexander(kx.parse("unknot")) == LaurentPoly.one()
    assert kx.lspace_alexander(kx.parse("cable(2,5,torus(2,3))")).degree() == 4
    with pytest.raises(NoConstructorError):
        kx.lspace_alexander(kx.parse("mirror(torus(2,3))"))


def test_build_complex_smalls():
    C = kx.build_complex(kx.parse("cable(2,5,torus(2,3))"))
    assert len(C.generators) == 5
    assert C.label == "cable(2,5,torus(2,3))"
    assert tau(C) == 4
    assert tau(kx.build_complex(kx.parse("mirror(cable(2,5,torus(2,3)))"))) == -4
    U = kx.build_complex(kx.parse("{unknot @ alt}"))
    assert len(U.generators) == 1


def test_build_complex_rejects_illegal_cable():
    with pytest.raises(NoConstructorError) as e:
        kx.build_complex(kx.parse("cable(2,1,torus(2,3))"))
    assert str(e.value) == (
        "no CFK constructor available for cable(2,1,torus(2,3)): the companion "
        "must be an L-space expression (unknot, torus, or such a cable) with "
        "q >= p*(2g - 1)")
    for text in ["cable(3,2,mirror(torus(2,3)))", "cable(3,1,torus(2,3))"]:
        with pytest.raises(NoConstructorError):
            kx.build_complex(kx.parse(text))


def test_sum_order_does_not_change_invariants():
    a = kx.build_complex(kx.parse("torus(2,3) # torus(2,5)"))
    b = kx.build_complex(kx.parse("torus(2,5) # torus(2,3)"))
    assert tau(a) == tau(b) == 3


def test_root_annotations_outermost_wins():
    e = kx.parse("{{unknot @ g4_upper=3, alt} @ g4_upper=1}")
    assert kx.root_annotations(e) == {"alt": True, "g4_upper": 1}
    assert kx.root_annotations(kx.parse("unknot")) == {}
    assert kx.strip_annotations(e) == kx.Unknot()
    direct = kx.Annotated(kx.Unknot(), (("g4_upper", 3), ("alt", True)))
    assert direct.annotations == (("alt", True), ("g4_upper", 3))
    assert direct == kx.parse("{unknot @ g4_upper=3, alt}")
    assert direct._replace(annotations=(("z", 1), ("b", 2))).annotations == (("b", 2), ("z", 1))


def test_from_file_builds_and_validates(tmp_path):
    e = kx.parse(f'file("{DATA}")')
    C = kx.build_complex(e)
    assert len(C.generators) == 5
    assert tau(C) == -4
    bad = tmp_path / "bad.cfk"
    bad.write_text("cfk v1\ngen a 0 0 1\ngen b 1 0 0\ndif a b\n")
    with pytest.raises(ValidationError):
        kx.build_complex(kx.parse(f'file("{bad}")'))
