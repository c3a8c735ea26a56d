"""The value semantics of cfk's NamedTuple records: their repr, equality
and hash by value, and fields that cannot be assigned."""
import pytest

from cfk import expr as kx
from cfk.complexes import Violation
from cfk.surgery import CableBounds, GenusReport, SignatureValue, SurgerySpec

RECORDS = [
    (lambda: Violation("grading", "U^0:a->b grading mismatch: 0 vs 0"),
     "Violation(kind='grading', message='U^0:a->b grading mismatch: 0 vs 0')"),
    (kx.Unknot, "Unknot()"),
    (lambda: kx.Torus(2, 3), "Torus(p=2, q=3)"),
    (lambda: kx.Cable(2, 5, kx.Torus(2, 3)), "Cable(p=2, q=5, companion=Torus(p=2, q=3))"),
    (lambda: kx.Mirror(kx.Torus(2, 3)), "Mirror(child=Torus(p=2, q=3))"),
    (lambda: kx.Sum(kx.Unknot(), kx.Torus(2, 5)), "Sum(left=Unknot(), right=Torus(p=2, q=5))"),
    (lambda: kx.FromFile("k.cfk"), "FromFile(path='k.cfk')"),
    (lambda: kx.Annotated(kx.Torus(2, 3), (("sigma", -2), ("g4_upper", 1))),
     "Annotated(child=Torus(p=2, q=3), annotations=(('g4_upper', 1), ('sigma', -2)))"),
    (lambda: SurgerySpec(3, 1), "SurgerySpec(p=3, q=1)"),
    (lambda: CableBounds(2, 5, None, 4), "CableBounds(p=2, q=5, lower=None, upper=4)"),
    (lambda: SignatureValue(-2, ("sigma(torus(2,3)) = -2",)),
     "SignatureValue(value=-2, steps=('sigma(torus(2,3)) = -2',))"),
    (lambda: GenusReport(1, 1, 1, 0, -2, 1, 1, 1, ("note",)),
     "GenusReport(tau=1, nu=1, nu_plus=1, nu_plus_mirror=0, sigma=-2, "
     "seifert_genus=1, g4_lower=1, g4_upper=1, notes=('note',))"),
]


@pytest.mark.parametrize("make,text", RECORDS, ids=[text.split("(")[0] for _make, text in RECORDS])
def test_record_value_semantics(make, text):
    record, again = make(), make()
    assert repr(record) == text
    assert record == again and hash(record) == hash(again)
    assert {record: 1}[again] == 1
    for field in type(record)._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None
