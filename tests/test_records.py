"""The package's immutable records: construction, equality, hashing, repr, order."""

import itertools
import operator
from fractions import Fraction

import pytest

from secclasses.algebra import Element, GeneratorSet, basis_of_degree
from secclasses.dga import CohomologyReport, DegreeSlice, Differential, _Slices
from secclasses.frames import CertifiedClass, FrameCertificate, FrameModel
from secclasses.models import (SPHERE_NORMALIZATION_NOTE, BundleMap, CertificateBlock,
                               Factor, IndependenceReport, ModelRing, PontrjaginMonomial)
from secclasses.weil import RigidFamilyEntry, VeyIndex

GENS = GeneratorSet((), (("a", 2, 2),))
RING = ModelRing(GENS, GENS.pack((), (2,)), "CP^2")
A = GENS.generator("a")
FRAME_GENS = GeneratorSet((("u", 3),), GENS.poly)
D = Differential(FRAME_GENS, {"u": FRAME_GENS.monomial((), (2,))})
BUNDLE = BundleMap(RING, 2, {1: A * A}, A)
EMPTY = DegreeSlice(0, 0, ())
SLICES = _Slices({0: DegreeSlice(1, 1, ())}, 1, EMPTY)

# (class, keyword arguments in field order, defaults left out of them,
#  how records with equal fields compare, repr)
CASES = [
    (GeneratorSet, {"exterior": (("y1", 1),), "poly": (("c1", 2, None),), "truncation": 2},
     {}, "fields",
     "GeneratorSet(exterior=(('y1', 1),), poly=(('c1', 2, None),), truncation=2)"),
    (DegreeSlice, {"chain_dim": 2, "dim": 1, "representatives": None}, {}, "fields",
     "DegreeSlice(chain_dim=2, dim=1, representatives=None)"),
    (_Slices, {"computed": {0: EMPTY}, "max_degree": 3, "empty": EMPTY}, {}, "unhashable",
     "_Slices(computed={0: DegreeSlice(chain_dim=0, dim=0, representatives=())}, "
     "max_degree=3, empty=DegreeSlice(chain_dim=0, dim=0, representatives=()))"),
    (CohomologyReport, {"max_degree": 1, "by_degree": SLICES}, {}, "unhashable",
     f"CohomologyReport(max_degree=1, by_degree={SLICES!r})"),
    (VeyIndex, {"I": (1,), "J": (1, 1)}, {}, "fields", "VeyIndex(I=(1,), J=(1, 1))"),
    (RigidFamilyEntry, {"vey": VeyIndex((2,), (2, 2)), "degree": 11, "family": "A"}, {},
     "fields", "RigidFamilyEntry(vey=VeyIndex(I=(2,), J=(2, 2)), degree=11, family='A')"),
    (FrameModel, {"q": 2, "base": RING, "bundle": BUNDLE, "gens": FRAME_GENS, "d": D,
                  "has_euler_transgression": False}, {}, "identity",
     f"FrameModel(q=2, base={RING!r}, bundle={BUNDLE!r}, gens={FRAME_GENS!r}, d={D!r}, "
     "has_euler_transgression=False)"),
    (CertifiedClass, {"source": "y2*c2^2", "image": "u1", "degree": 11, "nonzero": True},
     {"expected_zero": False, "vey": None}, "fields",
     "CertifiedClass(source='y2*c2^2', image='u1', degree=11, nonzero=True, "
     "expected_zero=False, vey=None)"),
    (FrameCertificate, {"q": 2, "model_label": "CP^2", "model_dimension": 6,
                        "classes": (), "jointly_independent": True, "passed": True}, {},
     "fields", "FrameCertificate(q=2, model_label='CP^2', model_dimension=6, classes=(), "
     "jointly_independent=True, passed=True)"),
    (Factor, {"kind": "sphere", "index": 2}, {}, "fields",
     "Factor(kind='sphere', index=2)"),
    # the word of a^2: 2 in a's field, degree 4 in the degree field at bit 3
    (ModelRing, {"gens": GENS, "top": 2 + (4 << 3), "label": "CP^2"}, {"factors": ()},
     "fields", "ModelRing(gens=GeneratorSet(exterior=(), poly=(('a', 2, 2),), "
     "truncation=0), top=34, label='CP^2', factors=())"),
    (BundleMap, {"ring": RING, "rank": 2, "p_images": {1: A * A}}, {"euler": None},
     "identity", f"BundleMap(ring={RING!r}, rank=2, p_images={{1: Element(a^2)}}, "
                 "euler=None)"),
    (PontrjaginMonomial, {"exps": (0, 2)}, {}, "fields",
     "PontrjaginMonomial(exps=(0, 2))"),
    (CertificateBlock, {"degree": 8, "classes": ("p2",), "cycles": ("S^8",),
                        "matrix": ((Fraction(1, 2),),), "rank": 1, "full": True}, {},
     "fields", "CertificateBlock(degree=8, classes=('p2',), cycles=('S^8',), "
     "matrix=((Fraction(1, 2),),), rank=1, full=True)"),
    (IndependenceReport, {"q": 2, "monomials": ("p1",), "blocks": (), "passed": True},
     {"note": SPHERE_NORMALIZATION_NOTE}, "fields",
     "IndependenceReport(q=2, monomials=('p1',), blocks=(), passed=True, "
     f"note={SPHERE_NORMALIZATION_NOTE!r})"),
]

# records of each ordered class, which order as the tuples of their fields
ORDERED = {
    VeyIndex: [VeyIndex(I, J) for I, J in itertools.product(
        [(1,), (1, 2), (2,)], [(), (1,), (1, 1), (2,)])],
    PontrjaginMonomial: [PontrjaginMonomial(e) for e in
                         [(1,), (2,), (1, 1), (0, 1), (0, 2), (1, 0, 1)]],
}
FIELDS = {VeyIndex: lambda v: (v.I, v.J), PontrjaginMonomial: lambda m: (m.exps,)}


@pytest.mark.parametrize("cls, kwargs, defaults, eq, text", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_record_semantics(cls, kwargs, defaults, eq, text):
    record = cls(**kwargs)
    twin = cls(*kwargs.values(), *defaults.values())
    assert repr(record) == repr(twin) == text
    for name, value in {**kwargs, **defaults}.items():
        assert getattr(record, name) == value
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1

    assert record == record
    if eq == "identity":
        assert record != twin and hash(record) == object.__hash__(record)
    else:
        assert record == twin and not record != twin
        if eq == "unhashable":
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == hash(twin)
    other_cls, other_kwargs = next(case[:2] for case in CASES if case[0] is not cls)
    stranger = other_cls(**other_kwargs)
    assert record != stranger and stranger != record
    if eq == "fields":
        assert record.__eq__(stranger) is NotImplemented

    samples = ORDERED.get(cls, [])
    for x, y in itertools.product(samples, repeat=2):
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            assert op(x, y) == op(FIELDS[cls](x), FIELDS[cls](y))
    with pytest.raises(TypeError):
        record < (stranger if samples else record)


# (the record built from lists, its twin from tuples, a use that hashes it)
LIST_FIELDS = [
    (lambda: GeneratorSet([["y1", 1]], [["c1", 2, None]], 2),
     lambda: GeneratorSet((("y1", 1),), (("c1", 2, None),), 2),
     lambda gens: (basis_of_degree(gens, 3), gens.dimension())),
    (lambda: VeyIndex([1], [1, 1]), lambda: VeyIndex((1,), (1, 1)), lambda v: {v}),
    (lambda: PontrjaginMonomial([1, 1]), lambda: PontrjaginMonomial((1, 1)),
     lambda m: {m}),
]


@pytest.mark.parametrize("make, make_twin, use", LIST_FIELDS,
                         ids=["GeneratorSet", "VeyIndex", "PontrjaginMonomial"])
def test_list_fields_are_stored_as_tuples(make, make_twin, use):
    record, twin = make(), make_twin()
    assert record == twin and hash(record) == hash(twin) and repr(record) == repr(twin)
    assert use(record) == use(twin)
