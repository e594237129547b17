"""Weil complexes, the Vey index combinatorics, and the rigid families."""

from itertools import combinations, combinations_with_replacement

import pytest

from secclasses.dga import cohomology
from secclasses.weil import (IndexOutOfRange, OddCodimension, VeyIndex,
                             spherical_rigid_classes, vey_basis,
                             vey_counts_by_degree, weil_complex)


def test_weil_complex_shapes():
    g1, _ = weil_complex(1)
    assert g1.dimension() == 4
    assert g1.top_degree() == 3

    gwo2, _ = weil_complex(2, framed=False)
    assert gwo2.exterior == (("y1", 1),)
    assert gwo2.poly == (("c1", 2, None), ("c2", 4, None))
    assert gwo2.truncation == 4
    assert gwo2.dimension() == 8

    g3, _ = weil_complex(3)
    assert g3.dimension() == 56  # 8 exterior x 7 truncated polynomial monomials

    gwo5, _ = weil_complex(5, framed=False)
    assert [n for n, _ in gwo5.exterior] == ["y1", "y3", "y5"]

    with pytest.raises(ValueError):
        weil_complex(0)


def test_vey_basis_q1():
    basis = vey_basis(1)
    assert [(v.I, v.J) for v in basis] == [((1,), (1,))]
    assert basis[0].degree == 3
    assert basis[0].label() == "y1*c1"


def test_vey_basis_q2_exact_list():
    labels = [v.label() for v in vey_basis(2)]
    assert labels == ["y1*c1^2", "y1*c2", "y1*y2*c1^2", "y1*y2*c2", "y2*c2"]


def test_vey_membership_exclusion():
    v = VeyIndex((2,), (1, 1))
    assert not v.is_member(2)  # i_1 <= j_1 fails: 2 > 1
    assert VeyIndex((2,), (2,)).is_member(2)
    assert not VeyIndex((1,), ()).is_member(2)  # i_1 + 0 < q + 1


def test_unit_class_excluded():
    for q in (1, 2, 3):
        assert all(v.I for v in vey_basis(q))


def test_rigidity_predicate():
    assert VeyIndex((2,), (2,)).is_rigid(2)           # 4 >= 4
    assert not VeyIndex((1,), (1, 1)).is_rigid(2)     # 3 < 4
    assert VeyIndex((2,), (2, 2)).is_rigid(4)         # 6 >= 6
    assert not VeyIndex((2,), (1, 1)).is_rigid(2)     # not a member


def test_godbillon_vey_not_rigid():
    for q in (1, 2, 3):
        gv = VeyIndex((1,), (1,) * q)
        assert gv.is_member(q)
        assert not gv.is_rigid(q)


def test_vey_monomials_are_cocycles():
    for q in (1, 2, 3, 4):
        gens, d = weil_complex(q)
        for v in vey_basis(q):
            assert d(v.element(gens)).is_zero()


def test_vey_element_finds_each_generator_by_name():
    # unframed, y3 sits at exterior position 1, not 2
    gens, _ = weil_complex(5, framed=False)
    x = VeyIndex((3,), (3,)).element(gens)
    assert str(x) == "y3*c3" and x.degree() == 11
    with pytest.raises(IndexOutOfRange, match="^y2 is not a generator"):
        VeyIndex((2,), (2,)).element(weil_complex(2, framed=False)[0])
    with pytest.raises(IndexOutOfRange, match="^c3 is not a generator"):
        VeyIndex((1,), (3,)).element(weil_complex(2)[0])
    with pytest.raises(ValueError, match="invalid monomial"):
        VeyIndex((1,), (2, 2)).element(weil_complex(3)[0])  # above the truncation


@pytest.mark.parametrize("q", range(1, 7))
def test_vey_element_over_a_framed_complex_is_y_at_i_minus_one(q):
    # the positional rule each framed complex satisfies
    gens, _ = weil_complex(q)
    for v in vey_basis(q):
        exps = tuple(v.J.count(j) for j in range(1, q + 1))
        assert v.element(gens) == gens.monomial(tuple(i - 1 for i in v.I), exps), v


def test_vey_counts_match_cohomology_small():
    for q in (1, 2):
        gens, d = weil_complex(q)
        report = cohomology(gens, d, representatives=False)
        counts = vey_counts_by_degree(q)
        for n in range(1, report.max_degree + 1):
            assert counts.get(n, 0) == report.by_degree[n].dim
        assert report.by_degree[0].dim == 1


def generate_and_filter(q):
    """Every (I, J) with entries in [1, q] and sum(J) <= q, kept if a member."""
    pool = range(1, q + 1)
    Is = sorted(c for r in range(1, q + 1) for c in combinations(pool, r))
    Js = sorted(c for r in range(q + 1)
                for c in combinations_with_replacement(pool, r) if sum(c) <= q)
    return [VeyIndex(I, J) for I in Is for J in Js
            if VeyIndex(I, J).is_member(q)]


def test_vey_basis_matches_generate_and_filter_oracle():
    for q in range(1, 9):
        oracle = generate_and_filter(q)
        assert vey_basis(q) == oracle
        assert vey_basis(q, min_degree=2 * q, max_degree=3 * q) == \
            [v for v in oracle if 2 * q <= v.degree <= 3 * q]


def test_vey_degree_filter():
    full = vey_basis(3)
    window = vey_basis(3, min_degree=7, max_degree=9)
    assert window == [v for v in full if 7 <= v.degree <= 9]


def test_spherical_families_frozen():
    assert [(e.label(), e.degree, e.family) for e in spherical_rigid_classes(4)] \
        == [("y2*c2^2", 11, "A")]
    six = {(e.label(), e.degree, e.family) for e in spherical_rigid_classes(6)}
    assert six == {("y2*c2^3", 15, "A"), ("y2*y4*c2^3", 22, "A"),
                   ("y4*c4", 15, "B")}
    eight = [(e.label(), e.degree) for e in spherical_rigid_classes(8)]
    assert eight == [("y2*c2^4", 19), ("y2*y4*c2^4", 26)]


def test_spherical_entries_pass_both_predicates():
    for q in (4, 6, 8, 10, 12, 14):
        members = set(vey_basis(q)) if q <= 8 else None
        for e in spherical_rigid_classes(q):
            assert e.vey.is_member(q)
            assert e.vey.is_rigid(q)
            if members is not None:
                assert e.vey in members


def test_family_a_size_formula_and_monotone():
    sizes = []
    for q in range(4, 31, 2):
        fam_a = [e for e in spherical_rigid_classes(q) if e.family == "A"]
        assert len(fam_a) == 2 ** ((q + 2) // 4 - 1)
        sizes.append(len(fam_a))
    assert sizes == sorted(sizes)


def test_odd_codimension_rejected():
    with pytest.raises(OddCodimension):
        spherical_rigid_classes(5)
    with pytest.raises(OddCodimension):
        spherical_rigid_classes(2)


def test_no_rigid_class_in_codimension_one():
    assert vey_basis(1) and not any(v.is_rigid(1) for v in vey_basis(1))


def test_vey_index_validation():
    with pytest.raises(ValueError):
        VeyIndex((2, 1), ())
    with pytest.raises(ValueError):
        VeyIndex((1,), (2, 1))
    with pytest.raises(ValueError):
        VeyIndex((0,), ())


@pytest.mark.parametrize("index", [
    VeyIndex((), (1,)),  # no exterior factor
    VeyIndex((5,), ()),  # y5 lies above q
    VeyIndex((1,), (1,) * 5),  # each c1 lies in W_4, but c1^5 does not
], ids=["empty-I", "index-above-q", "J-sum-above-q"])
def test_is_member_rejects_an_empty_i_an_index_above_q_and_a_j_sum_above_q(index):
    # each index fails only the check it names: without that check the
    # last two would be members, and the first would index an empty I
    assert index.is_member(4) is False


@pytest.mark.parametrize("I, J, message", [
    ((1, 1), (), "I must be strictly increasing"),
    ((0, 1), (), "indices start at 1"),
    ((1,), (-1, 2), "indices start at 1"),
])
def test_vey_index_rejects_repeats_and_a_low_first_entry(I, J, message):
    # the lower bound is read from the first entry of each sorted tuple
    with pytest.raises(ValueError, match=message):
        VeyIndex(I, J)
    assert VeyIndex((), ()).label() == "1"
    assert VeyIndex((1, 3), (1, 1)).label() == "y1*y3*c1^2"


@pytest.mark.parametrize("make", [
    lambda: weil_complex(True),
    lambda: weil_complex(2.0),
    lambda: vey_basis(True),
    lambda: vey_basis(3.0),
    lambda: VeyIndex((1.0,), (2,)),
    lambda: VeyIndex((True,), (1,)),
    lambda: VeyIndex((1,), (2, 2.0)),
], ids=["weil-bool", "weil-float", "vey-bool", "vey-float",
        "index-float-I", "index-bool-I", "index-float-J"])
def test_non_integer_q_and_indices_rejected(make):
    with pytest.raises(TypeError, match="must be an int"):
        make()


@pytest.mark.parametrize("q", range(1, 10))
@pytest.mark.parametrize("bounds", [(None, None), (None, 30), (20, None), (15, 45)])
def test_rigid_vey_basis_is_the_basis_filtered_by_is_rigid(q, bounds):
    rigid = vey_basis(q, *bounds, rigid=True)
    assert rigid == [v for v in vey_basis(q, *bounds) if v.is_rigid(q)]


def test_rigid_vey_basis_builds_only_rigid_classes(monkeypatch):
    built = []
    real = VeyIndex.__post_init__

    def counted(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(VeyIndex, "__post_init__", counted)
    rigid = vey_basis(12, rigid=True)
    assert len(built) == len(rigid) == 33729
